// Command perfbench is the repository's benchmark. It drives one of
// three closed-loop, single-client workloads through the layers' public
// entry points in one process and checks every operation against a
// reference:
//
//	sort-outofcore  a 64 MiB multiset sorted out of core on file-backed tapes
//	query-mem       the Theorem 11 symmetric-difference query, planned, on mem storage
//	decide-tcp      Las Vegas SET-EQUALITY over two loopback TCP workers
//
// The query runs on mem storage, not file-backed: with file-backed
// machines its wall time is mostly the creation of many small spill
// files, whose cost on a shared host drifts by more than any bound
// between runs minutes apart.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload query-mem --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run measures with no tracing and reports the
// end-to-end metrics. With --trace 1 it spends half of --seconds
// untraced and half traced, checks that the exact counts of both
// halves agree, prints a per-layer self-time table, writes the spans
// as JSON lines under the state directory, and reports the per-layer
// metrics. The last line of standard output is always the JSON result;
// the line before it records the environment, the input sizes and the
// sample count behind every percentile.
//
// Every metric is reported on every workload. An op is one sort, one
// query or one decision. Its latency is the time inside the layer
// calls and excludes the output check: SortToTape for a sort, machine
// construction to close for a query, the fingerprint fleet plus any
// confirmation for a decision.
// op_p50_ms and op_p90_ms are percentiles of op latency, mb_per_s is
// input megabytes (10^6 bytes) over summed op latency, peak_rss_mb is
// the process's VmHWM, and setup_s is the median set-up: input
// generation onto a fresh file-backed machine before each sort, and
// instance generation with reference answers (plus worker start for
// decide-tcp) repeated setupRuns times for the others.
//
// A per-layer metric is zero where its layer does no work on the
// workload. Per-op counts, false accepts included, are averages over
// the traced half's ops. Layer timings that exist only on some
// workloads (shard attempt, transport round trip, plan.Choose) are
// reported as shares of op time, with their percentiles on the detail
// line. Op time there is the time inside the layer entry points
// (SortToTape, EvalST, the fingerprint fleet, EqualSet); the output
// check and the census bookkeeping are left out.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	tiny     bool   // the smoke test's small sizes
	stateDir string // spill, trace and count records live here
	corrupt  bool   // tamper with every output before it is checked (smoke test)
}

// scale is the input size of every workload.
type scale struct {
	sortItems   int   // items of 31 bits, 32 encoded bytes each
	sortRunBits int64 // run-formation memory of the sorter
	setM        int   // values per side of a SET-EQUALITY instance
	minSamples  int   // query and decide latencies a phase collects at least
}

var (
	fullScale = scale{sortItems: 2 << 20, sortRunBits: 8 << 20, setM: 1024, minSamples: 100}
	tinyScale = scale{sortItems: 4096, sortRunBits: 16 << 10, setM: 32, minSamples: 1}
)

const (
	itemBits  = 31 // bits per generated value; with '#' an item is 32 bytes
	poolSize  = 8  // instances a query or decide run cycles through
	setupRuns = 5  // set-ups a workload without per-op set-up repeats
)

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "sort-outofcore, query-mem or decide-tcp")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 adds a traced half and reports per-layer metrics")
	state := fs.String("state", filepath.Join(".bench_build", "perfbench"), "directory for spill files, traces and count records")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := config{
		workload: *wl, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, stateDir: *state,
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one invocation: set-up, the untraced phase, and with
// cfg.trace the traced phase; it writes the detail lines to out and
// returns the result the caller prints last.
func run(cfg config, out io.Writer) (result, error) {
	sc := fullScale
	if cfg.tiny {
		sc = tinyScale
	}
	if err := os.MkdirAll(cfg.stateDir, 0o755); err != nil {
		return result{}, err
	}
	spill, err := os.MkdirTemp(cfg.stateDir, "spill-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(spill)

	b := &bench{cfg: cfg, sc: sc, spill: spill, build: exeDigest(), seen: map[int]exactCounts{}}
	switch cfg.workload {
	case "sort-outofcore":
		b.w = &sortWorkload{b: b}
	case "query-mem":
		b.w = &queryWorkload{b: b}
	case "decide-tcp":
		b.w = &decideWorkload{b: b}
	default:
		return result{}, fmt.Errorf("unknown --workload %q (want sort-outofcore, query-mem or decide-tcp)", cfg.workload)
	}
	// A hung layer must not hold the run past its time limit.
	ctx, cancel := context.WithTimeout(context.Background(), cfg.seconds+120*time.Second)
	defer cancel()
	defer b.w.close()

	var phases []*phase
	if cfg.trace {
		half := cfg.seconds / 2
		phases = []*phase{b.measure(ctx, nil, half), b.measure(ctx, newTracer(), half)}
	} else {
		phases = []*phase{b.measure(ctx, nil, cfg.seconds)}
	}
	for _, p := range phases {
		if p.err != nil {
			return result{}, p.err
		}
	}
	var res result
	for _, p := range phases {
		res.Attempted += p.ops
		res.Failed += p.failed
	}
	if err := b.checkRecord(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Failed = max(res.Failed, 1) // counts that drift between runs fail this one
	}
	res.Correct = res.Failed == 0

	details := map[string]any{"env": b.env(), "samples": b.samples(phases[0])}
	if cfg.trace {
		tp := phases[1]
		rows := tp.tr.layerTable()
		printTable(out, rows, tp.ops)
		path := filepath.Join(cfg.stateDir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tp.tr.writeJSONL(path); err != nil {
			return result{}, fmt.Errorf("writing trace: %w", err)
		}
		details["trace_file"] = path
		details["spans"] = spanStats(tp)
		res.Metrics = perLayer(phases[0], tp)
	} else {
		res.Metrics = endToEnd(phases[0], b.setups)
	}
	line, err := json.Marshal(details)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(out, string(line))
	return res, nil
}

// env records where and on what the run happened.
func (b *bench) env() map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload":   b.cfg.workload,
		"seed":       b.cfg.seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"build":      b.build,
		"clients":    1,
		"inputs":     b.w.inputs(),
	}
}

// exeDigest identifies the running build: the sha256 of the
// executable, shortened. Count records are kept per build.
func exeDigest() string {
	path, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// checkRecord compares this run's exact counts with those an earlier
// run of the same build, workload, scale and seed recorded, and
// records the union. Counts are a pure function of the inputs, so any
// difference is a determinism failure.
func (b *bench) checkRecord() error {
	name := fmt.Sprintf("counts-%s-%s-tiny%t-seed%d.json", b.build, b.cfg.workload, b.cfg.tiny, b.cfg.seed)
	path := filepath.Join(b.cfg.stateDir, name)
	old := map[int]exactCounts{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &old); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	for k, c := range old {
		if cur, ok := b.seen[k]; ok && cur != c {
			return fmt.Errorf("instance %d: exact counts %+v differ from an earlier run's %+v", k, cur, c)
		}
		b.seen[k] = c
	}
	data, err = json.Marshal(b.seen)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
