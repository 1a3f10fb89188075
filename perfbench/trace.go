package main

// trace.go records the traced run's spans. Spans are opened and closed
// only in the benchmark's own files, around each call into a layer:
// op → layer entry point → shard attempt → transport round trip. Tape
// backend block calls are too many to keep one by one (a 64 MiB sort
// makes tens of millions), so each span carries the count and the
// estimated busy time of the backend calls made under it instead of
// child spans (see timedBackend).
// Spans stay in memory until the run ends.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. start and end are offsets from
// the tracer's epoch; parent is 0 for an op's root span.
type span struct {
	id, parent, op int64
	name           string
	start, end     time.Duration
	backendNs      atomic.Int64 // estimated tape backend block-call time charged to this span
	backendOps     atomic.Int64 // tape backend block calls charged to this span
}

func (s *span) addBackendCall() {
	if s != nil {
		s.backendOps.Add(1)
	}
}

func (s *span) addBackendBusy(d int64) {
	if s != nil {
		s.backendNs.Add(d)
	}
}

// layer is the module a span's name belongs to: the text before the
// first dot.
func (s *span) layer() string {
	l, _, _ := strings.Cut(s.name, ".")
	return l
}

func (s *span) dur() time.Duration { return s.end - s.start }

// scope is the span a tape backend charges its calls to. The sort
// machine's backends outlive several layer calls, so the benchmark
// moves the scope from call to call.
type scope struct{ cur atomic.Pointer[span] }

func (sc *scope) set(s *span) {
	if sc != nil {
		sc.cur.Store(s)
	}
}

func (sc *scope) span() *span {
	if sc == nil {
		return nil
	}
	return sc.cur.Load()
}

// tracer holds the spans of one traced phase. A nil *tracer records
// nothing, so the untraced phase runs the same code.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span named layer.call under parent (nil for an op's
// root span).
func (t *tracer) begin(op int64, parent *span, name string) *span {
	if t == nil {
		return nil
	}
	s := &span{id: t.ids.Add(1), op: op, name: name, start: time.Since(t.epoch)}
	if parent != nil {
		s.parent = parent.id
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// end closes a span opened by begin.
func (t *tracer) end(s *span) {
	if t == nil || s == nil {
		return
	}
	s.end = time.Since(t.epoch)
}

// covered is the length of the union of the intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var lo, hi time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			lo, hi, open = x[0], x[1], true
		case x[0] > hi:
			total += hi - lo
			lo, hi = x[0], x[1]
		case x[1] > hi:
			hi = x[1]
		}
	}
	if open {
		total += hi - lo
	}
	return total
}

// layerRow is one line of the self-time table.
type layerRow struct {
	layer       string
	calls       int64
	total, self time.Duration
}

// layerTable attributes wall time to layers: a span's self time is its
// duration minus the union of its child spans and minus the backend
// time charged to it; the tape row is the backend time itself.
func (t *tracer) layerTable() []layerRow {
	children := map[int64][][2]time.Duration{}
	for _, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]time.Duration{s.start, s.end})
		}
	}
	rows := map[string]*layerRow{}
	row := func(l string) *layerRow {
		if rows[l] == nil {
			rows[l] = &layerRow{layer: l}
		}
		return rows[l]
	}
	for _, s := range t.spans {
		busy := time.Duration(s.backendNs.Load())
		self := max(s.dur()-covered(children[s.id])-busy, 0)
		r := row(s.layer())
		r.calls++
		r.total += s.dur()
		r.self += self
		tr := row("tape")
		tr.calls += s.backendOps.Load()
		tr.total += busy
		tr.self += busy
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// printTable writes the self-time table.
func printTable(w io.Writer, rows []layerRow, ops int) {
	var wall time.Duration
	for _, r := range rows {
		wall += r.self
	}
	fmt.Fprintf(w, "%-11s %10s %12s %12s %7s\n", "layer", "calls/op", "total ms/op", "self ms/op", "self %")
	for _, r := range rows {
		share := 0.0
		if wall > 0 {
			share = 100 * float64(r.self) / float64(wall)
		}
		fmt.Fprintf(w, "%-11s %10.1f %12.3f %12.3f %7.1f\n", r.layer,
			float64(r.calls)/float64(ops), ms(r.total)/float64(ops), ms(r.self)/float64(ops), share)
	}
}

// durations returns the durations of the spans whose name has the
// prefix.
func (t *tracer) durations(prefix string) []time.Duration {
	var d []time.Duration
	for _, s := range t.spans {
		if strings.HasPrefix(s.name, prefix) {
			d = append(d, s.dur())
		}
	}
	return d
}

// opTimes splits the traced ops' time inside the program, summed over
// ops; each figure is a union of spans, concurrent calls counted once.
type opTimes struct {
	// work is covered by the layer entry points: an op's root span
	// holds the output check ("bench" layer) and the census
	// bookkeeping as well, and those are left out.
	work time.Duration
	// shard and transport are covered by those layers' calls.
	shard, transport time.Duration
	// coordinator is work minus shard on the ops that have shard
	// spans, so it is zero where the shard layer does no work.
	coordinator time.Duration
}

func (t *tracer) opTimes() opTimes {
	roots := map[int64]bool{}
	for _, s := range t.spans {
		if s.parent == 0 {
			roots[s.id] = true
		}
	}
	work := map[int64][][2]time.Duration{}
	shard := map[int64][][2]time.Duration{}
	transport := map[int64][][2]time.Duration{}
	for _, s := range t.spans {
		iv := [2]time.Duration{s.start, s.end}
		switch l := s.layer(); {
		case l == "shard":
			shard[s.op] = append(shard[s.op], iv)
		case l == "transport":
			transport[s.op] = append(transport[s.op], iv)
		case roots[s.parent] && l != "bench":
			work[s.op] = append(work[s.op], iv)
		}
	}
	var ot opTimes
	for op, iv := range work {
		w := covered(iv)
		ot.work += w
		ot.transport += covered(transport[op])
		if sh, ok := shard[op]; ok {
			c := covered(sh)
			ot.shard += c
			ot.coordinator += w - c
		}
	}
	return ot
}

// writeJSONL writes every span as one JSON line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			ID            int64   `json:"id"`
			Parent        int64   `json:"parent"`
			Op            int64   `json:"op"`
			Name          string  `json:"name"`
			StartUs       float64 `json:"start_us"`
			EndUs         float64 `json:"end_us"`
			BackendOps    int64   `json:"backend_ops"`
			BackendBusyUs float64 `json:"backend_busy_us"`
		}{s.id, s.parent, s.op, s.name, us(s.start), us(s.end),
			s.backendOps.Load(), us(time.Duration(s.backendNs.Load()))}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
