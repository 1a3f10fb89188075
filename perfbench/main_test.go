package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// workloads are the benchmark's workloads, as BENCHMARK.json lists them.
var workloads = []string{"sort-outofcore", "query-mem", "decide-tcp"}

// declared returns the metric names BENCHMARK.json declares for the
// untraced and the traced run.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, want %v", names, workloads)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func tinyRun(t *testing.T, workload, state string, trace, corrupt bool) result {
	t.Helper()
	res, err := run(config{
		workload: workload, seed: 7, seconds: 100 * time.Millisecond,
		trace: trace, tiny: true, stateDir: state, corrupt: corrupt,
	}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestEveryMetricEmitted runs each workload at tiny sizes, untraced and
// then traced on one state directory (so the second run also checks the
// first run's exact counts), and checks that every declared metric and
// no other is reported.
func TestEveryMetricEmitted(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		state := t.TempDir()
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, w, state, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			slices.Sort(got)
			want = slices.Sorted(slices.Values(want))
			if !slices.Equal(got, want) {
				t.Errorf("%s trace=%t: metrics %v, want %v", w, trace, got, want)
			}
		}
		entries, err := os.ReadDir(state)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				t.Errorf("%s: spill directory %s left behind", w, e.Name())
			}
		}
	}
}

// TestCorruptOutputFails checks that a tampered output fails every op.
func TestCorruptOutputFails(t *testing.T) {
	for _, w := range workloads {
		res := tinyRun(t, w, t.TempDir(), false, true)
		if res.Correct || res.Attempted < 1 || res.Failed != res.Attempted {
			t.Errorf("%s: corrupted outputs gave correct=%t attempted=%d failed=%d", w, res.Correct, res.Attempted, res.Failed)
		}
	}
}

// TestCountDriftFails checks that exact counts differing from an
// earlier run's record of the same seed fail the run.
func TestCountDriftFails(t *testing.T) {
	state := t.TempDir()
	if res := tinyRun(t, "sort-outofcore", state, false, false); !res.Correct {
		t.Fatalf("first run: correct=%t failed=%d", res.Correct, res.Failed)
	}
	records, err := filepath.Glob(filepath.Join(state, "counts-*-sort-outofcore-*.json"))
	if err != nil || len(records) != 1 {
		t.Fatalf("count records %v, %v", records, err)
	}
	var rec map[int]exactCounts
	data, err := os.ReadFile(records[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	c := rec[0]
	c.SortSteps++
	rec[0] = c
	if data, err = json.Marshal(rec); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(records[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if res := tinyRun(t, "sort-outofcore", state, false, false); res.Correct || res.Failed == 0 {
		t.Errorf("drifted counts gave correct=%t failed=%d", res.Correct, res.Failed)
	}
}

// TestOpTimes checks that op time covers the layer entry points only,
// and that coordinator time comes only from ops with shard spans.
func TestOpTimes(t *testing.T) {
	tr := newTracer()
	add := func(op, parent int64, name string, start, end time.Duration) int64 {
		s := tr.begin(op, nil, name)
		s.parent, s.start, s.end = parent, start, end
		return s.id
	}
	// Op 0: an entry point of 10 with a shard attempt of 4 inside it and
	// an output check of 50 after it.
	root := add(0, 0, "bench.op", 0, 70)
	entry := add(0, root, "relalg.EvalST", 0, 10)
	att := add(0, entry, "shard.sort_attempt", 2, 6)
	add(0, att, "transport.exec", 3, 5)
	add(0, root, "bench.check", 10, 60)
	// Op 1: an entry point of 20 with no shard work.
	root = add(1, 0, "bench.op", 100, 130)
	add(1, root, "algorithms.SortToTape", 100, 120)

	got := tr.opTimes()
	want := opTimes{work: 30, shard: 4, transport: 2, coordinator: 6}
	if got != want {
		t.Errorf("opTimes %+v, want %+v", got, want)
	}
}
