package main

// query.go is the query-mem workload: the Theorem 11 symmetric-
// difference query, whose emptiness decides SET-EQUALITY, evaluated by
// the planned sharded evaluator on mem storage. Its tapes are many and
// small, so tape creation, the shard coordinator, the operators and the
// planner do the work; no transport or file I/O is involved.

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"extmem/internal/core"
	"extmem/internal/plan"
	"extmem/internal/problems"
	"extmem/internal/relalg"
	"extmem/internal/tape"
)

// queryBudget is the planner's envelope: at most two shards, as many
// as the benchmark host has CPUs.
var queryBudget = plan.Budget{MemoryBits: 256, Tapes: 6, MaxShards: 2}

// chooseReps is how often plan.Choose is re-run per stage to time it.
const chooseReps = 16

type queryWorkload struct {
	b *bench

	dbs  []relalg.DB
	refs []*relalg.Relation // relalg.Eval's answer per instance
	size []int              // encoded instance size in bytes
}

// loop: a p90 with ten samples beyond it needs 100 samples.
func (w *queryWorkload) loop() loopShape { return loopShape{minOps: w.b.sc.minSamples} }

func (w *queryWorkload) inputs() map[string]any {
	return map[string]any{
		"instances": poolSize, "yes_instances": poolSize / 2, "values_per_side": w.b.sc.setM,
		"value_bits": itemBits, "bytes_per_instance": w.size[0], "storage": "mem",
		"budget": queryBudget,
	}
}

// genSet draws one SET-EQUALITY instance from rng; yes selects the kind.
func genSet(rng *rand.Rand, m int, yes bool) problems.Instance {
	if yes {
		return problems.GenSetYes(m, itemBits, rng)
	}
	return problems.GenSetNo(m, itemBits, rng)
}

// prepare generates the seed's instances, half yes and half no, and
// evaluates the query on each with the in-memory reference evaluator.
func (w *queryWorkload) prepare(*phase) error {
	rng := rand.New(rand.NewSource(w.b.cfg.seed))
	q := relalg.SymmetricDifference("R1", "R2")
	w.dbs, w.refs, w.size = nil, nil, nil
	for i := 0; i < poolSize; i++ {
		in := genSet(rng, w.b.sc.setM, i%2 == 0)
		db := relalg.InstanceDB(in)
		ref, err := relalg.Eval(q, db)
		if err != nil {
			return fmt.Errorf("reference answer for instance %d: %w", i, err)
		}
		w.dbs = append(w.dbs, db)
		w.refs = append(w.refs, ref)
		w.size = append(w.size, len(in.Encode()))
	}
	return nil
}

// op evaluates the query on instance op mod poolSize and compares the
// result with the reference.
func (w *queryWorkload) op(ctx context.Context, p *phase, op int64) (opRecord, error) {
	i := int(op % poolSize)
	root := p.tr.begin(op, nil, "bench.op")
	defer p.tr.end(root)
	es := p.tr.begin(op, root, "relalg.EvalST")
	opts := tape.Options{Wrap: p.wrap(spanScope(es))}
	planner := plan.Auto(queryBudget)
	var rep relalg.QueryReport
	ev := relalg.Evaluator{Plan: planner, Seed: w.b.cfg.seed, TapeOpts: opts, Report: &rep}
	if p.tr != nil {
		ev.Exec = p.sortExec(op, es, nil)
		ev.ExecScan = p.scanExec(op, es, nil)
	}
	opened := p.tape.opened.Load()

	t0 := time.Now()
	m := core.NewMachineOpts(relalg.NumQueryTapes, w.b.cfg.seed, opts)
	got, err := ev.EvalST(ctx, relalg.SymmetricDifference("R1", "R2"), w.dbs[i], m)
	rep.Coordinator = m.Resources()
	cerr := m.Close()
	lat := time.Since(t0)
	p.tr.end(es)
	if err != nil {
		return opRecord{}, fmt.Errorf("query on instance %d: %w", i, err)
	}
	if cerr != nil {
		return opRecord{}, fmt.Errorf("closing the query machine: %w", cerr)
	}
	if w.b.cfg.corrupt {
		got.Tuples = append(got.Tuples, relalg.Tuple{"corrupt"})
	}
	if ref := w.refs[i]; len(got.Tuples) != len(ref.Tuples) || !got.EqualSet(ref) {
		return opRecord{}, fmt.Errorf("instance %d: query returned %d tuples, reference %d",
			i, len(got.Tuples), len(ref.Tuples))
	}

	attempts := p.st.addQuery(&rep)
	if p.tr != nil {
		p.st.addPlan(planner, &rep)
	}
	return opRecord{
		instance: i,
		latency:  lat,
		bytes:    int64(w.size[i]),
		counts: exactCounts{
			ShardAttempts:  attempts,
			RelalgSteps:    rep.TotalSteps(),
			BackendsOpened: p.tape.opened.Load() - opened,
		},
	}, nil
}

func (w *queryWorkload) close() {}

// addQuery adds one query's sharded stages to the census and returns
// its shard attempts.
func (st *layerStats) addQuery(rep *relalg.QueryReport) (attempts int64) {
	for _, s := range rep.Sorts {
		st.shardTasks += int64(len(s.Shards))
		st.shardFallbacks += int64(s.Fallbacks)
		attempts += int64(s.Attempts)
	}
	for _, s := range rep.Scans {
		st.shardTasks += int64(len(s.Shards))
		st.shardFallbacks += int64(s.Fallbacks)
		attempts += int64(s.Attempts)
	}
	st.shardAttempts += attempts
	st.stages += int64(len(rep.Sorts) + len(rep.Scans))
	st.critPathSteps += rep.CriticalPathSteps()
	st.sumSteps += rep.Rollup().SumSteps
	st.coordSteps += rep.Coordinator.Steps
	st.totalSteps += rep.TotalSteps()
	return attempts
}

// addPlan re-times the planner's choice on each sort stage's reported
// input and compares the chosen shape's predicted critical path with
// the measured one.
func (st *layerStats) addPlan(planner *plan.Planner, rep *relalg.QueryReport) {
	for _, s := range rep.Sorts {
		t0 := time.Now()
		var shape plan.Shape
		for k := 0; k < chooseReps; k++ {
			shape = planner.Choose(s.Items, s.Bytes)
		}
		st.planChooseNs += int64(time.Since(t0))
		st.planChooses += chooseReps
		st.predictedSteps += plan.PredictSort(s.Items, s.Bytes, shape).CriticalPath()
		st.measuredSteps += s.CriticalPathSteps()
	}
}
