package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"
)

// workload is one of the benchmark's three operation streams.
type workload interface {
	// loop is how the workload's closed loop runs.
	loop() loopShape
	// prepare builds the inputs and their reference answers.
	prepare(p *phase) error
	// op runs operation op through the layers and checks its output.
	op(ctx context.Context, p *phase, op int64) (opRecord, error)
	// inputs describes the input sizes for the env record.
	inputs() map[string]any
	// close releases what prepare holds.
	close()
}

// loopShape is how a workload's closed loop runs.
type loopShape struct {
	// perOpSetup says every op consumes its inputs, so set-up runs
	// before each op instead of setupRuns times up front.
	perOpSetup bool
	// minOps is how many ops a phase runs even past its deadline.
	minOps int
}

// exactCounts are the quantities that must repeat exactly for an
// instance: across its ops, between the untraced and traced phases,
// and across runs of one seed.
type exactCounts struct {
	SortSteps      int64 `json:"sort_steps"`
	ShardAttempts  int64 `json:"shard_attempts"`
	RelalgSteps    int64 `json:"relalg_total_steps"`
	BackendsOpened int64 `json:"backends_opened"`
	FalseAccepts   int64 `json:"false_accepts"`
}

// opRecord is what one successful op reports.
type opRecord struct {
	instance int
	latency  time.Duration // time inside the layer calls
	bytes    int64         // input bytes the op processed
	counts   exactCounts
}

// layerStats sums the layers' census over a phase's ops.
type layerStats struct {
	sorts, sortScans, sortSteps, sortPeakMemBits int64

	trials, falseAccepts int64

	shardTasks, shardAttempts, shardFallbacks int64
	critPathSteps, sumSteps                   int64

	stages, coordSteps, totalSteps int64

	planChooses, planChooseNs, predictedSteps, measuredSteps int64

	writeBlockBytes, writeBlockNs, readBlockBytes, readBlockNs int64

	transportFailed atomic.Int64 // failed round trips, seen by concurrent shard attempts
}

// phase is one measured pass: untraced (tr == nil) or traced.
type phase struct {
	tr   *tracer
	tape tapeCounters
	st   layerStats

	lat         []time.Duration // latencies of the successful ops
	ops, failed int
	bytes       int64

	allocs, allocBytes, gcs   uint64 // runtime.MemStats deltas
	conns, jobBytes, repBytes int64  // loopback worker wire deltas

	err error // a set-up failure: the run cannot go on
}

// bench is one invocation's state shared by its phases.
type bench struct {
	cfg   config
	sc    scale
	spill string // this run's spill directory
	build string // exeDigest of the running binary
	w     workload
	wire  wireCounters

	setups []time.Duration
	seen   map[int]exactCounts // counts first seen per instance
}

// setup times one prepare.
func (b *bench) setup(p *phase) error {
	p.tape.setup.Store(true)
	defer p.tape.setup.Store(false)
	t0 := time.Now()
	if err := b.w.prepare(p); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	b.setups = append(b.setups, time.Since(t0))
	return nil
}

// measure runs ops for d (and at least the scale's minimum) in one
// closed loop with a single client.
func (b *bench) measure(ctx context.Context, tr *tracer, d time.Duration) *phase {
	p := &phase{tr: tr}
	shape := b.w.loop()
	if !shape.perOpSetup && len(b.setups) == 0 {
		for k := 0; k < setupRuns; k++ {
			if p.err = b.setup(p); p.err != nil {
				return p
			}
		}
	}
	conns, jobBytes, repBytes := b.wire.conns.Load(), b.wire.jobBytes.Load(), b.wire.repBytes.Load()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	deadline := time.Now().Add(d)
	for i := int64(0); p.ops < shape.minOps || time.Now().Before(deadline); i++ {
		if ctx.Err() != nil {
			p.err = fmt.Errorf("run exceeded its time limit after %d ops", p.ops)
			return p
		}
		if shape.perOpSetup {
			if p.err = b.setup(p); p.err != nil {
				return p
			}
		}
		p.ops++
		rec, err := b.op(ctx, p, i)
		if err == nil {
			err = b.spillEmpty()
		}
		if err == nil {
			err = b.repeat(rec)
		}
		if err != nil {
			p.failed++
			fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, err)
			continue
		}
		p.lat = append(p.lat, rec.latency)
		p.bytes += rec.bytes
	}
	runtime.ReadMemStats(&m1)
	p.allocs = m1.Mallocs - m0.Mallocs
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcs = uint64(m1.NumGC - m0.NumGC)
	p.conns = b.wire.conns.Load() - conns
	p.jobBytes = b.wire.jobBytes.Load() - jobBytes
	p.repBytes = b.wire.repBytes.Load() - repBytes
	return p
}

// op runs one op, reporting a panic in the layers as its failure.
func (b *bench) op(ctx context.Context, p *phase, i int64) (rec opRecord, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	return b.w.op(ctx, p, i)
}

// spillEmpty checks spill hygiene: file tapes unlink their spill files
// at creation, so the directory must be empty between ops.
func (b *bench) spillEmpty() error {
	entries, err := os.ReadDir(b.spill)
	if err != nil {
		return err
	}
	if len(entries) > 0 {
		return fmt.Errorf("spill directory holds %d entries, first %q", len(entries), entries[0].Name())
	}
	return nil
}

// repeat checks that the op's exact counts equal those of every
// earlier op on the same instance.
func (b *bench) repeat(rec opRecord) error {
	if prev, ok := b.seen[rec.instance]; ok && prev != rec.counts {
		return fmt.Errorf("instance %d: exact counts %+v, earlier %+v", rec.instance, rec.counts, prev)
	}
	b.seen[rec.instance] = rec.counts
	return nil
}
