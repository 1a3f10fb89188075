package main

// decide.go is the decide-tcp workload: Las Vegas SET-EQUALITY on mem
// storage against two loopback TCP workers. An 8-repetition
// fingerprint fleet runs first over TCP; its error is one-sided
// (Theorem 8a), so a Reject is final. An Accept is confirmed by the
// sharded sort-based EqualSet, whose shard sorts also run on the
// workers. The transport, the trial fleet and mem-path allocation do
// the work; no file I/O happens.

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"

	"extmem/internal/algorithms"
	"extmem/internal/core"
	"extmem/internal/problems"
	"extmem/internal/relalg"
	"extmem/internal/shard"
	"extmem/internal/tape"
	"extmem/internal/transport"
	"extmem/internal/trials"
)

const (
	decideShards = 2 // fleet shards, confirmation shards and workers
	repetitions  = 8 // fingerprint repetitions per decision
	yesEvery     = 4 // one yes-instance in four
)

type decideWorkload struct {
	b *bench

	tcp  *transport.TCP
	stop func()

	encs  [][]byte
	dbs   []relalg.DB
	truth []bool // problems.SetEquality per instance
}

func (w *decideWorkload) loop() loopShape { return loopShape{minOps: w.b.sc.minSamples} }

func (w *decideWorkload) inputs() map[string]any {
	return map[string]any{
		"instances": poolSize, "yes_instances": poolSize / yesEvery, "values_per_side": w.b.sc.setM,
		"value_bits": itemBits, "bytes_per_instance": len(w.encs[0]), "storage": "mem",
		"workers": decideShards, "repetitions": repetitions,
	}
}

// startWorkers hosts n loopback TCP workers in this process, the way
// transport.LocalWorkers does, behind listeners that count connections
// and bytes.
func startWorkers(n int, c *wireCounters) (*transport.TCP, func(), error) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	stop := func() {
		cancel()
		wg.Wait()
	}
	var addrs []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stop()
			return nil, nil, err
		}
		addrs = append(addrs, ln.Addr().String())
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := transport.Serve(ctx, countingListener{Listener: ln, c: c}, os.Stderr); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: worker:", err)
			}
		}()
	}
	return &transport.TCP{Workers: addrs, DialTimeout: 5 * time.Second}, stop, nil
}

// prepare starts the workers and generates the seed's instances with
// their true answers.
func (w *decideWorkload) prepare(*phase) error {
	w.close()
	tcp, stop, err := startWorkers(decideShards, &w.b.wire)
	if err != nil {
		return fmt.Errorf("starting workers: %w", err)
	}
	w.tcp, w.stop = tcp, stop
	rng := rand.New(rand.NewSource(w.b.cfg.seed))
	w.encs, w.dbs, w.truth = nil, nil, nil
	for i := 0; i < poolSize; i++ {
		in := genSet(rng, w.b.sc.setM, i%yesEvery == 0)
		w.encs = append(w.encs, in.Encode())
		w.dbs = append(w.dbs, relalg.InstanceDB(in))
		w.truth = append(w.truth, problems.SetEquality(in))
	}
	return nil
}

// launcher builds the fleet exactly as TCP.Launch does, with the
// attempt traced in the traced phase.
func (w *decideWorkload) launcher(p *phase, op int64, parent *span) trials.Launcher {
	attempt := w.tcp.Attempt()
	if p.tr != nil {
		attempt = p.fleetAttempt(op, parent, attempt)
	}
	return func(n int, seed int64, onResult func(trials.Result)) trials.Runner {
		return shard.Fleet{
			Plan:     shard.Plan{Shards: decideShards, Trials: n},
			Parallel: 1,
			Seed:     seed,
			OnResult: onResult,
			Attempt:  attempt,
		}
	}
}

// op decides instance op mod poolSize and compares the verdict with
// problems.SetEquality.
func (w *decideWorkload) op(ctx context.Context, p *phase, op int64) (opRecord, error) {
	i := int(op % poolSize)
	root := p.tr.begin(op, nil, "bench.op")
	defer p.tr.end(root)
	var counts exactCounts

	t0 := time.Now()
	fs := p.tr.begin(op, root, "algorithms.FingerprintRepeatedFleet")
	v, sum, err := algorithms.FingerprintRepeatedFleet(ctx, w.encs[i], repetitions,
		w.launcher(p, op, fs), w.b.cfg.seed+int64(i))
	p.tr.end(fs)
	if err != nil {
		return opRecord{}, fmt.Errorf("fingerprint fleet on instance %d: %w", i, err)
	}
	fleetTasks := int64(min(decideShards, repetitions))
	counts.ShardAttempts = fleetTasks + int64(sum.Retries+sum.Fallbacks)
	p.st.shardTasks += fleetTasks
	p.st.shardAttempts += counts.ShardAttempts
	p.st.shardFallbacks += int64(sum.Fallbacks)
	p.st.trials += int64(sum.Trials)

	verdict := false
	if v == core.Accept {
		if !w.truth[i] {
			counts.FalseAccepts = 1
			p.st.falseAccepts++
		}
		es := p.tr.begin(op, root, "relalg.EqualSet")
		opts := tape.Options{Wrap: p.wrap(spanScope(es))}
		var rep relalg.QueryReport
		ev := relalg.Evaluator{Shards: decideShards, Seed: w.b.cfg.seed, TapeOpts: opts, Report: &rep,
			Exec: w.tcp.Exec(), ExecScan: w.tcp.ExecScan()}
		if p.tr != nil {
			ev.Exec = p.sortExec(op, es, ev.Exec)
			ev.ExecScan = p.scanExec(op, es, ev.ExecScan)
		}
		opened := p.tape.opened.Load()
		m := core.NewMachineOpts(relalg.NumQueryTapes, w.b.cfg.seed, opts)
		verdict, err = ev.EqualSet(ctx, m, w.dbs[i]["R1"], w.dbs[i]["R2"])
		rep.Coordinator = m.Resources()
		cerr := m.Close()
		p.tr.end(es)
		if err != nil {
			return opRecord{}, fmt.Errorf("EqualSet on instance %d: %w", i, err)
		}
		if cerr != nil {
			return opRecord{}, fmt.Errorf("closing the confirmation machine: %w", cerr)
		}
		counts.ShardAttempts += p.st.addQuery(&rep)
		counts.RelalgSteps = rep.TotalSteps()
		counts.BackendsOpened = p.tape.opened.Load() - opened
	}
	lat := time.Since(t0)

	if w.b.cfg.corrupt {
		verdict = !verdict
	}
	if verdict != w.truth[i] {
		return opRecord{}, fmt.Errorf("instance %d: verdict %t, SET-EQUALITY says %t", i, verdict, w.truth[i])
	}
	return opRecord{instance: i, latency: lat, bytes: int64(len(w.encs[i])), counts: counts}, nil
}

// close stops the workers and waits for them to exit.
func (w *decideWorkload) close() {
	if w.stop != nil {
		w.stop()
		w.stop = nil
	}
}
