package main

// seams.go wraps the shard layer's execution seams for the traced
// phase. Each wrapper opens a shard-attempt span and, when the attempt
// crosses a transport, a round-trip span inside it. In-process attempts
// run job.Execute(), exactly what the shard layer runs when no seam is
// set, with the job's tapes charged to the attempt span.

import (
	"context"

	"extmem/internal/core"
	"extmem/internal/relalg"
	"extmem/internal/shard"
	"extmem/internal/tape"
	"extmem/internal/trials"
)

// wrap is the phase's tape wrapper for backends charged to sc.
func (p *phase) wrap(sc *scope) tape.WrapBackend {
	if p.tr == nil {
		return p.tape.countWrap()
	}
	return p.tape.traceWrap(sc)
}

// spanScope is a scope fixed on one span.
func spanScope(s *span) *scope {
	sc := &scope{}
	sc.set(s)
	return sc
}

// roundTrip times one call into a transport under the attempt span and
// counts its failure.
func (p *phase) roundTrip(op int64, attempt *span, name string, call func() error) error {
	rt := p.tr.begin(op, attempt, name)
	err := call()
	p.tr.end(rt)
	if err != nil {
		p.st.transportFailed.Add(1)
	}
	return err
}

// sortExec traces sort attempts; remote nil runs them in process.
func (p *phase) sortExec(op int64, parent *span, remote shard.ExecFunc) shard.ExecFunc {
	return func(ctx context.Context, sh, attempt int, job shard.SortJob) (out []byte, res core.Resources, err error) {
		sp := p.tr.begin(op, parent, "shard.sort_attempt")
		defer p.tr.end(sp)
		if remote == nil {
			job.Tape.Wrap = p.tape.traceWrap(spanScope(sp))
			return job.Execute()
		}
		err = p.roundTrip(op, sp, "transport.exec", func() error {
			out, res, err = remote(ctx, sh, attempt, job)
			return err
		})
		return out, res, err
	}
}

// scanExec traces operator-scan attempts; remote nil runs them in
// process.
func (p *phase) scanExec(op int64, parent *span, remote relalg.ScanExecFunc) relalg.ScanExecFunc {
	return func(ctx context.Context, sh, attempt int, job relalg.ScanJob) (out []byte, res core.Resources, err error) {
		sp := p.tr.begin(op, parent, "shard.scan_attempt")
		defer p.tr.end(sp)
		if remote == nil {
			job.Tape.Wrap = p.tape.traceWrap(spanScope(sp))
			return job.Execute()
		}
		err = p.roundTrip(op, sp, "transport.scan_exec", func() error {
			out, res, err = remote(ctx, sh, attempt, job)
			return err
		})
		return out, res, err
	}
}

// fleetAttempt traces trial-fleet attempts over a transport.
func (p *phase) fleetAttempt(op int64, parent *span, remote shard.AttemptFunc) shard.AttemptFunc {
	return func(ctx context.Context, sh, attempt int, eng trials.Engine, fn trials.Func) (rs []trials.Result, err error) {
		sp := p.tr.begin(op, parent, "shard.fleet_attempt")
		defer p.tr.end(sp)
		err = p.roundTrip(op, sp, "transport.attempt", func() error {
			rs, err = remote(ctx, sh, attempt, eng, fn)
			return err
		})
		return rs, err
	}
}
