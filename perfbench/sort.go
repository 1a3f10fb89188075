package main

// sort.go is the sort-outofcore workload: a multiset of 31-bit items
// is written with Tape.WriteBlock onto a file-backed tape and sorted
// out of core by the fan-in-8 k-way engine on a 10-tape machine (the
// nightly 1 GiB shape, scaled down). Tape I/O and the merge do all the
// work; no shard, transport, query or planner code runs.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"extmem/internal/algorithms"
	"extmem/internal/core"
	"extmem/internal/tape"
)

const (
	sortTapes  = 10
	sortFanIn  = 8
	chunkBytes = 1 << 20 // WriteBlock/ReadBlock granularity
	itemBytes  = itemBits + 1
)

type sortWorkload struct {
	b *bench

	// The prepared input: a machine holding it on tape 0, the scope its
	// backends charge to, and the reference count and checksum.
	m        *core.Machine
	sc       *scope
	openedAt int64 // tape backends opened before the machine was built
	count    int
	checksum uint64
}

// loop: a sort takes seconds, so a phase runs as many as fit.
func (w *sortWorkload) loop() loopShape { return loopShape{perOpSetup: true, minOps: 1} }

func (w *sortWorkload) inputs() map[string]any {
	return map[string]any{
		"items": w.b.sc.sortItems, "item_bits": itemBits, "bytes": w.b.sc.sortItems * itemBytes,
		"fan_in": sortFanIn, "run_memory_bits": w.b.sc.sortRunBits, "tapes": sortTapes, "storage": "file",
	}
}

// mix is the splitmix64 finalizer; the sum of mix over the items is
// an order-independent checksum of the multiset.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// prepare generates the seed's multiset onto tape 0 of a fresh
// file-backed machine, in WriteBlock chunks, the way the nightly
// benchmark does.
func (w *sortWorkload) prepare(p *phase) error {
	w.openedAt = p.tape.opened.Load()
	w.sc = &scope{}
	opts := tape.Options{Storage: tape.File, SpillDir: w.b.spill, Wrap: p.wrap(w.sc)}
	m := core.NewMachineOpts(sortTapes, 1, opts)
	in := m.Tape(0)
	rng := rand.New(rand.NewSource(w.b.cfg.seed))
	buf := make([]byte, 0, chunkBytes)
	w.count, w.checksum = 0, 0
	for i := 0; i < w.b.sc.sortItems; i++ {
		v := rng.Int63() & (1<<itemBits - 1)
		for j := itemBits - 1; j >= 0; j-- {
			buf = append(buf, byte('0'+(v>>j)&1))
		}
		buf = append(buf, '#')
		w.count++
		w.checksum += mix(uint64(v))
		if len(buf)+itemBytes > cap(buf) || i == w.b.sc.sortItems-1 {
			t0 := time.Now()
			err := in.WriteBlock(buf)
			p.st.writeBlockNs += int64(time.Since(t0))
			p.st.writeBlockBytes += int64(len(buf))
			if err != nil {
				m.Close()
				return err
			}
			buf = buf[:0]
		}
	}
	if err := in.Rewind(); err != nil {
		m.Close()
		return err
	}
	w.m = m
	return nil
}

// op sorts the prepared input onto tape 1 and checks the output in one
// ReadBlock sweep.
func (w *sortWorkload) op(ctx context.Context, p *phase, op int64) (opRecord, error) {
	m := w.m
	w.m = nil
	defer m.Close() // a no-op after the checked Close below
	root := p.tr.begin(op, nil, "bench.op")
	defer p.tr.end(root)

	sp := p.tr.begin(op, root, "algorithms.SortToTape")
	w.sc.set(sp)
	s := algorithms.Sorter{FanIn: sortFanIn, RunMemoryBits: w.b.sc.sortRunBits}
	t0 := time.Now()
	err := s.SortToTape(m, 1, algorithms.WorkTapes(m, 1))
	lat := time.Since(t0)
	p.tr.end(sp)
	if err != nil {
		return opRecord{}, fmt.Errorf("sort: %w", err)
	}
	res := m.Resources()

	rs := p.tr.begin(op, root, "bench.check")
	w.sc.set(rs)
	err = w.check(p, m.Tape(1))
	p.tr.end(rs)
	w.sc.set(root)
	if err != nil {
		return opRecord{}, err
	}
	if err := m.Close(); err != nil {
		return opRecord{}, fmt.Errorf("closing the sort machine: %w", err)
	}

	p.st.sorts++
	p.st.sortScans += int64(res.Scans())
	p.st.sortSteps += res.Steps
	p.st.sortPeakMemBits += res.PeakMemoryBits
	return opRecord{
		latency: lat,
		bytes:   int64(w.count * itemBytes),
		counts: exactCounts{
			SortSteps:      res.Steps,
			BackendsOpened: p.tape.opened.Load() - w.openedAt,
		},
	}, nil
}

// check sweeps the output with ReadBlock: it must be nondecreasing
// and hold the input's item count and checksum.
func (w *sortWorkload) check(p *phase, t *tape.Tape) error {
	if err := t.Rewind(); err != nil {
		return err
	}
	n := t.Len()
	item := make([]byte, 0, itemBytes)
	prev := make([]byte, 0, itemBytes)
	count, checksum := 0, uint64(0)
	for off := 0; off < n; {
		t0 := time.Now()
		blk, err := t.ReadBlock(min(chunkBytes, n-off))
		p.st.readBlockNs += int64(time.Since(t0))
		if err != nil {
			return err
		}
		p.st.readBlockBytes += int64(len(blk))
		if w.b.cfg.corrupt && off == 0 {
			blk[0] ^= 1 // '0' <-> '1'
		}
		off += len(blk)
		for _, c := range blk {
			if c != '#' {
				item = append(item, c)
				continue
			}
			var v uint64
			for _, bit := range item {
				if bit != '0' && bit != '1' {
					return fmt.Errorf("output item %d: symbol %q", count, bit)
				}
				v = v<<1 | uint64(bit-'0')
			}
			if len(item) != itemBits {
				return fmt.Errorf("output item %d: %d bits, want %d", count, len(item), itemBits)
			}
			if bytes.Compare(item, prev) < 0 {
				return fmt.Errorf("output item %d is smaller than its predecessor", count)
			}
			prev = append(prev[:0], item...)
			item = item[:0]
			count++
			checksum += mix(v)
		}
	}
	if len(item) > 0 {
		return fmt.Errorf("output ends in an unterminated item")
	}
	if count != w.count || checksum != w.checksum {
		return fmt.Errorf("output holds %d items (checksum %#x), input %d (checksum %#x)",
			count, checksum, w.count, w.checksum)
	}
	return nil
}

func (w *sortWorkload) close() {
	if w.m != nil {
		w.m.Close()
	}
}
