package main

// counters.go holds the benchmark's measuring seams: a tape backend
// wrapper installed through tape.Options.Wrap, and a byte-counting
// listener in front of the loopback TCP workers. Both sit outside the
// program: they observe its public seams and never change a byte it
// computes.

import (
	"net"
	"sync/atomic"
	"time"

	"extmem/internal/tape"
)

// tapeCounters accumulates what the tape backends of one phase did.
// Backends of concurrent shard machines share it, hence the atomics.
type tapeCounters struct {
	opened     atomic.Int64 // backends constructed
	cellCalls  atomic.Int64 // single-cell Cell/SetCell calls (counted, not timed)
	blockCalls atomic.Int64 // block calls (see timedBackend)
	readBytes  atomic.Int64 // cells moved by ReadAt
	writeBytes atomic.Int64 // cells moved by WriteAt
	busyNs     atomic.Int64 // estimated time inside block calls

	// setup is set while the benchmark builds a workload's inputs:
	// calls then pass uncounted, so per-op figures cover the ops alone.
	// Backends opened during set-up still count; the ops use them.
	setup atomic.Bool
}

// countWrap counts backend constructions and hands the backend back
// untouched, so the untraced run keeps the tape's unwrapped in-memory
// fast path and pays nothing per call.
func (c *tapeCounters) countWrap() tape.WrapBackend {
	return func(b tape.Backend) tape.Backend {
		c.opened.Add(1)
		return b
	}
}

// traceWrap counts constructions and block calls of the backends it
// wraps and estimates their busy time, charging it to the scope's span
// as well.
func (c *tapeCounters) traceWrap(sc *scope) tape.WrapBackend {
	return func(b tape.Backend) tape.Backend {
		n := c.opened.Add(1)
		return &timedBackend{Backend: b, c: c, sc: sc, rnd: uint32(n)*2654435761 | 1}
	}
}

// sampleEvery is the share of block calls timed: reading the clock
// costs more than a small in-page call, so timing all of them would
// double the traced run's tape time.
const sampleEvery = 16

// clockFloor is what the clock reads for an empty interval: the median
// of many back-to-back reads. It is taken off every timed call.
var clockFloor = func() time.Duration {
	d := make([]time.Duration, 1001)
	for i := range d {
		t0 := time.Now()
		d[i] = time.Since(t0)
	}
	return percentile(d, 50)
}()

// timedBackend counts the block calls (ReadAt, WriteAt, IndexByte,
// Grow, Truncate, Reset, Close) and single-cell calls of the backend it
// wraps, and times one block call in sampleEvery, scaling the time up.
// The timed calls are drawn pseudo-randomly so that the sort's strictly
// periodic access pattern (fixed-size items, fixed-size pages) cannot
// alias with the sample. IndexByte is a block call because on the file
// backend it is where a page is read in.
type timedBackend struct {
	tape.Backend
	c   *tapeCounters
	sc  *scope
	rnd uint32 // xorshift state choosing the timed calls
}

// block runs one block call.
func (b *timedBackend) block(call func()) {
	if b.c.setup.Load() {
		call()
		return
	}
	b.c.blockCalls.Add(1)
	sp := b.sc.span()
	sp.addBackendCall()
	x := b.rnd
	x ^= x << 13
	x ^= x >> 17
	x ^= x << 5
	b.rnd = x
	if x%sampleEvery != 0 {
		call()
		return
	}
	t0 := time.Now()
	call()
	d := int64(max(time.Since(t0)-clockFloor, 0)) * sampleEvery
	b.c.busyNs.Add(d)
	sp.addBackendBusy(d)
}

// add counts n on an op's counter.
func (b *timedBackend) add(counter *atomic.Int64, n int) {
	if !b.c.setup.Load() {
		counter.Add(int64(n))
	}
}

func (b *timedBackend) Cell(i int) byte {
	b.add(&b.c.cellCalls, 1)
	return b.Backend.Cell(i)
}

func (b *timedBackend) SetCell(i int, v byte) {
	b.add(&b.c.cellCalls, 1)
	b.Backend.SetCell(i, v)
}

func (b *timedBackend) ReadAt(dst []byte, off int) {
	b.add(&b.c.readBytes, len(dst))
	b.block(func() { b.Backend.ReadAt(dst, off) })
}

func (b *timedBackend) WriteAt(src []byte, off int) {
	b.add(&b.c.writeBytes, len(src))
	b.block(func() { b.Backend.WriteAt(src, off) })
}

func (b *timedBackend) IndexByte(delim byte, off int) (i int) {
	b.block(func() { i = b.Backend.IndexByte(delim, off) })
	return i
}

func (b *timedBackend) Grow(n int)     { b.block(func() { b.Backend.Grow(n) }) }
func (b *timedBackend) Truncate(n int) { b.block(func() { b.Backend.Truncate(n) }) }
func (b *timedBackend) Reset()         { b.block(b.Backend.Reset) }

func (b *timedBackend) Close() (err error) {
	b.block(func() { err = b.Backend.Close() })
	return err
}

// wireCounters accumulates the loopback workers' side of every TCP
// connection: connections accepted, bytes read (handshake and job
// frames) and bytes written (handshake and reply frames).
type wireCounters struct {
	conns    atomic.Int64
	jobBytes atomic.Int64
	repBytes atomic.Int64
}

// countingListener counts every connection it accepts and the bytes
// that cross it.
type countingListener struct {
	net.Listener
	c *wireCounters
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.c.conns.Add(1)
	return &countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *wireCounters
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.jobBytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.repBytes.Add(int64(n))
	return n, err
}
