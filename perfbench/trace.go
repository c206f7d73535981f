package main

import (
	"errors"
	"sync/atomic"
	"time"

	flashroute "github.com/flashroute/flashroute"
	"github.com/flashroute/flashroute/internal/simclock"
)

// The traced run times the calls the engine makes into the simulator's
// PacketConn and Clock by handing the engine wrappers of both. Spans
// are not stored one by one: each wrapper sums counts and busy time in
// atomics, which is all the per-layer metrics need.

// batchWriter and batchReader are the engine's optional batch I/O
// capabilities (core.BatchWriter / core.BatchReader), which the engine
// detects by interface assertion.
type batchWriter interface {
	WriteBatch(pkts [][]byte) (int, error)
}

type batchReader interface {
	ReadBatch(bufs [][]byte, sizes []int) (int, error)
}

// connStats are the transport layer's counts and busy times.
type connStats struct {
	writeCalls, writePkts, writeNs atomic.Int64
	readCalls, readPkts, readNs    atomic.Int64
}

// tracedConn wraps a PacketConn that supports batch I/O in both
// directions and forwards both capabilities, so a traced scan takes the
// same batched data path as an untraced one. It is not a *netsim.Conn,
// so the engine cannot hand per-worker readers to Receivers > 1: traced
// scans keep one receiver.
type tracedConn struct {
	inner flashroute.PacketConn
	bw    batchWriter
	br    batchReader
	st    *connStats
}

func newTracedConn(inner flashroute.PacketConn, st *connStats) (*tracedConn, error) {
	bw, ok1 := inner.(batchWriter)
	br, ok2 := inner.(batchReader)
	if !ok1 || !ok2 {
		return nil, errors.New("traced conn: transport lacks batch I/O")
	}
	return &tracedConn{inner: inner, bw: bw, br: br, st: st}, nil
}

func (c *tracedConn) WritePacket(pkt []byte) error {
	t0 := time.Now()
	err := c.inner.WritePacket(pkt)
	c.st.writeCalls.Add(1)
	c.st.writePkts.Add(1)
	c.st.writeNs.Add(int64(time.Since(t0)))
	return err
}

func (c *tracedConn) WriteBatch(pkts [][]byte) (int, error) {
	t0 := time.Now()
	n, err := c.bw.WriteBatch(pkts)
	c.st.writeCalls.Add(1)
	c.st.writePkts.Add(int64(n))
	c.st.writeNs.Add(int64(time.Since(t0)))
	return n, err
}

func (c *tracedConn) ReadPacket(buf []byte) (int, error) {
	t0 := time.Now()
	n, err := c.inner.ReadPacket(buf)
	c.st.readCalls.Add(1)
	if err == nil {
		c.st.readPkts.Add(1)
	}
	c.st.readNs.Add(int64(time.Since(t0)))
	return n, err
}

func (c *tracedConn) ReadBatch(bufs [][]byte, sizes []int) (int, error) {
	t0 := time.Now()
	n, err := c.br.ReadBatch(bufs, sizes)
	c.st.readCalls.Add(1)
	c.st.readPkts.Add(int64(n))
	c.st.readNs.Add(int64(time.Since(t0)))
	return n, err
}

func (c *tracedConn) Close() error { return c.inner.Close() }

// clockStats are the clock layer's counts and wait times.
type clockStats struct {
	nowCalls            atomic.Int64
	sleepCalls, sleepNs atomic.Int64
	parkCalls, parkNs   atomic.Int64
}

// tracedClock wraps the engine's Clock, forwarding every Waiter method.
// Now is only counted: it is called per probe and timing it would cost
// more than the call.
type tracedClock struct {
	inner flashroute.Clock
	st    *clockStats
}

var _ flashroute.Clock = (*tracedClock)(nil)

func (c *tracedClock) Now() time.Time {
	c.st.nowCalls.Add(1)
	return c.inner.Now()
}

func (c *tracedClock) Sleep(d time.Duration) {
	t0 := time.Now()
	c.inner.Sleep(d)
	c.st.sleepCalls.Add(1)
	c.st.sleepNs.Add(int64(time.Since(t0)))
}

func (c *tracedClock) AddActor()                   { c.inner.AddActor() }
func (c *tracedClock) DoneActor()                  { c.inner.DoneActor() }
func (c *tracedClock) NewParker() *simclock.Parker { return c.inner.NewParker() }
func (c *tracedClock) Unpark(p *simclock.Parker)   { c.inner.Unpark(p) }

func (c *tracedClock) Park(p *simclock.Parker, deadline time.Time) bool {
	t0 := time.Now()
	ok := c.inner.Park(p, deadline)
	c.st.parkCalls.Add(1)
	c.st.parkNs.Add(int64(time.Since(t0)))
	return ok
}

// probeWindow records when the first and last probes went out, in scan
// time, through Config.Observer. The engine serializes Observer calls
// (one sender, or its observer lock with several), so plain fields do.
type probeWindow struct {
	n           uint64
	first, last time.Duration
}

func (w *probeWindow) observe(_ uint32, _ uint8, at time.Duration) {
	if w.n == 0 || at < w.first {
		w.first = at
	}
	if at > w.last {
		w.last = at
	}
	w.n++
}
