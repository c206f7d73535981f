package core

import (
	"io"
	"sync"
	"time"

	"github.com/flashroute/flashroute/internal/simclock"
	"github.com/flashroute/flashroute/internal/trace"
)

// This file implements the sharded receive pipeline (Config.Receivers > 1).
//
// R workers each own a PacketReader handle onto the connection. A worker
// pulls raw packets, runs Family.ParseReply in parallel with its siblings,
// and then applies block-affinity dispatch: a decoded reply for block b is
// processed by worker b % R. Replies a worker parsed for a block it does
// not own are pushed onto the owner's reply ring and the owner is woken;
// replies for its own blocks it processes inline. The result is a single
// writer per DCB pass-state, per stop-set shard home, and per trace-store
// stripe, with all replies of a block applied serially by one goroutine.
//
// Termination: the engine closes the connection after the last drain;
// each reader then returns EOF once the in-flight responses are drained.
// A worker that hits EOF increments recvEOF and — if it was the last —
// wakes everyone. Because every ring push happens before the pusher's
// recvEOF increment, a drain performed after observing recvEOF == R is
// guaranteed to see the final contents of the ring.

// stopSetOf is the engine's Doubletree stop set (§3.2), sharded by
// address hash so R receive workers can insert concurrently. With a
// single shard (Receivers <= 1) all locking is elided and the map is
// touched exactly as the classic single-receiver engine did.
type stopSetOf[A comparable] struct {
	fam    Family[A]
	shards []stopShard[A]
}

type stopShard[A comparable] struct {
	mu sync.RWMutex
	m  map[A]struct{}
}

// newStopSet builds a stop set with the given shard count; hint pre-sizes
// the membership maps for roughly one interface per universe block.
func newStopSet[A comparable](fam Family[A], shards, hint int) *stopSetOf[A] {
	if shards < 1 {
		shards = 1
	}
	ss := &stopSetOf[A]{fam: fam, shards: make([]stopShard[A], shards)}
	for i := range ss.shards {
		ss.shards[i].m = make(map[A]struct{}, hint/shards)
	}
	return ss
}

func (ss *stopSetOf[A]) shardOf(a A) *stopShard[A] {
	return &ss.shards[ss.fam.HashAddr(a)%uint64(len(ss.shards))]
}

// Has reports membership. Reads dominate (one per TTL-exceeded reply), so
// sharded mode takes only the read side of the shard lock.
func (ss *stopSetOf[A]) Has(a A) bool {
	if len(ss.shards) == 1 {
		_, ok := ss.shards[0].m[a]
		return ok
	}
	sh := ss.shardOf(a)
	sh.mu.RLock()
	_, ok := sh.m[a]
	sh.mu.RUnlock()
	return ok
}

// Add inserts a into its home shard.
func (ss *stopSetOf[A]) Add(a A) {
	if len(ss.shards) == 1 {
		ss.shards[0].m[a] = struct{}{}
		return
	}
	sh := ss.shardOf(a)
	sh.mu.Lock()
	sh.m[a] = struct{}{}
	sh.mu.Unlock()
}

// ForEach visits every member under the shard read locks (checkpoint
// encoding; safe concurrently with Add, though the caller normally holds
// the checkpoint barrier that quiesces receivers anyway).
func (ss *stopSetOf[A]) ForEach(fn func(A)) {
	for i := range ss.shards {
		sh := &ss.shards[i]
		sh.mu.RLock()
		for a := range sh.m {
			fn(a)
		}
		sh.mu.RUnlock()
	}
}

// Size sums the shard cardinalities (post-scan use).
func (ss *stopSetOf[A]) Size() int {
	n := 0
	for i := range ss.shards {
		sh := &ss.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// dispatchedReply is one decoded reply in flight between receive workers.
type dispatchedReply[A comparable] struct {
	block int
	reply Reply[A]
}

// replyRing is the per-worker dispatch queue: any worker pushes, only the
// owner drains. A mutex-guarded growable ring rather than a Go channel
// because draining must never block (workers drain opportunistically
// between reads) and the steady state must not allocate — the ring grows
// to the peak in-flight burst once and is then reused.
type replyRing[A comparable] struct {
	mu   sync.Mutex
	buf  []dispatchedReply[A]
	head int
	n    int
}

func (q *replyRing[A]) push(d dispatchedReply[A]) {
	q.mu.Lock()
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = d
	q.n++
	q.mu.Unlock()
}

// grow doubles the ring (power-of-two sizes keep the index mask cheap).
// Caller holds q.mu.
func (q *replyRing[A]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 64
	}
	nb := make([]dispatchedReply[A], size)
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = nb, 0
}

// drainInto appends all queued replies to dst and empties the ring.
func (q *replyRing[A]) drainInto(dst []dispatchedReply[A]) []dispatchedReply[A] {
	q.mu.Lock()
	for ; q.n > 0; q.n-- {
		dst = append(dst, q.buf[q.head])
		q.head = (q.head + 1) & (len(q.buf) - 1)
	}
	q.head = 0
	q.mu.Unlock()
	return dst
}

// recvWorkerOf is one worker of the sharded receive pipeline.
type recvWorkerOf[A comparable] struct {
	s      *ScannerOf[A]
	idx    int
	reader PacketReader
	// parker is the worker's own blocking site for the post-EOF join;
	// while reading, the worker blocks inside the reader instead.
	parker *simclock.Parker
	// store is this worker's stripe of the striped result store.
	store *trace.StoreOf[A]

	ring    replyRing[A]
	scratch []dispatchedReply[A]
	buf     [4096]byte

	// Batched reads (Config.Batch > 1 on a BatchReader handle): ReadBatch
	// fills the worker's preallocated buffer arena bufs and the per-packet
	// lengths in sizes. All nil when unbatched.
	batch BatchReader
	bufs  [][]byte
	sizes []int
}

// wake releases the owner wherever it is blocked: inside its reader
// (waiting for packets) or on its own parker (post-EOF join). Unpark
// signals are retained, so over-waking only costs a spurious wakeup.
func (w *recvWorkerOf[A]) wake() {
	w.reader.Wake()
	w.s.clock.Unpark(w.parker)
}

// drain processes every reply currently queued for this worker.
func (w *recvWorkerOf[A]) drain() {
	w.scratch = w.ring.drainInto(w.scratch[:0])
	for i := range w.scratch {
		d := &w.scratch[i]
		w.s.processReply(w.store, d.block, &d.reply)
	}
}

// loop is the worker body: drain dispatched replies, read one packet,
// parse and dispatch it; on EOF, join the termination protocol described
// at the top of the file.
func (w *recvWorkerOf[A]) loop() {
	s := w.s
	for {
		w.drain()
		var err error
		if w.batch != nil {
			var k int
			k, err = w.batch.ReadBatch(w.bufs, w.sizes)
			if k > 0 {
				// The batch was deliverable all at once: one clock read.
				now := s.clock.Now().Sub(s.start)
				for i := 0; i < k; i++ {
					w.handlePacket(w.bufs[i][:w.sizes[i]], now)
				}
			}
			// k == 0 with a nil err is a wake interrupt (or a polling
			// transport with nothing ready); the top-of-loop drain picks
			// up whatever the wake dispatched.
		} else {
			var n int
			n, err = w.reader.ReadPacket(w.buf[:])
			if n > 0 {
				w.handlePacket(w.buf[:n], s.clock.Now().Sub(s.start))
			}
		}
		if err != nil {
			if err != io.EOF {
				s.readErrors.Add(1)
			}
			break
		}
	}

	// This reader is finished: all its pushes are visible before the
	// counter increment below. The last reader to finish wakes every
	// worker so their final drains run.
	if int(s.recvEOF.Add(1)) == len(s.recvWorkers) {
		for _, o := range s.recvWorkers {
			o.wake()
		}
	}
	for int(s.recvEOF.Load()) < len(s.recvWorkers) {
		w.drain()
		s.clock.Park(w.parker, time.Time{})
	}
	w.drain()
}

// handlePacket parses one raw response received at scan time now and
// applies block-affinity dispatch: replies for blocks this worker owns
// are processed inline, the rest are pushed to the owner's ring.
func (w *recvWorkerOf[A]) handlePacket(pkt []byte, now time.Duration) {
	s := w.s
	if block, r, ok := s.parseResponse(pkt, now); ok {
		if owner := s.recvWorkers[block%len(s.recvWorkers)]; owner != w {
			owner.ring.push(dispatchedReply[A]{block: block, reply: r})
			owner.wake()
		} else {
			s.processReply(w.store, block, &r)
		}
	}
}
