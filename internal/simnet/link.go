package simnet

import (
	"errors"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/flashroute/flashroute/internal/simclock"
)

// ErrClosed is returned by writes on a closed Conn.
var ErrClosed = errors.New("simnet: connection closed")

// Stats counts what the network saw. All fields are updated atomically and
// may be read during a scan.
type Stats struct {
	ProbesSent     atomic.Uint64 // packets written
	RateLimited    atomic.Uint64 // ICMP responses suppressed by rate limits
	SilentHops     atomic.Uint64 // probes expiring at persistently silent routers
	NoRoute        atomic.Uint64 // probes falling off route ends
	DestSilent     atomic.Uint64 // probes reaching hosts that don't answer this type
	MalformedSends atomic.Uint64 // unparseable or unanswerable probe packets

	// Responses plus the impairment-layer counters (all impairment
	// counters zero on a perfect network).
	DeliveryStats
}

// Outcome is what a probe met in the topology, as far as the link's
// delivery and accounting are concerned.
type Outcome uint8

const (
	// FateReply: a responder answers; the Fate carries the reply.
	FateReply Outcome = iota
	// FateExpired: the probe left with no hop budget and dies at the
	// sender — no impairment draw, no counter beyond ProbesSent.
	FateExpired
	// FateNoRoute: the probe fell off the end of a route.
	FateNoRoute
	// FateSilentHop: the probe expired at a router that never answers.
	FateSilentHop
	// FateDestSilent: the probe reached a host that does not answer it.
	FateDestSilent
	// FateMalformed: a well-formed packet nothing answers (an ICMP type
	// other than echo request), counted once as a malformed send.
	FateMalformed
)

// Fate is a wire adapter's verdict on one probe packet. Only the Outcome
// is meaningful unless it is FateReply.
type Fate[A comparable, P any] struct {
	Outcome   Outcome
	Responder A             // whose ICMP budget the reply debits
	ICMP      bool          // the reply is ICMP, so the responder's rate limit applies
	RTT       time.Duration // from the write to the reply's delivery
	Reply     P             // rendered into bytes by Wire.Materialize at read time
}

// Wire is the address-family half of a Link: it decodes probe packets,
// resolves them against a topology, and renders scheduled replies back
// into wire bytes. Probe must be a pure function of its arguments (the
// link may resolve a probe the impairment layer then drops).
type Wire[A comparable, P any] interface {
	// Probe decodes pkt and resolves it entering the topology at vantage
	// at network time now. Malformed input returns an error.
	Probe(pkt []byte, vantage int, now time.Duration) (Fate[A, P], error)
	// Materialize renders reply into buf and returns its length.
	Materialize(buf []byte, reply P) int
}

// Link is a simulated network bound to a clock: it delivers the replies
// its Wire resolves after their modeled RTT, applying per-responder ICMP
// rate limiting, the impairment model and transport-fault windows. One
// Link serves any number of concurrently probing connections (stats are
// atomic, rate-limit buckets sharded, inboxes per connection).
type Link[A comparable, P any] struct {
	wire  Wire[A, P]
	clock simclock.Waiter
	epoch time.Time
	seed  int64

	// limit and impair point into the family topology's parameters and
	// are read on every write, so a built network can be retuned in place.
	limit  *int
	impair *Impairments

	Stats Stats

	buckets *Buckets[A]
}

// NewLink creates a link over wire, driven by clock. The clock's current
// time becomes the network epoch (time zero for route dynamics, fault
// windows and rate-limit windows). shardOf spreads responder addresses
// over the rate-limit bucket shards (see NewBuckets); *limit is the
// per-responder ICMP budget in packets per second (<= 0 disables it);
// seed seeds each connection's impairment stream.
func NewLink[A comparable, P any](clock simclock.Waiter, wire Wire[A, P], shardOf func(A) uint32,
	seed int64, limit *int, impair *Impairments) *Link[A, P] {
	return &Link[A, P]{
		wire:    wire,
		clock:   clock,
		epoch:   clock.Now(),
		seed:    seed,
		limit:   limit,
		impair:  impair,
		buckets: NewBuckets[A](shardOf),
	}
}

// Elapsed returns time since the network epoch.
func (l *Link[A, P]) Elapsed() time.Duration { return l.clock.Now().Sub(l.epoch) }

// AllowICMP consumes one unit of the responder's ICMP budget for the
// current one-second window and reports whether the response may be sent
// (fixed-window limit per interface).
func (l *Link[A, P]) AllowICMP(addr A, now time.Duration) bool {
	return l.buckets.Allow(addr, *l.limit, now)
}

// Conn is a raw-socket-like connection from a vantage point into the
// simulated network. Any number of goroutines may write concurrently —
// single packets or batches, with no writer lock between them — while
// another reads: the decoupled sender/receiver design of the paper
// (§3.2), with each sender shard writing the shared connection.
type Conn[A comparable, P any] struct {
	link *Link[A, P]
	// vantage selects the ingress path probes take into the topology: 0 is
	// the classic vantage point, higher values are cluster workers with a
	// private first hop. Replies route back by connection.
	vantage int
	imp     *ImpairState // nil unless impairments are enabled
	inbox   *Inbox[P]

	// base is the Conn-level reader, of which the contract allows exactly
	// one goroutine.
	base Reader[A, P]
}

// NewConn opens a connection sourced at the vantage point.
func (l *Link[A, P]) NewConn() *Conn[A, P] {
	return l.NewVantageConn(0)
}

// NewVantageConn opens a connection entering the topology at vantage v
// (v == 0 is NewConn exactly).
func (l *Link[A, P]) NewVantageConn(v int) *Conn[A, P] {
	c := &Conn[A, P]{link: l, vantage: v, inbox: NewInbox[P](l.clock, l.epoch)}
	c.base = Reader[A, P]{c: c, parker: c.inbox.parker}
	if l.impair.Enabled() {
		c.imp = NewImpairState(l.seed)
	}
	return c
}

// WritePacket injects one serialized probe packet into the network. The
// write itself never blocks; the response (if any) is scheduled for
// delivery after the modeled RTT.
func (c *Conn[A, P]) WritePacket(pkt []byte) error {
	var buf [2]Pending[P] // a probe elicits at most two replies (one duplicate)
	stage, err := c.write1(pkt, c.link.Elapsed(), buf[:0])
	if !c.commit(stage) {
		return ErrClosed
	}
	return err
}

// stageBatch is how many packets WriteBatch can always stage before an
// inbox commit: the engine's default arena size, so a default batch
// commits once.
const stageBatch = 32

// WriteBatch injects pkts in order (sendmmsg shape). It returns the
// number of packets consumed; a non-nil error with n < len(pkts) means
// pkts[n] failed — per-packet fault semantics, exactly as the equivalent
// WritePacket would have failed — and packets after it were not
// attempted. Responses are staged in an array on the caller's stack and
// committed to the inbox under one lock with one reader wakeup each time
// the array fills (every stageBatch packets or more) and once at the end.
// Concurrent callers do not serialize: each resolves its own packets in
// parallel. Per-packet impairment and fault draws happen in write order
// within one call, so a batched write sequence consumes the RNG
// identically to the unbatched one; across concurrent callers they
// interleave, as concurrent WritePacket draws do.
//
// The call ends with a yield, as a real sendmmsg enters the kernel: an
// unthrottled sender that never blocks would otherwise keep its CPU from
// the receiver, which then falls behind and lets the inbox grow.
func (c *Conn[A, P]) WriteBatch(pkts [][]byte) (n int, err error) {
	l := c.link
	// One clock read covers the whole batch: on the virtual clock no time
	// can pass while the writer runs, and fault windows — the only
	// behavior where sub-batch timing matters — re-read the clock below.
	now := l.Elapsed()
	faults := l.impair.HasFaults()
	var buf [2 * stageBatch]Pending[P] // a probe stages at most two replies
	stage, open := buf[:0], true
	for n < len(pkts) {
		if len(stage) > len(buf)-2 {
			open = c.commit(stage) && open
			stage = buf[:0]
		}
		pktNow := now
		if faults {
			pktNow = l.Elapsed() // a window edge may split the batch on a real clock
		}
		if stage, err = c.write1(pkts[n], pktNow, stage); err != nil {
			break
		}
		n++
	}
	if !c.commit(stage) || !open {
		err = ErrClosed
	}
	runtime.Gosched()
	return n, err
}

// write1 is the full per-packet write path at instant now. It appends the
// responses the packet elicits to stage, for the caller to commit.
func (c *Conn[A, P]) write1(pkt []byte, now time.Duration, stage []Pending[P]) ([]Pending[P], error) {
	l := c.link
	st := &l.Stats

	// Transport-fault windows: a faulted write fails before the probe
	// enters the network at all — not counted as sent, no impairment
	// draws consumed, so zero-fault runs are bit-identical.
	if l.impair.HasFaults() && l.impair.WriteFault(now, c.vantage) {
		st.WriteFaults.Add(1)
		return stage, &TransientError{Op: "write"}
	}

	st.ProbesSent.Add(1)
	f, err := l.wire.Probe(pkt, c.vantage, now)
	if err != nil {
		st.MalformedSends.Add(1)
		return stage, err
	}
	if f.Outcome == FateExpired {
		return stage, nil
	}

	// Outbound impairments: a lost probe never reaches a hop (no counter
	// beyond ProbesLost, no rate-limit debit); a duplicated probe
	// traverses the network twice.
	copies := 1
	if c.imp != nil {
		copies = c.imp.ProbeFate(l.impair)
		if copies == 0 {
			st.ProbesLost.Add(1)
			return stage, nil
		}
		if copies == 2 {
			st.Duplicates.Add(1)
		}
	}

	switch f.Outcome {
	case FateNoRoute:
		st.NoRoute.Add(uint64(copies))
		return stage, nil
	case FateSilentHop:
		st.SilentHops.Add(uint64(copies))
		return stage, nil
	case FateDestSilent:
		st.DestSilent.Add(uint64(copies))
		return stage, nil
	case FateMalformed:
		st.MalformedSends.Add(1)
		return stage, nil
	}

	at := now + f.RTT
	for i := 0; i < copies; i++ {
		// ICMP rate limiting at the responder (each duplicate debits the
		// budget; non-ICMP replies such as TCP RSTs are not throttled).
		if f.ICMP && !l.AllowICMP(f.Responder, now) {
			st.RateLimited.Add(1)
			continue
		}
		stage = c.deliver(f.Reply, at, stage)
	}
	return stage, nil
}

// deliver appends one emitted response to stage, applying
// transport-fault windows and inbound impairments (loss, duplication,
// reordering, extra jitter) when enabled. With both off it is exactly the
// unimpaired scheduling path.
func (c *Conn[A, P]) deliver(reply P, at time.Duration, stage []Pending[P]) []Pending[P] {
	l := c.link
	st := &l.Stats
	if l.impair.HasFaults() {
		adj, dropped := l.impair.DeliveryFault(at, c.vantage)
		if dropped {
			st.FaultDropped.Add(1)
			return stage
		}
		if adj != at {
			st.FaultStalled.Add(1)
			at = adj
		}
	}
	p := Pending[P]{Payload: reply, Copies: 1, Base: at}
	if c.imp != nil {
		var reordered int
		p.Copies, p.Extra, reordered = c.imp.ResponseFate(l.impair)
		if p.Copies == 0 {
			st.RepliesLost.Add(1)
			return stage
		}
		if p.Copies == 2 {
			st.Duplicates.Add(1)
		}
		if reordered > 0 {
			st.Reordered.Add(uint64(reordered))
		}
	}
	return append(stage, p)
}

// commit schedules staged responses into the inbox and counts them. It
// reports false — scheduling nothing — once the connection is closed.
func (c *Conn[A, P]) commit(stage []Pending[P]) bool {
	if len(stage) == 0 {
		return true
	}
	if !c.inbox.ScheduleAll(stage) {
		return false
	}
	total := 0
	for i := range stage {
		total += stage[i].Copies
	}
	c.link.Stats.Responses.Add(uint64(total))
	return true
}

// ReadPacket blocks until a response is deliverable, materializes it into
// buf, and returns its length. It returns io.EOF once the connection is
// closed and drained.
func (c *Conn[A, P]) ReadPacket(buf []byte) (int, error) { return c.base.ReadPacket(buf) }

// ReadBatch is the batch form of ReadPacket (recvmmsg shape): it blocks
// until a response is deliverable, then fills bufs[i]/sizes[i] with every
// response already deliverable at that instant — in the exact (delivery
// time, sequence) order consecutive ReadPacket calls would observe — up
// to len(bufs). It returns (0, io.EOF) once the connection is closed and
// drained. Like ReadPacket, at most one goroutine may use it.
func (c *Conn[A, P]) ReadBatch(bufs [][]byte, sizes []int) (int, error) {
	return c.base.ReadBatch(bufs, sizes)
}

// Close closes the connection; pending deliverable responses may still be
// read, after which ReadPacket returns io.EOF.
func (c *Conn[A, P]) Close() error {
	c.inbox.Close()
	return nil
}

// Pending returns the number of scheduled, not yet read responses.
func (c *Conn[A, P]) Pending() int { return c.inbox.Len() }

// Reader is a per-receiver read handle on a Conn: each receive worker of
// a sharded receive pipeline holds its own Reader so R workers can block
// on (and drain) the same inbox concurrently under the virtual clock.
type Reader[A comparable, P any] struct {
	c       *Conn[A, P]
	parker  *simclock.Parker
	wakable bool // Wake ends a wait; false for the Conn's own reader
	scratch []P  // ReadBatch staging, owned by this handle's worker
}

// NewReader opens a read handle. The plain Conn.ReadPacket and any number
// of Readers may be used on the same Conn, though engines use one or the
// other.
func (c *Conn[A, P]) NewReader() *Reader[A, P] {
	return &Reader[A, P]{c: c, parker: c.inbox.register(), wakable: true}
}

// ReadPacket is Conn.ReadPacket on this handle, with one addition: it
// returns (0, nil) when the wait was interrupted by Wake before a response
// became deliverable, so the caller can service out-of-band work.
func (r *Reader[A, P]) ReadPacket(buf []byte) (int, error) {
	var one [1]P
	k, eof := r.c.inbox.take(r.parker, one[:], r.wakable)
	if eof {
		return 0, io.EOF
	}
	if k == 0 {
		return 0, nil
	}
	return r.c.link.wire.Materialize(buf, one[0]), nil
}

// ReadBatch is Conn.ReadBatch on this handle, with the Reader extension:
// it returns (0, nil) when the wait was interrupted by Wake before any
// response became deliverable.
func (r *Reader[A, P]) ReadBatch(bufs [][]byte, sizes []int) (int, error) {
	if len(r.scratch) < len(bufs) {
		r.scratch = make([]P, len(bufs))
	}
	k, eof := r.c.inbox.take(r.parker, r.scratch[:len(bufs)], r.wakable)
	if eof {
		return 0, io.EOF
	}
	for i := 0; i < k; i++ {
		sizes[i] = r.c.link.wire.Materialize(bufs[i], r.scratch[i])
	}
	return k, nil
}

// Wake interrupts this handle's blocked (or next) ReadPacket.
func (r *Reader[A, P]) Wake() { r.c.link.clock.Unpark(r.parker) }
