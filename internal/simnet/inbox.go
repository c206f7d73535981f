package simnet

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/flashroute/flashroute/internal/simclock"
)

// Item is a scheduled payload in an Inbox: the payload plus its delivery
// time and a per-inbox sequence number breaking delivery-time ties
// deterministically.
type Item[P any] struct {
	DeliverAt time.Duration // since the inbox epoch
	Seq       uint64
	Payload   P
}

// Inbox is the receive side of a simulated connection: a value-typed
// binary min-heap of scheduled payloads ordered by (DeliverAt, Seq),
// drained in virtual-time order by a parked reader. It deliberately does
// not go through container/heap: the interface-based API boxes every
// pushed and popped element into an `any` allocation, which on the probe
// write path would mean one heap allocation per response in flight. The
// inlined sift operations below keep the steady-state write/read path
// allocation-free (the backing array grows amortized and is then reused).
type Inbox[P any] struct {
	clock  simclock.Waiter
	epoch  time.Time
	parker *simclock.Parker

	mu     sync.Mutex
	heap   []Item[P]
	seq    uint64
	closed bool

	// readers holds the registered parkers (multi-reader mode). It is an
	// atomic copy-on-write snapshot so the write path can notify readers
	// without re-taking mu; nil while none is registered keeps the classic
	// single-reader path free of any extra cost.
	readers atomic.Pointer[[]*simclock.Parker]
}

// NewInbox creates an inbox on the clock. deliverAt values are relative
// to epoch.
func NewInbox[P any](clock simclock.Waiter, epoch time.Time) *Inbox[P] {
	return &Inbox[P]{clock: clock, epoch: epoch, parker: clock.NewParker()}
}

// Pending is one staged response awaiting scheduling: the payload with its
// impairment-resolved copy count and delivery offsets. Writers stage the
// responses a packet (or a whole write batch) elicits and commit them
// with one ScheduleAll, paying for the inbox lock and the reader wakeup
// once.
type Pending[P any] struct {
	Payload P
	Copies  int
	Base    time.Duration
	Extra   [2]time.Duration
}

// ScheduleAll pushes a staged batch under one lock acquisition and wakes
// the readers once; copy c of batch[i] is deliverable at
// Base+Extra[c]. Sequence numbers are assigned in batch order, so a batch
// schedules exactly what one ScheduleAll per element would have. It
// reports false — scheduling nothing — once the inbox is closed.
func (in *Inbox[P]) ScheduleAll(batch []Pending[P]) bool {
	if len(batch) == 0 {
		return true
	}
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return false
	}
	for i := range batch {
		p := &batch[i]
		for c := 0; c < p.Copies; c++ {
			in.push(Item[P]{DeliverAt: p.Base + p.Extra[c], Seq: in.seq, Payload: p.Payload})
			in.seq++
		}
	}
	in.mu.Unlock()
	in.wakeAll()
	return true
}

// take blocks on parker p until the earliest scheduled item is
// deliverable at the current clock time, then pops every item already
// deliverable at that instant — (DeliverAt, Seq) order, the order
// consecutive single pops would see — up to len(out). eof reports the
// inbox closed and drained (terminal). With interruptible set, an explicit
// Unpark of p while nothing is deliverable ends the wait with n == 0 and
// eof false, letting a receive worker service out-of-band work (e.g.
// replies dispatched to it by a sibling) before reading again; otherwise
// the wait simply resumes.
func (in *Inbox[P]) take(p *simclock.Parker, out []P, interruptible bool) (n int, eof bool) {
	for {
		in.mu.Lock()
		now := in.clock.Now().Sub(in.epoch)
		for n < len(out) && len(in.heap) > 0 && in.heap[0].DeliverAt <= now {
			out[n] = in.pop().Payload
			n++
		}
		if n > 0 {
			in.mu.Unlock()
			return n, false
		}
		if in.closed && len(in.heap) == 0 {
			in.mu.Unlock()
			return 0, true
		}
		var deadline time.Time
		if len(in.heap) > 0 {
			deadline = in.epoch.Add(in.heap[0].DeliverAt)
		}
		in.mu.Unlock()
		if in.clock.Park(p, deadline) && interruptible {
			return 0, false
		}
	}
}

// wakeAll unparks the base reader and every registered parker. An Unpark
// on a parker nobody is blocked on is retained for its next park, so
// spurious wakeups are the only cost of over-notifying.
func (in *Inbox[P]) wakeAll() {
	in.clock.Unpark(in.parker)
	if rs := in.readers.Load(); rs != nil {
		for _, p := range *rs {
			in.clock.Unpark(p)
		}
	}
}

// Close stops further scheduling; already scheduled items remain
// drainable, after which take reports eof.
func (in *Inbox[P]) Close() {
	in.mu.Lock()
	in.closed = true
	in.mu.Unlock()
	in.wakeAll()
}

// register allocates a parker that every schedule and Close wakes, for one
// more concurrent reader (a Parker must never be shared by two concurrently
// parked actors). Parkers stay registered for the life of the inbox:
// register per reader, not per read.
func (in *Inbox[P]) register() *simclock.Parker {
	p := in.clock.NewParker()
	in.mu.Lock()
	var rs []*simclock.Parker
	if old := in.readers.Load(); old != nil {
		rs = append(rs, *old...)
	}
	rs = append(rs, p)
	in.readers.Store(&rs)
	in.mu.Unlock()
	return p
}

// Len returns the number of scheduled, not yet read items.
func (in *Inbox[P]) Len() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.heap)
}

func (in *Inbox[P]) less(h []Item[P], i, j int) bool {
	if h[i].DeliverAt != h[j].DeliverAt {
		return h[i].DeliverAt < h[j].DeliverAt
	}
	return h[i].Seq < h[j].Seq
}

// push inserts it, sifting up to its heap position. Caller holds in.mu.
func (in *Inbox[P]) push(it Item[P]) {
	q := append(in.heap, it)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !in.less(q, i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	in.heap = q
}

// pop removes and returns the earliest-delivery item. Caller holds in.mu.
func (in *Inbox[P]) pop() Item[P] {
	q := in.heap
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	i := 0
	for {
		l := 2*i + 1
		if l >= len(q) {
			break
		}
		c := l
		if r := l + 1; r < len(q) && in.less(q, r, l) {
			c = r
		}
		if !in.less(q, c, i) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	in.heap = q
	return top
}
