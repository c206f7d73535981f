package cluster

import (
	"sync"
	"sync/atomic"

	"github.com/flashroute/flashroute/internal/core"
	"github.com/flashroute/flashroute/internal/simclock"
)

// This file implements the cluster's globally shared stop set: the
// Doubletree redundancy elimination of the paper (§3.2), extended past
// the process boundary the way Yarrp's distributed probing frames it.
//
// The design is publish/subscribe over an append-only merge log:
//
//   - every worker owns a private two-tier core.StopSet: the local tier
//     is the engine's default sharded set (everything this worker
//     discovered itself), the remote tier is a map of entries other
//     workers published;
//   - Has is local-first: a local hit costs exactly what the
//     single-process engine pays (one map read, zero allocations); only
//     a local miss consults the hub, draining any log suffix published
//     since the last look;
//   - Add inserts locally and batches the address for async publication
//     (PublishBatch entries per hub append, so K workers do not contend
//     on the hub mutex per reply);
//   - remote entries only ever SUPPRESS backward probing — they are
//     never removed and never force probing that local knowledge would
//     have skipped — so a worker's probing decisions are a
//     deterministic function of its own replies plus the prefix of the
//     merge log it has observed;
//   - on a clocked hub, an entry published at instant t becomes visible
//     only to drains at later instants. Workers publishing at the same
//     virtual instant run in parallel, so whether one's drain sees
//     another's publication of that instant is a race; excluding the
//     current instant makes the observed prefix a function of virtual
//     time alone. (The clock only advances once every actor is parked,
//     so every entry of an earlier instant is already in the log.)

// hubEntry is one published discovery: the address plus the worker that
// published it, so subscribers can skip their own entries on drain, and
// the instant it was published at (zero on an unclocked hub).
type hubEntry[A comparable] struct {
	worker int
	addr   A
	at     int64
}

// Hub is the coordinator's stop-set exchange: an append-only log of
// (worker, interface) discoveries with a generation counter subscribers
// compare against their drain cursor. One Hub is shared by all workers
// of a cluster scan.
type Hub[A comparable] struct {
	mu  sync.Mutex
	log []hubEntry[A]

	// clock, when set, stamps each publication; drains adopt only
	// entries stamped before their own instant (see the file comment).
	clock simclock.Clock

	// faultHook, when set, is consulted before every publish and drain
	// (ops "publish" and "drain") on behalf of the calling worker; a
	// non-nil error makes the operation fail, degrading that worker to
	// local-only Doubletree mode (see WorkerSet). Test injection only —
	// an in-process hub has no real failure mode, but a networked one
	// would, and the degradation machinery must be exercised.
	faultHook func(op string, worker int) error

	// gen is the published log length, advanced after the entries are
	// visible under mu. Subscribers read it lock-free in Has: equal to
	// their drain cursor means nothing new, so the common no-news path
	// costs one atomic load.
	gen atomic.Uint64
}

// NewHub creates an empty exchange whose entries are visible as soon as
// they are published.
func NewHub[A comparable]() *Hub[A] { return &Hub[A]{} }

// now is the stamp of a publication or drain made now (h.mu held).
func (h *Hub[A]) now() int64 {
	if h.clock == nil {
		return 0
	}
	return h.clock.Now().UnixNano()
}

// SetFaultHook installs the publish/drain fault injector. Call before
// the scan starts (it is read under the hub mutex thereafter).
func (h *Hub[A]) SetFaultHook(fn func(op string, worker int) error) {
	h.mu.Lock()
	h.faultHook = fn
	h.mu.Unlock()
}

// publish appends addrs to the merge log on behalf of worker w. An
// injected fault (SetFaultHook) fails the whole batch: nothing is
// appended and the caller keeps its entries for re-publication.
func (h *Hub[A]) publish(w int, addrs []A) error {
	if len(addrs) == 0 {
		return nil
	}
	h.mu.Lock()
	if h.faultHook != nil {
		if err := h.faultHook("publish", w); err != nil {
			h.mu.Unlock()
			return err
		}
	}
	at := h.now()
	for _, a := range addrs {
		h.log = append(h.log, hubEntry[A]{worker: w, addr: a, at: at})
	}
	n := uint64(len(h.log))
	h.mu.Unlock()
	h.gen.Store(n)
	return nil
}

// Published reports the total number of log entries (post-scan stats).
func (h *Hub[A]) Published() uint64 { return h.gen.Load() }

// defaultPublishBatch is how many locally discovered interfaces a worker
// accumulates before one hub append.
const defaultPublishBatch = 64

// WorkerSet is one worker's view of the shared stop set: the pluggable
// core.StopSet the coordinator injects into each engine instance via
// ConfigOf.StopSet. See the file comment for the two-tier design.
type WorkerSet[A comparable] struct {
	hub    *Hub[A] // nil: detached (independent-scan baseline)
	worker int
	local  core.StopSet[A]
	batch  int

	// pubMu guards the publication batch. Engine Add calls may arrive
	// concurrently from R receive workers.
	pubMu   sync.Mutex
	pending []A

	// remMu guards the remote tier and the drain cursor; drained mirrors
	// the cursor as an atomic so Has can skip the lock when there is
	// nothing new to drain.
	remMu    sync.RWMutex
	remote   map[A]struct{}
	cursor   int
	drained  atomic.Uint64
	received uint64 // remote entries adopted (stats, under remMu)

	// Degraded operation (local-only Doubletree mode): when a publish or
	// drain fails, the worker freezes its remote tier at the log prefix
	// it has already observed and stops consulting the hub — safe by
	// construction, because remote entries only ever SUPPRESS probing,
	// so the worker merely re-probes what peers would have saved it, and
	// its decisions stay a deterministic function of its local replies
	// plus the observed prefix. Pending publications are retained;
	// recovery is attempted at each publish point (a full batch or a
	// Flush), and success re-publishes the backlog and catches up on the
	// whole missed log suffix in one drain. episodes counts degradation
	// entries (stats).
	degraded atomic.Bool
	episodes atomic.Uint64
}

// NewWorkerSet builds worker w's view over the hub. local becomes the
// worker's private tier (use core.NewLocalStopSet with the worker's
// receiver count); batch <= 0 uses the default publication batch. A nil
// hub detaches the worker — the independent-scan baseline the probe
// savings experiment compares against.
func NewWorkerSet[A comparable](hub *Hub[A], w int, local core.StopSet[A], batch int) *WorkerSet[A] {
	if batch <= 0 {
		batch = defaultPublishBatch
	}
	return &WorkerSet[A]{
		hub:    hub,
		worker: w,
		local:  local,
		batch:  batch,
		remote: make(map[A]struct{}),
	}
}

// Has reports membership: local tier first (the zero-allocation hot
// path), then — only on a miss — the remote tier, after draining any
// merge-log suffix published since the last drain. In degraded mode the
// drain is skipped entirely: the remote tier is frozen at the observed
// log prefix, so membership answers stay deterministic while the hub is
// unreachable.
func (w *WorkerSet[A]) Has(a A) bool {
	if w.local.Has(a) {
		return true
	}
	if w.hub == nil {
		return false
	}
	if !w.degraded.Load() && w.hub.gen.Load() != w.drained.Load() {
		if err := w.drain(); err != nil {
			w.enterDegraded()
		}
	}
	w.remMu.RLock()
	_, ok := w.remote[a]
	w.remMu.RUnlock()
	return ok
}

// enterDegraded flips the worker into local-only Doubletree mode (once
// per episode).
func (w *WorkerSet[A]) enterDegraded() {
	if w.degraded.CompareAndSwap(false, true) {
		w.episodes.Add(1)
	}
}

// drain adopts the unread merge-log suffix into the remote tier,
// skipping this worker's own entries (they are already local). A fault
// injected by the hub hook fails the drain with nothing adopted.
func (w *WorkerSet[A]) drain() error {
	w.remMu.Lock()
	h := w.hub
	h.mu.Lock()
	if h.faultHook != nil {
		if err := h.faultHook("drain", w.worker); err != nil {
			h.mu.Unlock()
			w.remMu.Unlock()
			return err
		}
	}
	end := len(h.log)
	if h.clock != nil {
		// Stamps never decrease along the log: stop at this instant's.
		now := h.now()
		for end > w.cursor && h.log[end-1].at >= now {
			end--
		}
	}
	for _, e := range h.log[w.cursor:end] {
		if e.worker != w.worker {
			w.remote[e.addr] = struct{}{}
			w.received++
		}
	}
	w.cursor = end
	h.mu.Unlock()
	w.drained.Store(uint64(end))
	w.remMu.Unlock()
	return nil
}

// Add inserts a discovered interface locally and queues it for
// publication. The engine calls Add once per reply, so repeats of an
// already-known interface are the common case — they publish nothing.
func (w *WorkerSet[A]) Add(a A) {
	if w.local.Has(a) {
		return
	}
	w.local.Add(a)
	if w.hub == nil {
		return
	}
	w.remMu.RLock()
	_, known := w.remote[a]
	w.remMu.RUnlock()
	if known {
		return // another worker already published it
	}
	w.pubMu.Lock()
	w.pending = append(w.pending, a)
	if len(w.pending) >= w.batch {
		w.publishPending()
	}
	w.pubMu.Unlock()
}

// publishPending pushes the publication backlog to the hub (caller holds
// pubMu). A failed publish keeps the backlog and degrades the worker; a
// successful one while degraded is the recovery signal — the worker
// catches up on the entire missed log suffix in one drain and resumes
// normal two-tier operation.
func (w *WorkerSet[A]) publishPending() {
	if err := w.hub.publish(w.worker, w.pending); err != nil {
		w.enterDegraded()
		return
	}
	w.pending = w.pending[:0]
	if w.degraded.Load() {
		if err := w.drain(); err != nil {
			return // hub flapped again mid-recovery; stay degraded
		}
		w.degraded.Store(false)
	}
}

// Flush publishes any partial batch (phase ends and scan exit). While
// degraded it doubles as a recovery probe: an empty backlog still
// attempts the catch-up drain.
func (w *WorkerSet[A]) Flush() {
	if w.hub == nil {
		return
	}
	w.pubMu.Lock()
	if len(w.pending) > 0 || w.degraded.Load() {
		w.publishPending()
	}
	w.pubMu.Unlock()
}

// ForEach visits the local tier, then remote entries not already local
// (checkpoint encoding: a migrated shard resumes with at least as much
// suppression as it died with).
func (w *WorkerSet[A]) ForEach(fn func(A)) {
	w.local.ForEach(fn)
	w.remMu.RLock()
	for a := range w.remote {
		if !w.local.Has(a) {
			fn(a)
		}
	}
	w.remMu.RUnlock()
}

// Size counts distinct entries across both tiers.
func (w *WorkerSet[A]) Size() int {
	n := w.local.Size()
	w.remMu.RLock()
	for a := range w.remote {
		if !w.local.Has(a) {
			n++
		}
	}
	w.remMu.RUnlock()
	return n
}

// Received reports how many remote entries this worker adopted.
func (w *WorkerSet[A]) Received() uint64 {
	w.remMu.RLock()
	defer w.remMu.RUnlock()
	return w.received
}

// Degraded reports whether the worker is currently in local-only
// Doubletree mode.
func (w *WorkerSet[A]) Degraded() bool { return w.degraded.Load() }

// DegradedEpisodes reports how many times this worker entered degraded
// mode.
func (w *WorkerSet[A]) DegradedEpisodes() uint64 { return w.episodes.Load() }
