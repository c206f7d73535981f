// Package cluster implements distributed multi-vantage scanning: a
// coordinator that carves the permuted destination universe into
// per-worker shards, K worker loops driving real core.ScannerOf
// instances — each over its own network vantage with a distinct
// first-hop path — a globally shared stop set with batched async
// publish/subscribe (stopset.go), and a conflict-aware union of the
// per-worker traces (merge.go). A killed worker's shard migrates to a
// peer mid-scan: its final checkpoint (the internal/snapshot codec) is
// the work-handoff wire format, and the peer resumes it through the
// engine's confirmed-vs-sent rewind. See DESIGN.md §13.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flashroute/flashroute/internal/core"
	"github.com/flashroute/flashroute/internal/simclock"
	"github.com/flashroute/flashroute/internal/trace"
)

// Env binds a cluster scan to its environment: the address family, the
// complete engine configuration every worker derives its shard config
// from, the shared clock, and a vantage-indexed connection factory.
type Env[A comparable] struct {
	Fam core.Family[A]
	// Base is the scan configuration a single-process run would use.
	// The coordinator copies it per worker, composing Skip with the
	// shard predicate and injecting the shared stop set; Base itself is
	// never mutated. Base.CheckpointSink is ignored — cluster workers
	// checkpoint into coordinator memory, where the snapshot serves as
	// the shard-migration payload.
	Base core.ConfigOf[A]
	// Clock is shared by every worker loop (each engine registers its
	// own actors on it; the coordinator itself is not an actor and
	// never holds up virtual time).
	Clock simclock.Waiter
	// NewConn opens a connection entering the topology at the given
	// vantage, plus a per-receiver reader factory for Base.Receivers > 1
	// (the factory may be nil when Base.Receivers <= 1).
	NewConn func(vantage int) (core.PacketConn, func() core.PacketReader, error)
}

// Options parameterizes the cluster run.
type Options struct {
	// Workers is the shard/worker count K; <= 1 means one worker, which
	// reproduces the single-process scan bit-identically.
	Workers int
	// Independent detaches the workers' stop sets from the hub — K
	// truly independent scans over the same shards, the baseline the
	// probe-savings experiment compares against.
	Independent bool
	// PublishBatch is the stop-set publication batch (default 64).
	PublishBatch int

	// WatchdogTimeout arms the supervisor's progress watchdog: a worker
	// loop whose probe counter AND reply stream both stall for this long
	// of clock time is declared failed and its shard migrated to a peer
	// vantage, exactly as if KillWorker had been called. 0 (the default)
	// disables the watchdog entirely — no extra clock actor exists and a
	// fault-free run is bit-identical to the unsupervised engine.
	WatchdogTimeout time.Duration

	// MaxMigrations bounds how many times one shard may migrate before
	// it is abandoned (recorded in Result.Abandoned; the partial merge
	// stays valid). 0 means the default of 3; negative disables
	// migration (every failure abandons the shard).
	MaxMigrations int

	// AbortOnSendErrors is forwarded to every worker's engine config: a
	// worker that drops this many probes to write failures aborts with
	// core.ErrTransportDead and the supervisor migrates its shard. 0
	// defaults to 32 when WatchdogTimeout is set (a supervised cluster
	// wants dead transports surfaced, not ground through), else stays 0
	// (inert, the prior behavior). Negative disables it explicitly.
	AbortOnSendErrors int

	// HubFaultHook injects publish/drain failures into the stop-set hub
	// (tests): a non-nil error from the hook degrades the calling worker
	// to local-only Doubletree mode until the hook passes again. nil —
	// the default — means the hub never fails.
	HubFaultHook func(op string, worker int) error

	// CheckpointSink, when set, additionally receives every worker
	// snapshot (cadenced per CheckpointEvery probes and final), keyed by
	// shard — the persistence hook frserved uses so a daemon restart can
	// resume every shard. Coordinator-memory handoff snapshots are kept
	// regardless; sink errors are counted by the engine and do not stop
	// the scan.
	CheckpointSink func(shard int, snap []byte) error
	// CheckpointEvery triggers a cadenced snapshot every N probes per
	// worker (0: final snapshots only).
	CheckpointEvery int
	// ResumeSnapshots seeds shards with previously persisted snapshots
	// (shard index -> snapshot): each listed shard resumes through the
	// engine's confirmed-vs-sent rewind instead of starting fresh. A
	// snapshot of a completed shard re-runs the shard from scratch (on
	// the deterministic simulator that reproduces the identical result).
	ResumeSnapshots map[int][]byte
}

// FailureCause classifies why a worker loop was declared failed.
type FailureCause uint8

const (
	// CauseKill: an explicit KillWorker call.
	CauseKill FailureCause = iota
	// CauseStall: the watchdog saw no probe or reply progress for
	// WatchdogTimeout.
	CauseStall
	// CauseTransport: the engine aborted with core.ErrTransportDead.
	CauseTransport
	// CauseLaunch: a migration attempt itself failed (vantage conn or
	// checkpoint resume error).
	CauseLaunch
)

// String names the cause for logs and status reports.
func (c FailureCause) String() string {
	switch c {
	case CauseKill:
		return "kill"
	case CauseStall:
		return "stall"
	case CauseTransport:
		return "transport"
	case CauseLaunch:
		return "launch"
	}
	return "unknown"
}

// WorkerFailure records one declared worker failure.
type WorkerFailure struct {
	Shard   int          // shard the failed loop was probing
	Vantage int          // vantage it failed at
	Cause   FailureCause // why it was declared failed
	Err     error        // engine or launch error, nil for kill/stall
}

// WorkerStats describes one worker loop's share of the scan.
type WorkerStats struct {
	Shard        int    // shard index this loop probed
	Vantage      int    // network vantage it probed from
	Blocks       int    // permuted positions in the shard
	ProbesSent   uint64 // probes this loop issued
	StopReceived uint64 // remote stop-set entries it adopted
	Resumed      bool   // this loop resumed a migrated shard
	Interrupted  bool   // this loop ended by cancellation
}

// Result is the merged outcome of a cluster scan.
type Result[A comparable] struct {
	// Store is the conflict-aware union of every worker's trace store.
	Store *trace.StoreOf[A]
	// MultiPaths lists (dst, TTL) observations where the union saw more
	// than one interface — multi-path evidence, kept, never overwritten.
	MultiPaths []MultiPath[A]

	ProbesSent          uint64
	PreprobeProbes      uint64
	RetransmittedProbes uint64
	DuplicateResponses  uint64
	MismatchedResponses uint64
	UnparsedResponses   uint64
	ReadErrors          uint64
	SendErrors          uint64
	ScanTime            time.Duration

	// Workers has one entry per worker loop in completion order, loops
	// finishing at the same instant by shard (a migrated shard
	// contributes one entry per attempt).
	Workers []WorkerStats
	// Migrations counts shard handoffs (KillWorker → peer resume).
	Migrations int
	// Failures lists every declared worker failure in detection order
	// (kills, watchdog stalls, transport deaths, failed relaunches).
	Failures []WorkerFailure
	// Abandoned lists shards that exhausted their migration budget; their
	// partial discoveries are in the merge and Interrupted is set.
	Abandoned []int
	// StopSetDegraded counts local-only Doubletree episodes: how many
	// times a worker's hub publish/drain failed and it fell back to its
	// private stop set until the hub recovered.
	StopSetDegraded uint64
	// StopPublished is the merge-log length; StopReceived the total
	// remote adoptions across workers. Both zero for Independent runs.
	StopPublished uint64
	StopReceived  uint64
	// Interrupted reports at least one shard did not run to completion
	// (cancellation); the result is the valid partial merge.
	Interrupted bool
}

// workerDone is one worker loop's completion report.
type workerDone[A comparable] struct {
	shard   int
	vantage int
	resumed bool
	res     *core.ResultOf[A]
	err     error
	snap    []byte
	ws      *WorkerSet[A]
	end     time.Time // clock instant the loop finished at
}

// migOutcome is one relauncher's report: a migration attempt either
// registered a new worker loop (err nil) or failed.
type migOutcome struct {
	shard   int
	vantage int
	snap    []byte
	err     error
}

// Run is a cluster scan in flight (Start).
type Run[A comparable] struct {
	env           Env[A]
	opt           Options
	hub           *Hub[A]
	shards        []Shard
	pos           []uint32
	maxMigrations int

	events chan workerDone[A]
	ctrl   chan migOutcome
	done   chan struct{}
	res    *Result[A]
	err    error

	obsMu sync.Mutex // serializes Base.Observer across loops

	mu         sync.Mutex
	cancels    map[int]context.CancelFunc // shard -> active loop cancel
	scanners   map[int]*core.ScannerOf[A] // shard -> active scanner
	doneProbes uint64                     // probes written by deregistered loops
	failCause  map[int]FailureCause       // shard -> pending declared failure
	workerSets []*WorkerSet[A]            // every stop-set view ever created
	rate       int                        // last SetRate value (rateSet true)
	rateSet    bool
	migrations int
	canceled   bool

	// Coordinator-owned state (only the coordinate goroutine touches
	// these; no lock needed).
	attempts  map[int]int  // shard -> migrations consumed
	suspect   map[int]bool // vantages with a declared failure
	failures  []WorkerFailure
	abandoned []int

	// Watchdog (Options.WatchdogTimeout > 0): a clock actor that parks
	// with a deadline, samples per-shard progress each tick, and fails
	// shards whose counters froze. wdStop + Unpark stops it.
	wdParker *simclock.Parker
	wdStop   atomic.Bool
	wdSeen   map[int]wdProgress

	start time.Time
}

// wdProgress is the watchdog's last progress sample for one shard.
type wdProgress struct {
	probes, replies uint64
	since           time.Time
}

// Start validates the environment and launches the cluster scan. ctx
// cancels the whole run (gracefully: every worker drains in-flight
// replies and the partial merge is returned with Interrupted set).
func Start[A comparable](ctx context.Context, env Env[A], opt Options) (*Run[A], error) {
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	if env.Fam == nil {
		return nil, errors.New("cluster: Env.Fam is required")
	}
	if env.Clock == nil {
		return nil, errors.New("cluster: Env.Clock is required")
	}
	if env.NewConn == nil {
		return nil, errors.New("cluster: Env.NewConn is required")
	}
	if env.Base.Blocks <= 0 {
		return nil, errors.New("cluster: Base.Blocks must be positive")
	}
	if opt.WatchdogTimeout > 0 && opt.AbortOnSendErrors == 0 {
		opt.AbortOnSendErrors = 32
	}
	shards := Assign(env.Base.Blocks, opt.Workers)
	r := &Run[A]{
		env:           env,
		opt:           opt,
		shards:        shards,
		maxMigrations: opt.MaxMigrations,
		events:        make(chan workerDone[A], len(shards)),
		ctrl:          make(chan migOutcome, len(shards)),
		done:          make(chan struct{}),
		cancels:       make(map[int]context.CancelFunc),
		scanners:      make(map[int]*core.ScannerOf[A]),
		failCause:     make(map[int]FailureCause),
		attempts:      make(map[int]int),
		suspect:       make(map[int]bool),
		start:         env.Clock.Now(),
	}
	if r.maxMigrations == 0 {
		r.maxMigrations = 3
	} else if r.maxMigrations < 0 {
		r.maxMigrations = 0
	}
	if !opt.Independent {
		r.hub = &Hub[A]{clock: env.Clock}
		if opt.HubFaultHook != nil {
			r.hub.SetFaultHook(opt.HubFaultHook)
		}
	}
	if len(shards) > 1 {
		r.pos = positionsOf(env.Fam, env.Base.Blocks, env.Base.Seed)
	}
	// Hold the clock while the loops launch: every shard starts probing
	// at the same instant, however the goroutines are scheduled.
	env.Clock.AddActor()
	defer env.Clock.DoneActor()
	for w := range shards {
		var err error
		if snap := opt.ResumeSnapshots[w]; len(snap) > 0 {
			err = r.launch(ctx, w, w, snap, true)
			if errors.Is(err, core.ErrCheckpointComplete) {
				// The persisted snapshot already covers the whole shard.
				// Rather than decode its results out of band, re-run the
				// shard fresh: on the deterministic simulator that
				// reproduces the identical discoveries.
				err = r.launch(ctx, w, w, nil, false)
			}
		} else {
			err = r.launch(ctx, w, w, nil, false)
		}
		if err != nil {
			// Abandon loops already launched; they drain into the
			// buffered events channel, where their clock registrations
			// are released.
			r.cancelAll()
			go r.discard(w)
			return nil, err
		}
	}
	if opt.WatchdogTimeout > 0 {
		r.wdParker = env.Clock.NewParker()
		r.wdSeen = make(map[int]wdProgress)
		env.Clock.AddActor()
		go r.watchdog()
	}
	go r.coordinate(ctx)
	return r, nil
}

// share splits the aggregate pps across the worker count the way the
// engine splits it across sender shards: base rate plus one for the
// first rem workers. pps <= 0 (unthrottled) passes through.
func share(pps, workers, w int) int {
	if pps <= 0 {
		return pps
	}
	s := pps / workers
	if w < pps%workers {
		s++
	}
	if s < 1 {
		s = 1
	}
	return s
}

// shardHint sizes a worker's local stop set for its share of the
// universe (with a floor so tiny shards still start useful).
func shardHint(blocks, workers int) int {
	h := blocks / workers
	if h < 64 {
		h = 64
	}
	return h
}

// launch starts one worker loop for a shard: a fresh scan when snap is
// nil, a migration resume otherwise.
func (r *Run[A]) launch(ctx context.Context, shard, vantage int, snap []byte, resumed bool) error {
	cfg := r.env.Base
	// The single-worker run keeps Base.Skip untouched: the whole config
	// is then field-for-field what core.NewScannerOf would have seen,
	// which is what makes K=1 bit-identical to the classic engine.
	if len(r.shards) > 1 {
		cfg.Skip = shardSkip(r.pos, r.shards[shard], r.env.Base.Skip)
	}
	local := core.NewLocalStopSet(r.env.Fam, max(cfg.Receivers, 1), shardHint(cfg.Blocks, len(r.shards)))
	ws := NewWorkerSet(r.hub, shard, local, r.opt.PublishBatch)
	cfg.StopSet = ws
	cfg.PPS = share(r.env.Base.PPS, len(r.shards), shard)
	if r.opt.AbortOnSendErrors > 0 {
		cfg.AbortOnSendErrors = r.opt.AbortOnSendErrors
	}

	// The handoff sink: every snapshot (cadenced and final) lands in
	// coordinator memory; on a kill, the latest one is the migration
	// payload. An external Options.CheckpointSink additionally receives
	// each snapshot keyed by shard (frserved's per-shard persistence);
	// its errors surface through the engine's CheckpointErrors counter.
	var snapMu sync.Mutex
	var latest []byte
	extSink := r.opt.CheckpointSink
	if extSink != nil && r.opt.CheckpointEvery > 0 {
		cfg.CheckpointEvery = r.opt.CheckpointEvery
	}
	cfg.CheckpointSink = func(b []byte) error {
		snapMu.Lock()
		latest = append(latest[:0], b...)
		snapMu.Unlock()
		if extSink != nil {
			return extSink(shard, b)
		}
		return nil
	}

	if baseObs := r.env.Base.Observer; baseObs != nil {
		cfg.Observer = func(dst A, ttl uint8, at time.Duration) {
			r.obsMu.Lock()
			baseObs(dst, ttl, at)
			r.obsMu.Unlock()
		}
	}

	conn, newReader, err := r.env.NewConn(vantage)
	if err != nil {
		return fmt.Errorf("cluster: open vantage %d: %w", vantage, err)
	}
	if newReader != nil {
		cfg.NewReader = newReader
	}

	var sc *core.ScannerOf[A]
	if snap == nil {
		sc, err = core.NewScannerOf(r.env.Fam, cfg, conn, r.env.Clock)
	} else {
		sc, err = core.Resume(r.env.Fam, cfg, conn, r.env.Clock, snap)
	}
	if err != nil {
		conn.Close()
		return err
	}

	wctx, cancel := context.WithCancel(ctx)
	r.mu.Lock()
	r.cancels[shard] = cancel
	r.scanners[shard] = sc
	r.workerSets = append(r.workerSets, ws)
	// A relaunched shard starts from fresh live counters; drop any stale
	// watchdog sample so the new loop gets a full timeout of grace.
	delete(r.wdSeen, shard)
	// A SetRate issued while this shard was between loops (mid-migration)
	// never reached a scanner; apply the latest rate to the fresh one so
	// a relaunched shard probes at the current target, not the startup
	// rate.
	if r.rateSet {
		sc.SetRate(share(r.rate, len(r.shards), shard))
	}
	r.mu.Unlock()

	// The loop is a clock actor from here until the coordinator has
	// handled its completion (see coordinate).
	r.env.Clock.AddActor()
	go func() {
		res, runErr := sc.RunActor(wctx)
		ws.Flush()
		// Deregister before cancel(): KillWorker must never observe (and
		// "kill") a loop that has already finished — a stale cancel is
		// harmless, but the kill mark it would leave behind could migrate
		// a future loop of this shard that was merely cancelled.
		// Fold the loop's probe count into the finished total in the same
		// critical section that drops it from the live sum, so Probes
		// never goes backwards.
		r.mu.Lock()
		delete(r.cancels, shard)
		delete(r.scanners, shard)
		p, _ := sc.LiveCounters()
		r.doneProbes += p
		r.mu.Unlock()
		cancel()
		snapMu.Lock()
		final := append([]byte(nil), latest...)
		snapMu.Unlock()
		r.events <- workerDone[A]{end: r.env.Clock.Now(), shard: shard, vantage: vantage,
			resumed: resumed, res: res, err: runErr, snap: final, ws: ws}
	}()
	return nil
}

// watchdog is the supervisor's progress monitor (Options.WatchdogTimeout
// > 0): a clock actor that wakes every timeout, samples each active
// engine's live probe/reply counters, and declares a shard failed when
// BOTH froze across a full timeout — the stalled-worker signature a
// transport error alone cannot surface. A false positive (a worker that
// was merely slow) is safe: migration resumes the shard from its final
// checkpoint, costing only the rewound probes.
func (r *Run[A]) watchdog() {
	defer r.env.Clock.DoneActor()
	clock := r.env.Clock
	for {
		clock.Park(r.wdParker, clock.Now().Add(r.opt.WatchdogTimeout))
		if r.wdStop.Load() {
			return
		}
		now := clock.Now()
		var stalled []int
		r.mu.Lock()
		for shard, sc := range r.scanners {
			p, q := sc.LiveCounters()
			s, ok := r.wdSeen[shard]
			if !ok || s.probes != p || s.replies != q {
				r.wdSeen[shard] = wdProgress{probes: p, replies: q, since: now}
				continue
			}
			if now.Sub(s.since) >= r.opt.WatchdogTimeout {
				stalled = append(stalled, shard)
			}
		}
		r.mu.Unlock()
		for _, shard := range stalled {
			r.failShard(shard, CauseStall)
		}
	}
}

// stopWatchdog releases the watchdog actor (idempotent).
func (r *Run[A]) stopWatchdog() {
	if r.wdParker == nil {
		return
	}
	r.wdStop.Store(true)
	r.env.Clock.Unpark(r.wdParker)
}

// coordinate is the supervisor loop: it collects worker completions and
// relaunch outcomes, classifies failures (kills, watchdog stalls,
// transport deaths, failed relaunches), drives the checkpoint-handoff
// migration path within each shard's budget, and merges when the last
// loop reports. It only ever reacts to events, so it cannot stall
// virtual time; but every event arrives with its sender's clock
// registration still held, and coordinate releases it only once the
// event is handled (after the merge, for the last one). A migrated
// shard's relaunch, and the scan's end, therefore happen at the instant
// the failure or completion did, not at whatever instant the clock has
// reached once this goroutine is scheduled.
func (r *Run[A]) coordinate(ctx context.Context) {
	defer close(r.done)
	defer r.env.Clock.DoneActor() // the last event's registration
	defer r.stopWatchdog()
	var order []workerDone[A]
	complete := make(map[int]bool, len(r.shards))
	outstanding := len(r.shards)
	var firstErr error
	for held := false; outstanding > 0; held = true {
		if held {
			r.env.Clock.DoneActor()
		}
		select {
		case ev := <-r.events:
			outstanding--
			r.mu.Lock()
			cause, failed := r.failCause[ev.shard]
			delete(r.failCause, ev.shard)
			canceled := r.canceled
			r.mu.Unlock()
			if ev.err != nil {
				if errors.Is(ev.err, core.ErrTransportDead) && ev.res != nil {
					// The engine aborted on a dead transport but its
					// partial result and final checkpoint are valid:
					// treat it as a declared failure, not a fatal error.
					cause, failed = CauseTransport, true
				} else {
					if firstErr == nil {
						firstErr = fmt.Errorf("cluster: shard %d (vantage %d): %w", ev.shard, ev.vantage, ev.err)
					}
					r.cancelAll()
					continue
				}
			}
			order = append(order, ev)
			if !ev.res.Interrupted {
				complete[ev.shard] = true
				continue
			}
			if !failed || canceled || firstErr != nil {
				// Plain cancellation: the partial result stands, no
				// migration.
				continue
			}
			r.failures = append(r.failures, WorkerFailure{
				Shard: ev.shard, Vantage: ev.vantage, Cause: cause, Err: ev.err})
			r.suspect[ev.vantage] = true
			if r.tryMigrate(ctx, ev.shard, ev.vantage, ev.snap) {
				outstanding++
			}

		case m := <-r.ctrl:
			outstanding--
			if firstErr != nil {
				continue
			}
			if m.err == nil {
				// The relaunch registered a new worker loop; its
				// workerDone will arrive later.
				r.mu.Lock()
				r.migrations++
				r.mu.Unlock()
				outstanding++
				continue
			}
			if errors.Is(m.err, core.ErrCheckpointComplete) {
				// The failure raced scan completion: the "partial"
				// result already in order is the whole shard.
				complete[m.shard] = true
				continue
			}
			// The adoption vantage itself failed to launch: another
			// failure, retried against the next surviving vantage.
			r.failures = append(r.failures, WorkerFailure{
				Shard: m.shard, Vantage: m.vantage, Cause: CauseLaunch, Err: m.err})
			r.suspect[m.vantage] = true
			if r.tryMigrate(ctx, m.shard, m.vantage, m.snap) {
				outstanding++
			}
		}
	}
	if firstErr != nil {
		r.err = firstErr
		return
	}
	r.res = r.merge(order, complete)
}

// tryMigrate spends one unit of a failed shard's migration budget on a
// relaunch at the next surviving peer vantage, with exponential backoff
// between successive attempts. It reports whether a relaunch is pending
// (a migOutcome will arrive on r.ctrl); false means the budget is
// exhausted and the shard was abandoned. Coordinator goroutine only.
func (r *Run[A]) tryMigrate(ctx context.Context, shard, from int, snap []byte) bool {
	attempt := r.attempts[shard]
	if attempt >= r.maxMigrations {
		r.abandoned = append(r.abandoned, shard)
		return false
	}
	r.attempts[shard] = attempt + 1
	adopt := r.pickVantage(from)
	backoff := migrationBackoff(attempt)
	// The relauncher is a clock actor from here until the coordinator
	// has handled its outcome: it sleeps the backoff on the shared clock
	// and launches at a deterministic instant.
	r.env.Clock.AddActor()
	go func() {
		r.env.Clock.Sleep(backoff)
		err := r.launch(ctx, shard, adopt, snap, true)
		r.ctrl <- migOutcome{shard: shard, vantage: adopt, snap: snap, err: err}
	}()
	return true
}

// migrationBackoff is the delay before migration attempt n (0-based):
// the first handoff is immediate — the shard's checkpoint is already in
// hand — and each retry after a failed relaunch doubles from 100ms,
// capped at 2s.
func migrationBackoff(attempt int) time.Duration {
	if attempt <= 0 {
		return 0
	}
	d := 100 * time.Millisecond << (attempt - 1)
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d
}

// pickVantage chooses the adoption vantage for a shard that failed at
// vantage from: the next vantage in cyclic order with no declared
// failure, falling back to plain cyclic order when every vantage is
// suspect (a suspect vantage may well have recovered — and with every
// peer down there is nothing better to try). Coordinator goroutine only.
func (r *Run[A]) pickVantage(from int) int {
	k := len(r.shards)
	for i := 1; i <= k; i++ {
		v := (from + i) % k
		if !r.suspect[v] {
			return v
		}
	}
	return (from + 1) % k
}

// merge folds the completed loops into the cluster result.
func (r *Run[A]) merge(order []workerDone[A], complete map[int]bool) *Result[A] {
	out := &Result[A]{}
	// Loops that finish at one instant report in scheduling order; fix
	// it, since the merge keeps the first RTT in worker order.
	sort.SliceStable(order, func(i, j int) bool {
		if !order[i].end.Equal(order[j].end) {
			return order[i].end.Before(order[j].end)
		}
		return order[i].shard < order[j].shard
	})
	stores := make([]*trace.StoreOf[A], 0, len(order))
	for _, ev := range order {
		res, ws := ev.res, ev.ws
		stores = append(stores, res.Store)
		out.ProbesSent += res.ProbesSent
		out.PreprobeProbes += res.PreprobeProbes
		out.RetransmittedProbes += res.RetransmittedProbes
		out.DuplicateResponses += res.DuplicateResponses
		out.MismatchedResponses += res.MismatchedResponses
		out.UnparsedResponses += res.UnparsedResponses
		out.ReadErrors += res.ReadErrors
		out.SendErrors += res.SendErrors
		st := WorkerStats{
			Shard:        ev.shard,
			Vantage:      ev.vantage,
			Blocks:       r.shards[ev.shard].Blocks(),
			ProbesSent:   res.ProbesSent,
			StopReceived: ws.Received(),
			Resumed:      ev.resumed,
			Interrupted:  res.Interrupted,
		}
		out.StopReceived += st.StopReceived
		out.Workers = append(out.Workers, st)
	}
	for w := range r.shards {
		if !complete[w] {
			out.Interrupted = true
		}
	}
	if r.hub != nil {
		out.StopPublished = r.hub.Published()
	}
	r.mu.Lock()
	out.Migrations = r.migrations
	for _, ws := range r.workerSets {
		out.StopSetDegraded += ws.DegradedEpisodes()
	}
	r.mu.Unlock()
	out.Failures = r.failures
	out.Abandoned = append([]int(nil), r.abandoned...)
	sort.Ints(out.Abandoned)
	out.Store, out.MultiPaths = mergeStores(r.env.Fam, r.env.Base.CollectRoutes, stores)
	out.ScanTime = r.env.Clock.Now().Sub(r.start)
	return out
}

// discard receives the completions of the first n loops of a run whose
// start failed and releases their clock registrations.
func (r *Run[A]) discard(n int) {
	for i := 0; i < n; i++ {
		<-r.events
		r.env.Clock.DoneActor()
	}
}

// Wait blocks until the cluster scan completes and returns the merged
// result (a valid partial merge with Interrupted set after Cancel).
func (r *Run[A]) Wait() (*Result[A], error) {
	<-r.done
	return r.res, r.err
}

// Probes reports the live count of probes written across all worker
// loops: the finished loops' total plus each active engine's live
// counter. It is monotone, and after Wait it equals Result.ProbesSent
// for a run without migrations.
func (r *Run[A]) Probes() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.doneProbes
	for _, sc := range r.scanners {
		p, _ := sc.LiveCounters()
		n += p
	}
	return n
}

// Migrations reports the live shard-handoff count (post-scan it equals
// Result.Migrations).
func (r *Run[A]) Migrations() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.migrations
}

// StopSetDegraded reports the live count of local-only Doubletree
// episodes across all worker stop-set views.
func (r *Run[A]) StopSetDegraded() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n uint64
	for _, ws := range r.workerSets {
		n += ws.DegradedEpisodes()
	}
	return n
}

// SetRate retargets the aggregate probing rate, split across the worker
// loops the way the initial rate was (each engine then re-splits its
// share across its senders). The rate is recorded so a shard that is
// mid-migration when SetRate arrives — absent from the scanner table —
// still adopts it when its relaunched loop registers.
func (r *Run[A]) SetRate(pps int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rate = pps
	r.rateSet = true
	for shard, sc := range r.scanners {
		sc.SetRate(share(pps, len(r.shards), shard))
	}
}

// Cancel requests a graceful stop of every worker loop.
func (r *Run[A]) Cancel() {
	r.mu.Lock()
	r.canceled = true
	r.mu.Unlock()
	r.cancelAll()
}

func (r *Run[A]) cancelAll() {
	r.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(r.cancels))
	for _, c := range r.cancels {
		cancels = append(cancels, c)
	}
	r.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// KillWorker cancels the loop currently probing the given shard and
// marks it for migration: the coordinator resumes the shard's final
// checkpoint on a peer vantage. Reports whether a loop was killed.
func (r *Run[A]) KillWorker(shard int) bool {
	return r.failShard(shard, CauseKill)
}

// failShard declares the loop currently probing shard failed with the
// given cause and cancels it; the coordinator migrates the shard when
// the loop's final checkpoint arrives. Reports whether a live loop was
// marked (false: no active loop, the run was cancelled, or a failure is
// already pending for the shard).
func (r *Run[A]) failShard(shard int, cause FailureCause) bool {
	r.mu.Lock()
	cancel, ok := r.cancels[shard]
	if _, pending := r.failCause[shard]; !ok || r.canceled || pending {
		r.mu.Unlock()
		return false
	}
	r.failCause[shard] = cause
	r.mu.Unlock()
	cancel()
	return true
}

// Scan is Start + Wait: the blocking form.
func Scan[A comparable](ctx context.Context, env Env[A], opt Options) (*Result[A], error) {
	run, err := Start(ctx, env, opt)
	if err != nil {
		return nil, err
	}
	return run.Wait()
}
