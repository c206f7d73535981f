package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flashroute/flashroute/internal/permute"
	"github.com/flashroute/flashroute/internal/simclock"
	"github.com/flashroute/flashroute/internal/trace"
)

// ResultOf is what a scan produced.
type ResultOf[A comparable] struct {
	// Store holds discovered interfaces and (optionally) full routes.
	Store *trace.StoreOf[A]
	// ProbesSent is the total probe count, including preprobing and any
	// discovery-optimized extra scans (the paper's "Probes" columns).
	ProbesSent uint64
	// PreprobeProbes is the subset sent during the preprobing phase.
	PreprobeProbes uint64
	// ScanTime is the total wall (or virtual) time of the scan, including
	// preprobing and drains (the paper's "Scan time" columns).
	ScanTime time.Duration
	// Rounds is the number of main-scan rounds executed.
	Rounds int
	// DistancesMeasured / DistancesPredicted count blocks whose split
	// point came from a direct measurement / a proximity-span prediction.
	DistancesMeasured  int
	DistancesPredicted int
	// Measured[block] is the preprobe-measured hop distance (0 = none);
	// Predicted[block] the prediction used when measurement was absent.
	Measured  []uint8
	Predicted []uint8
	// MismatchedResponses counts responses dropped because the quoted
	// source port did not match the checksum of the quoted destination —
	// in-flight destination modification (§5.3).
	MismatchedResponses uint64
	// UnparsedResponses counts packets the receiver could not interpret.
	UnparsedResponses uint64
	// RetransmittedProbes is the subset of ProbesSent re-issued by
	// loss-tolerance machinery: preprobe retry passes and forward-gap
	// rewinds (Config.PreprobeRetries / Config.ForwardRetries).
	RetransmittedProbes uint64
	// DuplicateResponses counts responses discarded because an identical
	// (destination, TTL) reply had already been processed this pass —
	// duplicated or retransmit-elicited ICMP.
	DuplicateResponses uint64
	// ReadErrors counts transport read failures (not EOF). Distinct from
	// UnparsedResponses: a read error is the socket failing, not a packet
	// we could not interpret.
	ReadErrors uint64
	// SendErrors counts probes abandoned because WritePacket failed
	// permanently or exhausted Config.SendRetries; SendRetries counts the
	// retry attempts made for transient write errors (each retried probe
	// contributes one per attempt).
	SendErrors  uint64
	SendRetries uint64
	// CheckpointErrors counts CheckpointSink failures — snapshots the
	// sink could not persist (the scan continues regardless).
	CheckpointErrors uint64
	// Interrupted reports that the scan was cancelled before completing;
	// the result is the valid partial state at cancellation (plus the
	// CancelGrace drain).
	Interrupted bool
}

// Result is an IPv4 scan result.
type Result = ResultOf[uint32]

// ScannerOf runs FlashRoute scans over a PacketConn, generic over the
// address family: wire formats come from the Family, everything else —
// scheduling, rounds, sharded senders, retries, dedup, the stop set — is
// shared across instantiations.
type ScannerOf[A comparable] struct {
	cfg   ConfigOf[A]
	fam   Family[A]
	conn  PacketConn
	clock simclock.Waiter

	start time.Time

	dcbs   []dcbOf[A]
	locks  dcbLocks
	splits []uint8
	order  []uint32

	// shards partitions the permuted order among the sending goroutines.
	// With Config.Senders == 1 there is exactly one shard, run inline on
	// the Run goroutine — the paper's single-sender configuration.
	shards []*senderShardOf[A]

	// stop set: interfaces already discovered; backward probing
	// terminates upon encountering one (§3.2). The default is the local
	// sharded implementation (receive.go): a single unlocked map owned by
	// the receiver thread at Receivers == 1, sharded by address hash
	// above that. Config.StopSet substitutes a custom implementation
	// (the cluster's globally shared set).
	stopSet StopSet[A]

	distMu   sync.Mutex
	measured []uint8
	phase    atomic.Int32 // 0 = preprobing, 1 = main

	scanOffset atomic.Uint32 // source-port offset of the current scan pass

	store *trace.StoreOf[A]

	// slotDiv maps a reply's block to its store slot: block / slotDiv,
	// where slotDiv is the receiver count (worker i owns blocks ≡ i mod R,
	// so block/R is unique within a stripe; 1 in single-receiver mode).
	slotDiv int

	// sharded receive pipeline (Config.Receivers > 1): the workers, their
	// EOF join counter, and the striped store merged into the result when
	// the scan ends. All nil/zero in the classic single-receiver mode.
	recvWorkers []*recvWorkerOf[A]
	recvEOF     atomic.Int32
	striped     *trace.StripedStoreOf[A]

	mismatched   atomic.Uint64
	unparsed     atomic.Uint64
	dupResponses atomic.Uint64
	readErrors   atomic.Uint64
	sendErrors   atomic.Uint64
	sendRetries  atomic.Uint64

	// Live progress counters for external watchdogs (LiveCounters):
	// liveProbes advances on every successfully written probe,
	// liveReplies on every processed reply. A supervisor that samples
	// both and sees neither move across a deadline has a stalled worker.
	liveProbes  atomic.Uint64
	liveReplies atomic.Uint64

	// Transport-death latch (Config.AbortOnSendErrors): sendErrBase is
	// the restored error count a resumed run starts from (the threshold
	// counts only this run's failures), transportDead flips once the
	// threshold is reached, tdErr keeps the first fatal write error.
	sendErrBase   uint64
	transportDead atomic.Bool
	tdMu          sync.Mutex
	tdErr         error

	// Graceful shutdown: ctx is non-nil only for cancellable contexts
	// (so the paper-faithful Run path costs one atomic load per check);
	// cancelled latches the first observation of ctx.Err() — polled, not
	// watched, so cancellation lands at deterministic points.
	ctx       context.Context
	cancelled atomic.Bool

	// ckpt is non-nil when checkpointing is armed (CheckpointSink set).
	ckpt *ckptState

	// resume positions Run mid-scan after a checkpoint restore; base
	// carries the interrupted run's totals. preprobeProbes is the
	// preprobing phase's cumulative probe count, fixed at the phase
	// transition (written before the main phase's senders start).
	resume         *resumeInfo
	base           baseCounters
	preprobeProbes uint64

	// obsMu serializes Config.Observer callbacks when several senders are
	// probing concurrently, so observers need not be thread-safe.
	obsMu sync.Mutex

	// Live rate control (SetRate): ratePPS holds the current aggregate
	// rate and rateGen its generation; each sender shard re-derives its
	// pacer share when it observes a generation it has not seen. At
	// generation zero Config.PPS is authoritative (see currentPPS), so
	// fixed-rate scans behave bit-identically to the engine before this
	// knob existed.
	ratePPS atomic.Int64
	rateGen atomic.Uint32

	// phaseParker and phaseDone coordinate the join at the end of each
	// sending phase when Senders > 1: finished senders unpark the Run
	// goroutine, which parks (staying visible to the virtual clock)
	// until every shard has reported in.
	phaseParker *simclock.Parker
	phaseDone   atomic.Int32

	// adopted marks a RunActor scan: the calling goroutine arrives
	// registered on the clock and leaves still registered. recvParker is
	// where its sender waits for the receivers to exit.
	adopted    bool
	recvParker *simclock.Parker
}

// Scanner is the IPv4 scanner.
type Scanner = ScannerOf[uint32]

// senderShardOf is the per-sender slice of the probing workload: a
// contiguous chunk of the permuted destination order plus all the state
// one sending goroutine touches without synchronization — its packet
// buffer, probe counter and pacer. DCB probing fields stay shared with
// the receiver and are guarded by the per-DCB locks; the linked-list
// overlay built over a shard's order is traversed by that shard alone.
type senderShardOf[A comparable] struct {
	s     *ScannerOf[A]
	idx   int      // shard index, for the live-rate re-split
	order []uint32 // contiguous slice of the scan-order permutation

	probesSent  uint64
	retransmits uint64
	rounds      int
	pacer       simclock.Pacer
	rateSeen    uint32 // last rateGen this shard's pacer was derived from
	pktBuf      [maxProbeBuf]byte

	// Batched-write state (Config.Batch > 1 on a BatchWriter transport;
	// see batch.go): built probes accumulate in the preallocated arena —
	// pkts[i] views slot i, metas[i] remembers how to rebuild it with a
	// fresh timestamp — and are written Config.Batch at a time, or earlier
	// at every point the shard would block. stamp is the send time every
	// probe of the current arena carries, read when slot 0 was built. All
	// nil/zero when unbatched.
	bw      BatchWriter
	arena   []byte
	pkts    [][]byte
	metas   []probeMeta[A]
	nbuf    int
	stamp   time.Duration
	flushFn func() // bound sh.flush, allocated once (paceFlush hook)
}

// probeMeta is the recipe for rebuilding an arena slot's probe: retries
// after a backoff sleep must re-stamp the packet's embedded send time
// (§3.1) or derived RTTs would include the backoff.
type probeMeta[A comparable] struct {
	dst      A
	ttl      uint8
	preprobe bool
	off      uint16
}

// NewScanner validates the configuration and prepares an IPv4 scanner.
func NewScanner(cfg Config, conn PacketConn, clock simclock.Waiter) (*Scanner, error) {
	return NewScannerOf[uint32](ipv4Family{}, cfg, conn, clock)
}

// NewScannerOf validates the configuration and prepares a scanner over
// the given address family.
func NewScannerOf[A comparable](fam Family[A], cfg ConfigOf[A], conn PacketConn, clock simclock.Waiter) (*ScannerOf[A], error) {
	if cfg.Blocks <= 0 {
		return nil, errors.New("core: Config.Blocks must be positive")
	}
	if cfg.Targets == nil || cfg.BlockOf == nil {
		return nil, errors.New("core: Config.Targets and Config.BlockOf are required")
	}
	if cfg.MaxTTL == 0 || cfg.MaxTTL > fam.MaxTTL() {
		return nil, fmt.Errorf("core: MaxTTL must be in 1..%d", fam.MaxTTL())
	}
	if cfg.SplitTTL == 0 || cfg.SplitTTL > cfg.MaxTTL {
		return nil, errors.New("core: SplitTTL must be in 1..MaxTTL")
	}
	if cfg.Preprobe == PreprobeHitlist && cfg.PreprobeTargets == nil {
		return nil, errors.New("core: PreprobeHitlist requires PreprobeTargets")
	}
	if cfg.DrainWait <= 0 {
		cfg.DrainWait = 2 * time.Second
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 500 * time.Millisecond
	}
	if cfg.ForwardRetries > 255 {
		cfg.ForwardRetries = 255 // stored per DCB in a uint8
	}
	if cfg.MinRoundTime <= 0 {
		cfg.MinRoundTime = time.Second
	}
	if cfg.SendRetries == 0 {
		cfg.SendRetries = 3
	} else if cfg.SendRetries < 0 {
		cfg.SendRetries = 0
	}
	if cfg.CancelGrace <= 0 {
		cfg.CancelGrace = cfg.DrainWait
	}
	if cfg.CheckpointEvery < 0 {
		cfg.CheckpointEvery = 0
	}
	if cfg.Batch < 0 {
		cfg.Batch = 0
	}
	if cfg.Batch > maxBatch {
		cfg.Batch = maxBatch
	}
	if cfg.Exhaustive {
		// The Yarrp-simulation mode probes every hop unconditionally; a
		// stop set would contradict it (§4.2.1).
		cfg.NoRedundancyElimination = true
		cfg.Preprobe = PreprobeOff
	}
	if cfg.Senders <= 0 {
		cfg.Senders = 1
	}
	if cfg.Receivers <= 0 {
		cfg.Receivers = 1
	}
	if cfg.Receivers > 1 && cfg.NewReader == nil {
		return nil, errors.New("core: Receivers > 1 requires Config.NewReader")
	}
	// Store pre-sizing: one route record slot per block and, empirically,
	// around one interface per two blocks for the open-addressed set; the
	// stop set additionally holds reached destinations.
	ifaceHint := cfg.Blocks / 2
	stopSet := cfg.StopSet
	if stopSet == nil {
		stopSet = newStopSet(fam, cfg.Receivers, cfg.Blocks)
	}
	s := &ScannerOf[A]{
		cfg:         cfg,
		fam:         fam,
		conn:        conn,
		clock:       clock,
		dcbs:        make([]dcbOf[A], cfg.Blocks),
		splits:      make([]uint8, cfg.Blocks),
		stopSet:     stopSet,
		phaseParker: clock.NewParker(),
		recvParker:  clock.NewParker(),
	}
	if cfg.CheckpointSink != nil {
		s.ckpt = &ckptState{
			every:    uint64(cfg.CheckpointEvery),
			interval: cfg.CheckpointInterval,
			sink:     cfg.CheckpointSink,
		}
	}
	switch cfg.LockMode {
	case LockMutex:
		s.locks = newMutexLocks(cfg.Blocks)
	case LockSpin:
		s.locks = newSpinLocks(cfg.Blocks)
	default:
		return nil, fmt.Errorf("core: unknown LockMode %d", cfg.LockMode)
	}
	if r := cfg.Receivers; r == 1 {
		s.slotDiv = 1
		s.store = trace.NewSlotStoreOf[A](cfg.CollectRoutes, fam.FormatAddr,
			fam.AddrLess, fam.HashAddr, cfg.Blocks, ifaceHint)
	} else {
		s.slotDiv = r
		s.striped = trace.NewStripedStoreOf[A](r, cfg.CollectRoutes,
			fam.FormatAddr, fam.AddrLess, fam.HashAddr, cfg.Blocks, ifaceHint)
		s.recvWorkers = make([]*recvWorkerOf[A], r)
		for i := range s.recvWorkers {
			w := &recvWorkerOf[A]{
				s:       s,
				idx:     i,
				reader:  cfg.NewReader(),
				parker:  clock.NewParker(),
				store:   s.striped.Stripe(i),
				scratch: make([]dispatchedReply[A], 0, 64),
			}
			if cfg.Batch > 1 {
				if br, ok := w.reader.(BatchReader); ok {
					w.batch = br
					w.bufs, w.sizes = makeRecvArena(cfg.Batch)
				}
			}
			s.recvWorkers[i] = w
		}
	}
	return s, nil
}

// makeShards splits the permuted order into Config.Senders contiguous
// slices, each with its own pacer carrying an equal share of the
// aggregate Config.PPS budget.
func (s *ScannerOf[A]) makeShards() {
	k := s.cfg.Senders
	if k > len(s.order) {
		k = len(s.order)
	}
	if k < 1 {
		k = 1
	}
	s.shards = make([]*senderShardOf[A], k)
	var bw BatchWriter
	if s.cfg.Batch > 1 {
		if w, ok := s.conn.(BatchWriter); ok {
			bw = w
		}
	}
	chunk := (len(s.order) + k - 1) / k
	total := s.currentPPS()
	base, rem := 0, 0
	if total > 0 {
		base, rem = total/k, total%k
	}
	for i := range s.shards {
		lo := i * chunk
		hi := lo + chunk
		if hi > len(s.order) {
			hi = len(s.order)
		}
		pps := base
		if i < rem {
			pps++
		}
		if total > 0 && pps == 0 {
			pps = 1 // more senders than packets per second: floor at 1
		}
		sh := &senderShardOf[A]{
			s:        s,
			idx:      i,
			order:    s.order[lo:hi],
			pacer:    simclock.NewPacer(s.clock, pps),
			rateSeen: s.rateGen.Load(),
		}
		if bw != nil {
			sh.bw = bw
			sh.arena = make([]byte, s.cfg.Batch*maxProbeBuf)
			sh.pkts = make([][]byte, s.cfg.Batch)
			sh.metas = make([]probeMeta[A], s.cfg.Batch)
			sh.flushFn = sh.flush
		}
		s.shards[i] = sh
	}
}

// SetRate retargets the aggregate probing rate, mid-scan included: the
// new rate is re-split across the sender shards exactly as Config.PPS
// was at startup, each shard adopting its new share at its next probe.
// Safe to call from any goroutine at any time (before Run included).
// pps < 1 is clamped to 1 — SetRate reshapes pacing, it cannot remove it
// (on a virtual clock an unthrottled sender would never yield), and a
// floor of one probe per second is an effective pause for any real scan.
// Retargeting to the rate already in effect is a no-op: the shards keep
// their pacers, deadline anchors included, so the scan is timed exactly
// as if SetRate had not been called.
func (s *ScannerOf[A]) SetRate(pps int) {
	if pps < 1 {
		pps = 1
	}
	if pps == s.currentPPS() {
		return
	}
	s.ratePPS.Store(int64(pps))
	s.rateGen.Add(1)
}

// currentPPS is the aggregate rate in effect: Config.PPS until the first
// SetRate, the last SetRate value after. The generation check keeps
// zero-value-constructed scanners (tests build them without NewScannerOf,
// so ratePPS was never seeded) on their configured rate.
func (s *ScannerOf[A]) currentPPS() int {
	if s.rateGen.Load() == 0 {
		return s.cfg.PPS
	}
	return int(s.ratePPS.Load())
}

// shardPPS is shard idx's share of the current aggregate rate — the same
// base/remainder split makeShards applies, recomputed live.
func (s *ScannerOf[A]) shardPPS(idx int) int {
	pps := s.currentPPS()
	k := len(s.shards)
	out := pps / k
	if idx < pps%k {
		out++
	}
	if out < 1 {
		out = 1
	}
	return out
}

// pollRate adopts a pending SetRate: one predictable atomic load per
// probe, rebuilding the shard's pacer only when the generation moved.
func (sh *senderShardOf[A]) pollRate() {
	if gen := sh.s.rateGen.Load(); gen != sh.rateSeen {
		sh.rateSeen = gen
		sh.pacer.SetRate(sh.s.shardPPS(sh.idx))
	}
}

// eachShard runs one sending phase: fn over every shard, inline on the
// Run goroutine for a single sender (the deterministic paper
// configuration takes exactly the pre-sharding code path), or on one
// clock-registered goroutine per extra shard otherwise. It returns once
// every shard's phase has completed.
func (s *ScannerOf[A]) eachShard(fn func(*senderShardOf[A])) {
	if len(s.shards) == 1 {
		fn(s.shards[0])
		return
	}
	s.phaseDone.Store(0)
	for _, sh := range s.shards[1:] {
		s.clock.AddActor()
		go func(sh *senderShardOf[A]) {
			fn(sh)
			s.phaseDone.Add(1)
			// Unpark before DoneActor: Run may be parked with no deadline,
			// and the virtual clock must see its pending wake before this
			// actor leaves, or it would diagnose a deadlock.
			s.clock.Unpark(s.phaseParker)
			s.clock.DoneActor()
		}(sh)
	}
	fn(s.shards[0])
	for int(s.phaseDone.Load()) < len(s.shards)-1 {
		s.clock.Park(s.phaseParker, time.Time{})
	}
}

// probesSentTotal sums the per-shard counters. Only call between phases
// (senders quiescent).
func (s *ScannerOf[A]) probesSentTotal() uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += sh.probesSent
	}
	return n
}

// noteRetransmits accounts n retransmitted probes, mirroring the
// unsynchronized per-shard counter into the armed checkpoint mirror.
func (sh *senderShardOf[A]) noteRetransmits(n uint64) {
	sh.retransmits += n
	if ck := sh.s.ckpt; ck != nil {
		ck.retrans.Add(n)
	}
}

// retransmitsTotal sums the per-shard retransmit counters. Only call
// between phases (senders quiescent).
func (s *ScannerOf[A]) retransmitsTotal() uint64 {
	var n uint64
	for _, sh := range s.shards {
		n += sh.retransmits
	}
	return n
}

// fwdTick quantizes scan-relative time to the 16 ms ticks of
// dcb.lastForward (kept to 16 bits so the DCB stays within its
// paper-§3.4 size budget).
func (s *ScannerOf[A]) fwdTick() uint16 {
	return uint16(s.clock.Now().Sub(s.start) / (16 * time.Millisecond))
}

// Run executes the scan: optional preprobing, the main probing rounds, and
// any discovery-optimized extra scans. Run must be called from a goroutine
// that is NOT registered as a clock actor; it registers the sender and
// receiver itself.
func (s *ScannerOf[A]) Run() (*ResultOf[A], error) {
	return s.RunContext(context.Background())
}

// RunActor is RunContext for a caller that is already a registered actor
// on the scanner's clock (AddActor before its goroutine started). The scan
// adopts that registration for its sender instead of taking a new one,
// and returns with it still held; the caller releases it with DoneActor.
// On the virtual clock no time can then pass between the caller's launch
// and the scan's first step, nor between its last reply and whatever the
// caller does with the result — how a supervisor starts and retires
// several scanners at deterministic instants of one shared clock.
func (s *ScannerOf[A]) RunActor(ctx context.Context) (*ResultOf[A], error) {
	s.adopted = true
	return s.RunContext(ctx)
}

// canceled reports whether the scan has been cancelled. The first
// observation of a cancelled context latches, so later checks cost one
// atomic load.
func (s *ScannerOf[A]) canceled() bool {
	if s.cancelled.Load() {
		return true
	}
	if s.ctx != nil && s.ctx.Err() != nil {
		s.cancelled.Store(true)
		return true
	}
	return false
}

// RunContext is Run with graceful cancellation: when ctx is cancelled the
// senders stop at their next probing step, the receivers keep draining
// in-flight replies for Config.CancelGrace, and the partial state is
// returned as a valid Result (Interrupted set) — with a final checkpoint
// written when checkpointing is armed, so the scan can be resumed.
func (s *ScannerOf[A]) RunContext(ctx context.Context) (*ResultOf[A], error) {
	if ctx != nil && ctx.Done() != nil {
		s.ctx = ctx
	}
	s.start = s.clock.Now()
	if s.ckpt != nil && s.ckpt.interval > 0 {
		s.ckpt.nextAt.Store(int64(s.ckpt.interval))
	}

	// The random permutation threading the DCBs (paper §3.2, §3.4).
	perm := permute.NewFeistel(uint64(s.cfg.Blocks), uint64(s.cfg.Seed)^s.fam.PermSalt())
	s.order = make([]uint32, 0, s.cfg.Blocks)
	for i := uint64(0); i < uint64(s.cfg.Blocks); i++ {
		b := uint32(perm.Map(i))
		if s.cfg.Skip != nil && s.cfg.Skip(int(b)) {
			s.dcbs[b].flags |= dcbRemoved
			continue
		}
		s.order = append(s.order, b)
	}
	s.makeShards()

	// Register the sender (this goroutine) before the receiver can start:
	// a receiver that parks while it is the only registered actor would
	// look like a deadlock to the virtual clock. A RunActor caller is
	// registered already.
	if !s.adopted {
		s.clock.AddActor()
	}

	// Receiver side (decoupled from sending, §3.2). One receiver runs the
	// classic inline loop; Receivers > 1 runs the sharded receive pipeline
	// of receive.go, one clock-registered goroutine per worker. The last
	// receiver to exit closes recvDone and unparks the sender before it
	// leaves the clock, so no instant passes in between.
	recvDone := make(chan struct{})
	var recvLeft atomic.Int32
	recvExit := func() {
		if recvLeft.Add(-1) == 0 {
			close(recvDone)
			s.clock.Unpark(s.recvParker)
		}
		s.clock.DoneActor()
	}
	if len(s.recvWorkers) > 0 {
		recvLeft.Store(int32(len(s.recvWorkers)))
		for _, w := range s.recvWorkers {
			s.clock.AddActor()
			go func(w *recvWorkerOf[A]) {
				defer recvExit()
				w.loop()
			}(w)
		}
	} else {
		recvLeft.Store(1)
		s.clock.AddActor()
		go func() {
			defer recvExit()
			s.receiveLoop()
		}()
	}

	usePre := s.cfg.Preprobe != PreprobeOff && !s.cfg.Exhaustive
	resumedMain := s.resume != nil && s.resume.phase == 1
	if usePre && !resumedMain {
		if s.measured == nil {
			s.measured = make([]uint8, s.cfg.Blocks)
		}
		if s.resume != nil {
			// Resuming mid-preprobe: the restored measured[] holds every
			// distance whose reply was processed before the crash; replies
			// to the rest were lost with the dead run's socket, so one
			// retry pass re-probes exactly the unmeasured blocks.
			s.eachShard((*senderShardOf[A]).runPreprobeRetry)
		} else {
			s.eachShard((*senderShardOf[A]).runPreprobe)
		}
		s.clock.Sleep(s.cfg.DrainWait)
		// Preprobe retransmission: blocks still unmeasured after the
		// drain either genuinely cannot answer or lost a packet; re-probe
		// them up to PreprobeRetries times so one lost reply does not
		// silently downgrade the block's split point.
		for r := 0; r < s.cfg.PreprobeRetries && !s.canceled(); r++ {
			before := s.retransmitsTotal()
			s.eachShard((*senderShardOf[A]).runPreprobeRetry)
			if s.retransmitsTotal() == before {
				break // every candidate block is measured
			}
			s.clock.Sleep(s.cfg.DrainWait)
		}
	}
	s.distMu.Lock()
	s.phase.Store(1)
	s.distMu.Unlock()

	res := &ResultOf[A]{Store: s.store}
	if usePre {
		if resumedMain {
			res.PreprobeProbes = s.preprobeProbes
		} else {
			res.PreprobeProbes = s.base.probes + s.probesSentTotal()
			s.preprobeProbes = res.PreprobeProbes
		}
		res.Measured = s.measured
		res.Predicted = make([]uint8, s.cfg.Blocks)
		s.predictDistances(res)
	}

	startPass := 0
	if resumedMain {
		startPass = int(s.resume.pass)
		s.rewindDCBs(startPass)
	} else {
		s.initDCBs(res)
	}
	for pass := startPass; pass <= s.cfg.ExtraScans && !s.canceled(); pass++ {
		if pass > 0 {
			s.scanOffset.Store(uint32(pass))
			if !(resumedMain && pass == startPass) {
				// The resumed pass keeps its restored (rewound) DCB state;
				// resetForExtraScan would restart the pass from scratch and
				// clear its reply dedup.
				s.resetForExtraScan(pass)
			}
		}
		s.runScanPass(uint16(pass))
		s.clock.Sleep(s.cfg.DrainWait)
	}

	res.Interrupted = s.cancelled.Load()
	if res.Interrupted {
		// Grace drain: the senders have stopped, but replies to the last
		// probes are still in flight. Keep the receivers fed so the
		// partial result (and the final checkpoint) includes them.
		s.clock.Sleep(s.cfg.CancelGrace)
	}
	res.ScanTime = s.base.scanTime + s.clock.Now().Sub(s.start)
	// Close the conn first so the receivers (possibly parked waiting for
	// packets) wake to their EOF before the sender leaves the clock.
	s.conn.Close()
	if s.adopted {
		// Keep the caller's registration: wait parked, so the clock can
		// still advance for the receivers' final deliveries.
		for recvLeft.Load() > 0 {
			s.clock.Park(s.recvParker, time.Time{})
		}
	} else {
		s.clock.DoneActor()
		<-recvDone
	}
	if s.striped != nil {
		// Union is a read view over the stripes: routes stay in place and
		// emit k-way merges them, so result construction no longer builds
		// a second copy of the topology.
		res.Store = s.striped.Union()
	}

	res.ProbesSent = s.base.probes + s.probesSentTotal()
	res.Rounds = s.base.rounds
	for _, sh := range s.shards {
		if s.base.rounds+sh.rounds > res.Rounds {
			res.Rounds = s.base.rounds + sh.rounds
		}
	}
	res.MismatchedResponses = s.mismatched.Load()
	res.UnparsedResponses = s.unparsed.Load()
	res.RetransmittedProbes = s.base.retransmits + s.retransmitsTotal()
	res.DuplicateResponses = s.dupResponses.Load()
	res.ReadErrors = s.readErrors.Load()
	res.SendErrors = s.sendErrors.Load()
	res.SendRetries = s.sendRetries.Load()
	if s.ckpt != nil {
		// Final snapshot: every goroutine has joined, so encode from the
		// merged result store with no locking. A completed scan's snapshot
		// is marked complete and refuses to resume.
		s.writeCheckpoint(true, !res.Interrupted, res.Store)
		res.CheckpointErrors = s.ckpt.errs.Load()
	}
	if s.transportDead.Load() {
		// The abort threshold tripped: the partial result (and final
		// checkpoint) above are valid, but the caller must know the scan
		// did not merely get cancelled — its transport is dead.
		s.tdMu.Lock()
		last := s.tdErr
		s.tdMu.Unlock()
		return res, fmt.Errorf("%w: %d probes dropped (last write error: %v)",
			ErrTransportDead, res.SendErrors, last)
	}
	return res, nil
}

// runScanPass runs one full probing pass (the main scan or one extra
// scan) across all sender shards concurrently.
func (s *ScannerOf[A]) runScanPass(srcPortOffset uint16) {
	s.eachShard(func(sh *senderShardOf[A]) { sh.runRounds(srcPortOffset) })
}

// runPreprobe sends one TTL-MaxTTL probe to every block of the shard's
// preprobe targets (§3.3.1). The caller drains after all shards finish.
func (sh *senderShardOf[A]) runPreprobe() {
	s := sh.s
	targets := s.cfg.Targets
	if s.cfg.Preprobe == PreprobeHitlist {
		targets = s.cfg.PreprobeTargets
	}
	var zero A
	sh.pacer.Reset()
	defer sh.flush() // phase end or cancel: no probe stays buffered
	for _, b := range sh.order {
		if s.canceled() {
			return
		}
		dst := targets(int(b))
		if dst == zero {
			continue // no preprobe candidate for this block
		}
		sh.sendProbe(dst, s.cfg.MaxTTL, true, 0)
	}
}

// runPreprobeRetry re-sends the preprobe to the shard's still-unmeasured
// blocks (one retry pass; the caller drains and decides whether to run
// another).
func (sh *senderShardOf[A]) runPreprobeRetry() {
	s := sh.s
	targets := s.cfg.Targets
	if s.cfg.Preprobe == PreprobeHitlist {
		targets = s.cfg.PreprobeTargets
	}
	var zero A
	sh.pacer.Reset()
	defer sh.flush()
	for _, b := range sh.order {
		if s.canceled() {
			return
		}
		s.distMu.Lock()
		measured := s.measured[b] != 0
		s.distMu.Unlock()
		if measured {
			continue
		}
		dst := targets(int(b))
		if dst == zero {
			continue
		}
		sh.sendProbe(dst, s.cfg.MaxTTL, true, 0)
		sh.noteRetransmits(1)
	}
}

// predictDistances fills Predicted for unmeasured blocks: via the
// Config.Predict hook when supplied (the IPv6 same-/48 rule), else from
// the nearest measured block within ProximitySpan on either side
// (§3.3.3).
func (s *ScannerOf[A]) predictDistances(res *ResultOf[A]) {
	n := s.cfg.Blocks
	if s.cfg.Predict != nil {
		s.cfg.Predict(s.measured, res.Predicted)
		for b := 0; b < n; b++ {
			if s.measured[b] != 0 {
				res.DistancesMeasured++
			} else if res.Predicted[b] != 0 {
				res.DistancesPredicted++
			}
		}
		return
	}
	span := s.cfg.ProximitySpan
	for b := 0; b < n; b++ {
		if s.measured[b] != 0 {
			res.DistancesMeasured++
			continue
		}
		for d := 1; d <= span; d++ {
			if b-d >= 0 && s.measured[b-d] != 0 {
				res.Predicted[b] = s.measured[b-d]
				break
			}
			if b+d < n && s.measured[b+d] != 0 {
				res.Predicted[b] = s.measured[b+d]
				break
			}
		}
		if res.Predicted[b] != 0 {
			res.DistancesPredicted++
		}
	}
}

// initDCBs sets every destination's split point and probing bounds
// (§3.3.5, §3.4).
func (s *ScannerOf[A]) initDCBs(res *ResultOf[A]) {
	fold := s.cfg.foldsPreprobe() && s.cfg.Preprobe != PreprobeOff && !s.cfg.Exhaustive
	for _, b := range s.order {
		d := &s.dcbs[b]
		// Straggler preprobe replies may still be arriving; the receiver
		// touches dcbPreSeen under the per-DCB lock, so take it here too.
		s.locks.lock(b)
		d.dest = s.cfg.Targets(int(b))

		split := s.cfg.SplitTTL
		measured := false
		if s.measured != nil {
			if m := s.measured[b]; m != 0 {
				split, measured = m, true
			} else if p := res.Predicted[b]; p != 0 {
				split = p
			}
		}
		if s.cfg.Exhaustive {
			split = s.cfg.MaxTTL
		}
		if split < 1 {
			split = 1
		}
		if split > s.cfg.MaxTTL {
			split = s.cfg.MaxTTL
		}
		s.splits[b] = split

		d.nextBackward = split
		if fold && !measured && split == s.cfg.MaxTTL {
			// The preprobe at MaxTTL already served as the first round
			// (§3.3.5); main probing starts one hop lower.
			d.nextBackward = s.cfg.MaxTTL - 1
		}
		d.nextForward = split + 1
		d.forwardHorizon = split + s.cfg.GapLimit
		if d.forwardHorizon > s.cfg.MaxTTL {
			d.forwardHorizon = s.cfg.MaxTTL
		}
		if s.cfg.Exhaustive {
			d.flags |= dcbForwardDone
		}
		if fold && measured {
			// The destination already answered the preprobe: the forward
			// direction's goal (reaching the target) is met.
			d.flags |= dcbForwardDone
		}
		s.locks.unlock(b)
	}
}

// resetForExtraScan re-arms every DCB for a discovery-optimized extra scan
// (§5.2): backward-only probing from a random starting TTL, sharing the
// accumulated stop set.
func (s *ScannerOf[A]) resetForExtraScan(i int) {
	h := uint64(s.cfg.Seed)*0x9e3779b97f4a7c15 + uint64(i)*0xd6e8feb86659fd93
	var zero A
	for _, b := range s.order {
		d := &s.dcbs[b]
		z := h + uint64(b)*0xa0761d6478bd642f
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z ^= z >> 31
		s.locks.lock(b)
		if s.cfg.ExtraScanTargets != nil {
			// §5.4: vary the destination address within the block across
			// extra scans to expose address-dependent internal paths.
			if alt := s.cfg.ExtraScanTargets(int(b), i); alt != zero {
				d.dest = alt
			}
		}
		limit := uint64(s.cfg.MaxTTL)
		if s.cfg.AdaptiveExtraScans && d.routeLen > 0 {
			// §5.4: alternate routes rarely differ drastically in length;
			// bound the random start by the observed length plus slack.
			limit = uint64(d.routeLen) + 5
			if limit > uint64(s.cfg.MaxTTL) {
				limit = uint64(s.cfg.MaxTTL)
			}
		}
		start := uint8(z%limit) + 1
		d.nextBackward = start
		d.nextForward = start + 1
		d.forwardHorizon = 0 // no forward probing in extra scans
		d.flags = dcbForwardDone
		d.respSeen = 0 // each pass dedups its own replies
		d.fwRetries = 0
		s.splits[b] = start
		s.locks.unlock(b)
	}
}

// runRounds executes probing rounds over the shard's destinations until
// every one completes (§3.2): per round, up to one backward and one
// forward probe per destination, issued back-to-back; rounds last at
// least one second so responses can adjust the strategy between a
// destination's consecutive steps.
func (sh *senderShardOf[A]) runRounds(srcPortOffset uint16) {
	s := sh.s
	l := buildList(s.dcbs, sh.order)
	sh.pacer.Reset()
	defer sh.flush()
	for l.size > 0 {
		roundStart := s.clock.Now()
		cur := l.head
		n := l.size
		for i := 0; i < n && l.size > 0; i++ {
			if s.canceled() {
				return
			}
			d := &l.dcbs[cur]
			next := d.next

			var bw, fw uint8
			s.locks.lock(cur)
			if d.nextBackward > 0 {
				bw = d.nextBackward
				d.nextBackward--
			}
			if d.flags&dcbForwardDone == 0 && d.nextForward <= d.forwardHorizon {
				fw = d.nextForward
				d.nextForward++
				if s.cfg.ForwardRetries > 0 {
					d.lastForward = s.fwdTick()
				}
			}
			dst := d.dest
			s.locks.unlock(cur)

			if bw > 0 {
				sh.sendProbe(dst, bw, false, srcPortOffset)
			}
			if fw > 0 {
				sh.sendProbe(dst, fw, false, srcPortOffset)
			}
			if bw == 0 && fw == 0 {
				// No work this round: re-check completion under the lock
				// (a response may have just extended the horizon).
				retried := 0
				s.locks.lock(cur)
				done := d.nextBackward == 0 &&
					(d.flags&dcbForwardDone != 0 || d.nextForward > d.forwardHorizon)
				if done && s.cfg.ForwardRetries > 0 && s.cfg.GapLimit > 0 &&
					d.flags&dcbForwardDone == 0 && d.forwardHorizon > 0 {
					// The whole gap went silent without the destination
					// answering. On a lossy network that can mean a lost
					// reply rather than genuinely silent hops: give
					// in-flight replies ForwardTimeout to arrive, then
					// rewind and re-probe the silent gap.
					wait := uint16((s.cfg.ForwardTimeout + 15*time.Millisecond) / (16 * time.Millisecond))
					if s.fwdTick()-d.lastForward < wait {
						done = false // replies may still be in flight
					} else if d.fwRetries < uint8(s.cfg.ForwardRetries) {
						d.fwRetries++
						lo := int(d.forwardHorizon) - int(s.cfg.GapLimit) + 1
						if min := int(s.splits[cur]) + 1; lo < min {
							lo = min
						}
						if lo <= int(d.forwardHorizon) {
							retried = int(d.forwardHorizon) - lo + 1
							d.nextForward = uint8(lo)
							done = false
						}
					}
				}
				if done {
					// Unlink under the lock: remove sets dcbRemoved in
					// flags, which the receiver reads and writes.
					l.remove(cur)
				}
				s.locks.unlock(cur)
				if retried > 0 {
					sh.noteRetransmits(uint64(retried))
				}
			}
			cur = next
		}
		sh.rounds++
		if rem := s.cfg.MinRoundTime - s.clock.Now().Sub(roundStart); rem > 0 {
			sh.flush() // round gap: write out before blocking
			s.clock.Sleep(rem)
			sh.pacer.Reset()
		}
	}
}

// isTemporary reports whether a send error is transient — the net.Error
// Temporary convention, matched structurally so the engine needs no
// transport imports.
func isTemporary(err error) bool {
	var t interface{ Temporary() bool }
	return errors.As(err, &t) && t.Temporary()
}

// ErrTransportDead is wrapped by the error RunContext returns when
// Config.AbortOnSendErrors probes were dropped: the transport is
// considered dead and the (partial, checkpointed) scan aborted.
var ErrTransportDead = errors.New("core: transport dead")

// noteSendError accounts one permanently dropped probe and, when
// Config.AbortOnSendErrors is armed, aborts the scan through the
// graceful-cancel path once the threshold of this run's failures is
// reached — the senders stop at their next probing step, the receivers
// drain, the final checkpoint is written, and RunContext surfaces
// ErrTransportDead.
func (s *ScannerOf[A]) noteSendError(err error) {
	n := s.sendErrors.Add(1)
	t := s.cfg.AbortOnSendErrors
	if t <= 0 || n-s.sendErrBase < uint64(t) {
		return
	}
	s.tdMu.Lock()
	if s.tdErr == nil {
		s.tdErr = err
	}
	s.tdMu.Unlock()
	s.transportDead.Store(true)
	s.cancelled.Store(true)
}

// LiveCounters reports the scan's monotonic progress counters: probes
// successfully written and replies processed so far. Safe to call from
// any goroutine at any time; an external watchdog that samples both and
// sees neither advance across its deadline has found a stalled worker.
func (s *ScannerOf[A]) LiveCounters() (probes, replies uint64) {
	return s.liveProbes.Load(), s.liveReplies.Load()
}

// sendProbe builds, stamps, paces and writes one probe. Transient write
// errors are retried with capped exponential backoff (Config.SendRetries);
// a probe that still cannot be written is dropped and counted — one lost
// datapoint, not a failed scan. Only successfully written probes count as
// sent.
func (sh *senderShardOf[A]) sendProbe(dst A, ttl uint8, preprobe bool, srcPortOffset uint16) {
	s := sh.s
	sh.pollRate()
	if sh.bw != nil {
		sh.sendProbeBatched(dst, ttl, preprobe, srcPortOffset)
		return
	}
	elapsed := s.clock.Now().Sub(s.start)
	n := s.fam.BuildProbe(sh.pktBuf[:], s.cfg.Source, dst, ttl, preprobe,
		elapsed, srcPortOffset)
	err := s.conn.WritePacket(sh.pktBuf[:n])
	for retry := 0; err != nil && retry < s.cfg.SendRetries && isTemporary(err); retry++ {
		s.sendRetries.Add(1)
		backoff := time.Millisecond << retry
		if backoff > 50*time.Millisecond {
			backoff = 50 * time.Millisecond
		}
		s.clock.Sleep(backoff)
		// Rebuild: the probe's timestamp rides in the packet (§3.1), so a
		// retried probe must carry its actual send time or the derived RTT
		// would include the backoff.
		elapsed = s.clock.Now().Sub(s.start)
		n = s.fam.BuildProbe(sh.pktBuf[:], s.cfg.Source, dst, ttl, preprobe,
			elapsed, srcPortOffset)
		err = s.conn.WritePacket(sh.pktBuf[:n])
	}
	if err != nil {
		s.noteSendError(err)
	} else {
		sh.probesSent++
		s.liveProbes.Add(1)
		if s.ckpt != nil {
			s.maybeCheckpoint(1)
		}
	}
	if s.cfg.Observer != nil {
		if len(s.shards) > 1 {
			s.obsMu.Lock()
			s.cfg.Observer(dst, ttl, elapsed)
			s.obsMu.Unlock()
		} else {
			s.cfg.Observer(dst, ttl, elapsed)
		}
	}
	sh.pacer.Pace()
}

// receiveLoop is the receiving thread of the single-receiver mode (§3.2):
// it decodes every response from the quoted probe header alone and updates
// the corresponding DCB. The sharded mode's per-worker loop lives in
// receive.go.
func (s *ScannerOf[A]) receiveLoop() {
	if s.cfg.Batch > 1 {
		if br, ok := s.conn.(BatchReader); ok {
			s.receiveLoopBatch(br)
			return
		}
	}
	var buf [4096]byte
	for {
		n, err := s.conn.ReadPacket(buf[:])
		if err != nil {
			if err != io.EOF {
				// A transport failure, not a malformed packet: account it
				// separately from UnparsedResponses.
				s.readErrors.Add(1)
			}
			return
		}
		s.handleResponse(buf[:n], s.clock.Now().Sub(s.start))
	}
}

// handleResponse decodes and fully processes one response packet,
// received at scan time now, on the calling goroutine (the
// single-receiver path).
func (s *ScannerOf[A]) handleResponse(pkt []byte, now time.Duration) {
	if block, r, ok := s.parseResponse(pkt, now); ok {
		s.processReply(s.store, block, &r)
	}
}

// parseResponse runs the parallel-safe front half of response handling:
// decode the packet received at scan time now, account unparseable and
// mismatched ones, and map the quoted destination to its block. ok
// reports whether a reply came out.
func (s *ScannerOf[A]) parseResponse(pkt []byte, now time.Duration) (int, Reply[A], bool) {
	r := s.fam.ParseReply(pkt, uint16(s.scanOffset.Load()), now)
	switch r.Kind {
	case ReplyUnparsed:
		s.unparsed.Add(1)
		return 0, r, false
	case ReplyMismatch:
		// The destination was modified in flight (§5.3): discard.
		s.mismatched.Add(1)
		return 0, r, false
	}
	block, ok := s.cfg.BlockOf(r.Dst)
	if !ok {
		s.unparsed.Add(1)
		return 0, r, false
	}
	return block, r, true
}

// processReply applies one decoded reply to the probing state: the
// block's DCB, the stop set, and the given result store (the scanner's
// only store in single-receiver mode, the owning worker's stripe in
// sharded mode). All replies of a block go through exactly one goroutine.
func (s *ScannerOf[A]) processReply(store *trace.StoreOf[A], block int, r *Reply[A]) {
	s.liveReplies.Add(1)
	if ck := s.ckpt; ck != nil {
		// Checkpoint write barrier: the encoder takes the write side, so a
		// snapshot never observes a half-applied reply. Disarmed scans
		// skip even the read lock.
		ck.mu.RLock()
		defer ck.mu.RUnlock()
	}
	if r.Preprobe {
		s.handlePreprobeResponse(store, block, r)
		return
	}

	d := &s.dcbs[block]
	switch r.Kind {
	case ReplyTTLExceeded:
		// Duplicate guard: a second reply for an already-processed
		// (destination, TTL) — a network duplicate or the echo of a
		// retransmitted probe — must not double-count the hop in the
		// route or re-run the strategy update below (which would see its
		// own hop in the stop set and terminate backward probing early).
		bit := uint32(1) << (r.InitTTL - 1)
		s.locks.lock(uint32(block))
		if d.respSeen&bit != 0 {
			s.locks.unlock(uint32(block))
			s.dupResponses.Add(1)
			return
		}
		d.respSeen |= bit
		seen := s.stopSet.Has(r.Hop)
		if r.InitTTL > d.routeLen && d.flags&dcbForwardDone == 0 {
			d.routeLen = r.InitTTL
		}
		if r.InitTTL <= s.splits[block] {
			// Backward side: terminate on the vantage point's first hop or
			// on route convergence with the stop set (§3.2, §3.4).
			if r.InitTTL == 1 {
				d.nextBackward = 0
			} else if seen && !s.cfg.NoRedundancyElimination {
				d.nextBackward = 0
				// Mark the termination as a stop-set decision: checkpoint
				// resume must not rewind past it (TTL-1 terminations need
				// no mark — their respSeen bit pins the rewind).
				d.flags |= dcbBwStopped
			}
		} else if d.flags&dcbForwardDone == 0 {
			// Forward side: the farthest responding hop pushes the horizon
			// out by GapLimit (§3.4).
			h := r.InitTTL + s.cfg.GapLimit
			if h > s.cfg.MaxTTL {
				h = s.cfg.MaxTTL
			}
			if h > d.forwardHorizon {
				d.forwardHorizon = h
			}
		}
		s.locks.unlock(uint32(block))
		store.AddHopAt(block/s.slotDiv, r.Dst, r.InitTTL, r.Hop, r.RTT)
		s.stopSet.Add(r.Hop)
		if sink := s.cfg.TraceSink; sink != nil {
			sink.HopDiscovered(r.Dst, r.InitTTL, r.Hop)
		}

	case ReplyUnreachable:
		// Destination answers need no duplicate guard: every step here is
		// idempotent (SetReached keeps the first answer, the stop-set
		// insert and flag set are set-like), destination addresses never
		// enter the interface set, and no backward/horizon strategy runs.
		// Probes past the destination legitimately elicit one unreachable
		// each, so repeats are not necessarily network duplicates.
		store.SetReachedAt(block/s.slotDiv, r.Dst, r.Dist, r.Hop, r.RTT)
		s.stopSet.Add(r.Hop)
		if sink := s.cfg.TraceSink; sink != nil {
			sink.DestReached(r.Dst, r.Dist)
		}
		s.locks.lock(uint32(block))
		d.flags |= dcbForwardDone
		d.routeLen = r.Dist
		s.locks.unlock(uint32(block))

	default:
		s.unparsed.Add(1)
	}
}

// handlePreprobeResponse implements §3.3.1: a destination-unreachable
// response to the TTL-MaxTTL preprobe yields the exact hop distance from a
// single probe. TTL-exceeded preprobe responses are folded into the
// discovered topology (§3.3.5).
func (s *ScannerOf[A]) handlePreprobeResponse(store *trace.StoreOf[A], block int, r *Reply[A]) {
	if r.Kind == ReplyUnreachable {
		store.SetReachedAt(block/s.slotDiv, r.Dst, r.Dist, r.Hop, r.RTT)
		s.stopSet.Add(r.Hop)
		if sink := s.cfg.TraceSink; sink != nil {
			sink.DestReached(r.Dst, r.Dist)
		}
		if r.Dist >= 1 && r.Dist <= s.cfg.MaxTTL {
			s.distMu.Lock()
			if s.phase.Load() == 0 && s.measured != nil {
				s.measured[block] = r.Dist
			}
			s.distMu.Unlock()
		}
		return
	}
	if r.Kind == ReplyTTLExceeded {
		// Preprobes always travel at MaxTTL, so every TTL-exceeded reply
		// to them quotes the same initial TTL: any reply after the first
		// (a duplicate, or a retry pass answered by the same router) adds
		// nothing and must not re-append the hop to the route.
		s.locks.lock(uint32(block))
		preSeen := s.dcbs[block].flags&dcbPreSeen != 0
		s.dcbs[block].flags |= dcbPreSeen
		s.locks.unlock(uint32(block))
		if preSeen {
			s.dupResponses.Add(1)
			return
		}
		store.AddHopAt(block/s.slotDiv, r.Dst, r.InitTTL, r.Hop, r.RTT)
		s.stopSet.Add(r.Hop)
		if sink := s.cfg.TraceSink; sink != nil {
			sink.HopDiscovered(r.Dst, r.InitTTL, r.Hop)
		}
	}
}

// StopSetSize reports the number of interfaces in the stop set (after the
// scan; used by tests and the discovery-mode analysis).
func (s *ScannerOf[A]) StopSetSize() int { return s.stopSet.Size() }
