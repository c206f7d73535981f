package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/flashroute/flashroute/internal/simclock"
	"github.com/flashroute/flashroute/internal/snapshot"
	"github.com/flashroute/flashroute/internal/trace"
)

// This file implements crash-safe checkpointing: the engine periodically
// serializes its complete probing state into a versioned, checksummed
// snapshot (internal/snapshot carries the codec), and Resume reconstructs
// a scanner mid-scan from one.
//
// The correctness argument rests on one distinction. The respSeen bitmap
// (and the preprobe's measured[] array, the stop set and the result
// store) record replies whose processing COMPLETED — durable truth. The
// DCB probing pointers record probes that were SENT — but a sent probe's
// reply may have been in flight when the scan died, and in-flight replies
// do not survive a crash. Resume therefore treats the pointers as
// advisory and rewinds them so that every TTL not confirmed by respSeen
// is probed again; confirmed progress is never repeated (the duplicate
// guard discards the occasional re-elicited reply). Destinations whose
// probing had finished are re-linked into the round list whenever the
// rewind leaves them work to do.
//
// Two flags make the rewind safe:
//   - dcbBwStopped distinguishes "backward probing terminated at the stop
//     set" (a confirmed decision that must not be rewound) from "backward
//     probing ran out of sent TTLs" (which must be);
//   - dcbForwardDone is never cleared: it is only ever set by a processed
//     unreachable reply, which the restored store also records.

// checkpointVersion is the snapshot format version this build reads and
// writes. Version 2 accompanies the slab-backed result store: the route
// section is produced by the store's sorted streaming iterator (hops
// arrive TTL-sorted, no in-memory collection of the whole topology), and
// a resumed scan restores routes into block slots rather than a map.
const checkpointVersion = 2

// ErrCheckpointComplete is returned by Resume for the final snapshot of a
// scan that ran to completion: there is nothing left to resume.
var ErrCheckpointComplete = errors.New("core: checkpoint records a completed scan")

// ckptState is the armed checkpoint machinery (Config.CheckpointSink set).
//
// The write barrier: every reply processor holds mu.RLock for the
// duration of processReply, and the encoder takes mu.Lock — so a snapshot
// never observes a half-applied reply (respSeen set but the hop not yet
// in the stop set, say), without adding any locking to the disarmed path.
type ckptState struct {
	mu       sync.RWMutex
	every    uint64
	interval time.Duration
	sink     func([]byte) error

	// probes and retrans mirror the per-shard counters, which are
	// deliberately unsynchronized and must never be read mid-scan; the
	// mirrors are maintained only when checkpointing is armed.
	probes  atomic.Uint64
	retrans atomic.Uint64

	// nextAt is the scan-elapsed nanosecond deadline of the next
	// interval-triggered checkpoint.
	nextAt atomic.Int64

	errs atomic.Uint64

	// buf is the encode buffer, reused across snapshots: the sink must
	// not retain the slice, and snapshots never overlap (mid-scan ones
	// hold mu, the final one runs alone).
	buf []byte
}

// resumeInfo is where a restored snapshot positions the scan.
type resumeInfo struct {
	phase int32  // 0 = preprobing, 1 = main
	pass  uint32 // scan pass (0 = main, n = extra scan n); phase 1 only
}

// baseCounters are the restored totals of the interrupted run(s); the
// resumed run adds its own on top when building the Result.
type baseCounters struct {
	probes      uint64
	retransmits uint64
	scanTime    time.Duration
	rounds      int
}

// maybeCheckpoint runs the probe-count and interval triggers after k
// probes were successfully sent while armed (k > 1 when a batch flush
// accounts a whole arena at once; a crossed CheckpointEvery boundary
// anywhere inside the batch triggers).
func (s *ScannerOf[A]) maybeCheckpoint(k uint64) {
	ck := s.ckpt
	n := ck.probes.Add(k)
	if ck.every > 0 && n/ck.every != (n-k)/ck.every {
		s.writeCheckpoint(false, false, nil)
		return
	}
	if ck.interval > 0 {
		now := int64(s.clock.Now().Sub(s.start))
		next := ck.nextAt.Load()
		if now >= next && ck.nextAt.CompareAndSwap(next, now+int64(ck.interval)) {
			s.writeCheckpoint(false, false, nil)
		}
	}
}

// writeCheckpoint serializes the scan state and hands it to the sink.
// Mid-scan (final == false) it takes the write barrier to quiesce reply
// processing; final snapshots run after every goroutine has joined and
// encode the merged result store passed in.
func (s *ScannerOf[A]) writeCheckpoint(final, complete bool, merged *trace.StoreOf[A]) {
	ck := s.ckpt
	if !final {
		ck.mu.Lock()
		defer ck.mu.Unlock()
	}
	if err := ck.sink(s.encodeCheckpoint(final, complete, merged)); err != nil {
		ck.errs.Add(1)
	}
}

func (s *ScannerOf[A]) encodeCheckpoint(final, complete bool, merged *trace.StoreOf[A]) []byte {
	ck := s.ckpt
	asz := s.fam.AddrSize()
	var ab [16]byte
	putAddr := func(w *snapshot.Writer, a A) {
		s.fam.PutAddr(ab[:asz], a)
		w.Raw(ab[:asz])
	}

	w := snapshot.NewWriterInto(checkpointVersion, ck.buf)
	w.Bool(complete)

	// Configuration fingerprint: resuming under a different universe or
	// probing geometry would silently corrupt the scan, so these must
	// match exactly at decode.
	w.I64(s.cfg.Seed)
	w.U32(uint32(s.cfg.Blocks))
	w.U8(s.cfg.SplitTTL)
	w.U8(s.cfg.GapLimit)
	w.U8(s.cfg.MaxTTL)
	w.U8(uint8(asz))

	w.U8(uint8(s.phase.Load()))
	w.U32(s.scanOffset.Load()) // current pass (0 = main scan)

	s.distMu.Lock()
	w.Bool(s.measured != nil)
	if s.measured != nil {
		w.Bytes(s.measured)
	}
	s.distMu.Unlock()
	w.Bytes(s.splits)

	// Cumulative counters (include any base restored from an earlier
	// resume). The per-shard counters are unsynchronized; only the armed
	// mirrors are safe to read here.
	w.U64(ck.probes.Load())
	w.U64(s.preprobeProbes)
	w.U64(ck.retrans.Load())
	w.U64(s.mismatched.Load())
	w.U64(s.unparsed.Load())
	w.U64(s.dupResponses.Load())
	w.U64(s.readErrors.Load())
	w.U64(s.sendErrors.Load())
	w.U64(s.sendRetries.Load())
	w.I64(int64(s.base.scanTime + s.clock.Now().Sub(s.start)))
	rounds := s.base.rounds
	if final {
		// Mid-scan the per-shard round counters are as unsynchronized as
		// the probe counters, so interior snapshots carry only the base:
		// a Result built through such a resume undercounts Rounds by the
		// interrupted run's in-progress passes.
		for _, sh := range s.shards {
			if sh.rounds > rounds-s.base.rounds {
				rounds = s.base.rounds + sh.rounds
			}
		}
	}
	w.U32(uint32(rounds))

	// Per-destination control blocks, in scan order. Each block is read
	// under its own lock: per-block consistency is all resume needs (the
	// rewind re-probes anything unconfirmed).
	w.U32(uint32(len(s.order)))
	for _, b := range s.order {
		s.locks.lock(b)
		d := s.dcbs[b]
		s.locks.unlock(b)
		w.U32(b)
		putAddr(w, d.dest)
		w.U32(d.respSeen)
		w.U16(d.lastForward)
		w.U8(d.nextBackward)
		w.U8(d.nextForward)
		w.U8(d.forwardHorizon)
		w.U8(d.flags)
		w.U8(d.routeLen)
		w.U8(d.fwRetries)
	}

	// Stop set, sorted for deterministic bytes.
	var stops []A
	s.stopSet.ForEach(func(a A) { stops = append(stops, a) })
	sort.Slice(stops, func(i, j int) bool { return s.fam.AddrLess(stops[i], stops[j]) })
	w.U32(uint32(len(stops)))
	for _, a := range stops {
		putAddr(w, a)
	}

	// Result store: routes (destination-sorted, hops TTL-sorted) and the
	// interface set, streamed from the slab via the sorted iterators — no
	// in-memory collection of the whole topology. The worker stripes are
	// destination-disjoint, so streaming them through a union view yields
	// the same global sort order the old collect-and-sort produced.
	var stores []*trace.StoreOf[A]
	switch {
	case merged != nil:
		stores = []*trace.StoreOf[A]{merged}
	case s.striped != nil:
		for _, rw := range s.recvWorkers {
			stores = append(stores, rw.store)
		}
	default:
		stores = []*trace.StoreOf[A]{s.store}
	}
	nRoutes := 0
	for _, st := range stores {
		nRoutes += st.NumRoutes()
	}
	w.U32(uint32(nRoutes))
	emit := func(r *trace.RouteOf[A]) {
		putAddr(w, r.Dst)
		w.Bool(r.Reached)
		w.U8(r.Length)
		w.U16(uint16(len(r.Hops)))
		for _, h := range r.Hops {
			w.U8(h.TTL)
			putAddr(w, h.Addr)
			w.I64(int64(h.RTT))
		}
	}
	if len(stores) == 1 {
		stores[0].ForEachRouteSorted(emit)
	} else {
		trace.UnionOf(stores).ForEachRouteSorted(emit)
	}
	ifaces := make(map[A]struct{})
	for _, st := range stores {
		st.Interfaces().ForEach(func(a A) { ifaces[a] = struct{}{} })
	}
	ifs := make([]A, 0, len(ifaces))
	for a := range ifaces {
		ifs = append(ifs, a)
	}
	sort.Slice(ifs, func(i, j int) bool { return s.fam.AddrLess(ifs[i], ifs[j]) })
	w.U32(uint32(len(ifs)))
	for _, a := range ifs {
		putAddr(w, a)
	}

	ck.buf = w.Finish()
	return ck.buf
}

// Resume reconstructs a scanner mid-scan from a checkpoint snapshot. The
// configuration must describe the same scan (same universe seed, block
// count and probing geometry); cfg fields that only shape the machinery —
// Senders, Receivers, PPS, LockMode, checkpointing itself — are free to
// differ. Run on the returned scanner continues the interrupted scan.
func Resume[A comparable](fam Family[A], cfg ConfigOf[A], conn PacketConn, clock simclock.Waiter, data []byte) (*ScannerOf[A], error) {
	s, err := NewScannerOf(fam, cfg, conn, clock)
	if err != nil {
		return nil, err
	}
	if err := s.restore(data); err != nil {
		return nil, err
	}
	return s, nil
}

// ResumeScanner is the IPv4 Resume.
func ResumeScanner(cfg Config, conn PacketConn, clock simclock.Waiter, data []byte) (*Scanner, error) {
	return Resume[uint32](ipv4Family{}, cfg, conn, clock, data)
}

// restore decodes a snapshot into the freshly constructed scanner. Any
// error leaves nothing partially resumed: the caller discards the scanner.
func (s *ScannerOf[A]) restore(data []byte) error {
	r, err := snapshot.NewReader(data, checkpointVersion)
	if err != nil {
		return fmt.Errorf("core: reading checkpoint: %w", err)
	}
	asz := s.fam.AddrSize()
	getAddr := func() A {
		if b := r.Raw(asz); b != nil {
			return s.fam.GetAddr(b)
		}
		var zero A
		return zero
	}

	complete := r.Bool()
	seed := r.I64()
	blocks := r.U32()
	splitTTL, gapLimit, maxTTL := r.U8(), r.U8(), r.U8()
	famSize := r.U8()
	phase := r.U8()
	pass := r.U32()
	var measured []uint8
	if r.Bool() {
		measured = append([]uint8(nil), r.Bytes()...)
	}
	splits := append([]uint8(nil), r.Bytes()...)
	probes := r.U64()
	preprobeProbes := r.U64()
	retransmits := r.U64()
	mismatched := r.U64()
	unparsed := r.U64()
	dups := r.U64()
	readErrors := r.U64()
	sendErrors := r.U64()
	sendRetries := r.U64()
	elapsed := time.Duration(r.I64())
	rounds := r.U32()
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: reading checkpoint header: %w", err)
	}

	// Validate before decoding the bulk sections: a mismatched config
	// must never partially resume.
	switch {
	case complete:
		return ErrCheckpointComplete
	case famSize != uint8(asz):
		return fmt.Errorf("core: checkpoint is for a %d-byte address family, scanner uses %d", famSize, asz)
	case seed != s.cfg.Seed:
		return fmt.Errorf("core: checkpoint Seed %d does not match config Seed %d", seed, s.cfg.Seed)
	case int(blocks) != s.cfg.Blocks:
		return fmt.Errorf("core: checkpoint Blocks %d does not match config Blocks %d", blocks, s.cfg.Blocks)
	case splitTTL != s.cfg.SplitTTL:
		return fmt.Errorf("core: checkpoint SplitTTL %d does not match config SplitTTL %d", splitTTL, s.cfg.SplitTTL)
	case gapLimit != s.cfg.GapLimit:
		return fmt.Errorf("core: checkpoint GapLimit %d does not match config GapLimit %d", gapLimit, s.cfg.GapLimit)
	case maxTTL != s.cfg.MaxTTL:
		return fmt.Errorf("core: checkpoint MaxTTL %d does not match config MaxTTL %d", maxTTL, s.cfg.MaxTTL)
	case phase > 1:
		return fmt.Errorf("core: checkpoint has impossible phase %d", phase)
	case measured != nil && len(measured) != s.cfg.Blocks:
		return fmt.Errorf("core: checkpoint measured[] has %d blocks, config has %d", len(measured), s.cfg.Blocks)
	case len(splits) != s.cfg.Blocks:
		return fmt.Errorf("core: checkpoint splits[] has %d blocks, config has %d", len(splits), s.cfg.Blocks)
	}

	numDCBs := r.U32()
	if r.Err() == nil && numDCBs > blocks {
		return fmt.Errorf("core: checkpoint has %d DCBs for %d blocks", numDCBs, blocks)
	}
	type entry struct {
		block uint32
		d     dcbOf[A]
	}
	entries := make([]entry, 0, numDCBs)
	for i := uint32(0); i < numDCBs && r.Err() == nil; i++ {
		var e entry
		e.block = r.U32()
		e.d.dest = getAddr()
		e.d.respSeen = r.U32()
		e.d.lastForward = r.U16()
		e.d.nextBackward = r.U8()
		e.d.nextForward = r.U8()
		e.d.forwardHorizon = r.U8()
		e.d.flags = r.U8()
		e.d.routeLen = r.U8()
		e.d.fwRetries = r.U8()
		if e.block >= blocks {
			return fmt.Errorf("core: checkpoint DCB block %d out of range", e.block)
		}
		entries = append(entries, e)
	}

	numStops := r.U32()
	stops := make([]A, 0, numStops)
	for i := uint32(0); i < numStops && r.Err() == nil; i++ {
		stops = append(stops, getAddr())
	}

	numRoutes := r.U32()
	routes := make([]*trace.RouteOf[A], 0, numRoutes)
	for i := uint32(0); i < numRoutes && r.Err() == nil; i++ {
		rt := &trace.RouteOf[A]{}
		rt.Dst = getAddr()
		rt.Reached = r.Bool()
		rt.Length = r.U8()
		numHops := r.U16()
		if numHops > 0 {
			rt.Hops = make([]trace.HopOf[A], numHops)
			for j := range rt.Hops {
				rt.Hops[j].TTL = r.U8()
				rt.Hops[j].Addr = getAddr()
				rt.Hops[j].RTT = time.Duration(r.I64())
			}
		}
		routes = append(routes, rt)
	}

	numIfaces := r.U32()
	ifaces := make([]A, 0, numIfaces)
	for i := uint32(0); i < numIfaces && r.Err() == nil; i++ {
		ifaces = append(ifaces, getAddr())
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("core: reading checkpoint state: %w", err)
	}

	// All decoded and validated; install.
	s.resume = &resumeInfo{phase: int32(phase), pass: pass}
	s.base = baseCounters{
		probes:      probes,
		retransmits: retransmits,
		scanTime:    elapsed,
		rounds:      int(rounds),
	}
	s.preprobeProbes = preprobeProbes
	s.mismatched.Store(mismatched)
	s.unparsed.Store(unparsed)
	s.dupResponses.Store(dups)
	s.readErrors.Store(readErrors)
	s.sendErrors.Store(sendErrors)
	s.sendErrBase = sendErrors // AbortOnSendErrors counts this run only
	s.sendRetries.Store(sendRetries)
	if s.ckpt != nil {
		s.ckpt.probes.Store(probes)
		s.ckpt.retrans.Store(retransmits)
	}
	s.measured = measured
	copy(s.splits, splits)
	for i := range entries {
		s.dcbs[entries[i].block] = entries[i].d
	}
	for _, a := range stops {
		s.stopSet.Add(a)
	}
	restore := func(rt *trace.RouteOf[A]) {
		// Block-affinity dispatch owns each destination's route on the
		// worker (and stripe) block % R, at stripe slot block / R;
		// restoring elsewhere would leave two stores claiming the same
		// destination in the Union view.
		b, ok := s.cfg.BlockOf(rt.Dst)
		if !ok {
			// No block for the destination (cannot happen for routes the
			// scan itself recorded): fall back to the dst-keyed overflow
			// index of worker 0's stripe.
			if s.striped != nil {
				s.recvWorkers[0].store.RestoreRoute(rt)
			} else {
				s.store.RestoreRoute(rt)
			}
			return
		}
		if s.striped != nil {
			r := len(s.recvWorkers)
			s.recvWorkers[b%r].store.RestoreRouteAt(b/r, rt)
		} else {
			s.store.RestoreRouteAt(b, rt)
		}
	}
	for _, rt := range routes {
		restore(rt)
	}
	ifaceStore := s.store
	if s.striped != nil {
		ifaceStore = s.recvWorkers[0].store // Merge unions interface sets
	}
	for _, a := range ifaces {
		ifaceStore.AddInterface(a)
	}
	return nil
}

// rewindDCBs repositions every destination's probing pointers after a
// phase-1 restore (see the file comment for the confirmed-vs-sent
// argument), then re-links destinations with remaining work into the
// round list. Runs after the scan order is built, before the first pass.
func (s *ScannerOf[A]) rewindDCBs(pass int) {
	fold := s.cfg.foldsPreprobe() && s.cfg.Preprobe != PreprobeOff && !s.cfg.Exhaustive
	for _, b := range s.order {
		d := &s.dcbs[b]

		// The TTL backward probing counts down from this pass.
		initBW := s.splits[b]
		if pass == 0 && fold && initBW == s.cfg.MaxTTL {
			measured := s.measured != nil && s.measured[b] != 0
			if !measured {
				initBW = s.cfg.MaxTTL - 1 // preprobe served as the first round
			}
		}

		// Backward: rewind to one below the lowest confirmed TTL. Probes
		// are sent top-down one round apart and per-destination replies
		// arrive in probe order, so the confirmed responsive TTLs form a
		// prefix of the sent ones; everything below the lowest confirmed
		// TTL is unconfirmed and gets re-probed. A stop-set termination
		// (dcbBwStopped) was decided on a confirmed reply: keep it.
		if d.flags&dcbBwStopped == 0 && initBW > 0 {
			nb := initBW
			for t := int(d.nextBackward) + 1; t <= int(initBW); t++ {
				if d.respSeen&(uint32(1)<<(t-1)) != 0 {
					nb = uint8(t - 1)
					break
				}
			}
			if nb > d.nextBackward {
				d.nextBackward = nb
			}
		}

		// Forward: rewind to the lowest unconfirmed sent TTL. Never touch
		// a destination whose forward side finished — dcbForwardDone is
		// only set by a processed unreachable reply, which the restored
		// store also carries.
		if d.flags&dcbForwardDone == 0 {
			for t := int(s.splits[b]) + 1; t < int(d.nextForward); t++ {
				if d.respSeen&(uint32(1)<<(t-1)) == 0 {
					d.nextForward = uint8(t)
					break
				}
			}
		}

		// The retry timer restarts from the resumed scan's epoch.
		d.lastForward = 0

		live := d.nextBackward > 0 ||
			(d.flags&dcbForwardDone == 0 && d.nextForward <= d.forwardHorizon)
		if !live && s.cfg.ForwardRetries > 0 && d.flags&dcbForwardDone == 0 &&
			d.forwardHorizon > 0 && d.fwRetries < uint8(s.cfg.ForwardRetries) {
			// Forward-retry budget remains: keep the destination linked so
			// runRounds re-evaluates the gap under its timeout logic.
			live = true
		}
		if live {
			d.flags &^= dcbRemoved
		} else {
			d.flags |= dcbRemoved
		}
	}
}
