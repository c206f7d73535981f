package core

import (
	"io"
	"time"
)

// This file implements the batched data path (Config.Batch > 1).
//
// Send side: a shard whose transport implements BatchWriter builds
// probes into a preallocated per-shard arena instead of writing them one
// at a time, and flushes the arena as one WriteBatch call when it fills
// — or earlier, at every point the shard is about to block (the pacer
// sleep, the round gap, phase end, cancellation). Flushing before every
// blocking point is what keeps results identical to the unbatched
// engine: between blocking points no response can influence the sender's
// decisions (on the virtual clock no time passes at all), so the set of
// packets on the wire at each blocking instant is the same either way.
//
// Receive side: a receiver whose transport implements BatchReader pulls
// up to Config.Batch packets per call into a preallocated buffer arena
// and processes them in arrival order — the same packet sequence the
// one-at-a-time loop would have seen, just with fewer transport
// crossings. Both sides reuse their arenas, so the steady state
// allocates nothing.

// maxBatch caps Config.Batch: beyond this the arenas' memory dominates
// any further syscall amortization (it is also comfortably above
// Linux's UIO_MAXIOV = 1024 sendmmsg ceiling).
const maxBatch = 4096

// recvBufSize is the per-packet stride of the receive arenas, matching
// the 4096-byte read buffers of the unbatched paths.
const recvBufSize = 4096

// makeRecvArena builds one receive arena: n packet buffers carved from a
// single backing allocation, plus the length slice ReadBatch fills.
func makeRecvArena(n int) ([][]byte, []int) {
	backing := make([]byte, n*recvBufSize)
	bufs := make([][]byte, n)
	for i := range bufs {
		bufs[i] = backing[i*recvBufSize : (i+1)*recvBufSize]
	}
	return bufs, make([]int, n)
}

// sendProbeBatched is sendProbe's arena path (sh.bw != nil): build the
// probe into the next arena slot, flush if the arena filled, and run the
// same observer and pacing steps as the unbatched path. The pacer's
// flush hook writes the arena out before any pacing sleep, so batch
// boundaries never distort pacing and no probe waits out a sleep in the
// arena.
//
// The clock is read once per arena, when slot 0 is built: every probe of
// the arena leaves at the same flush, so they share its send time. On
// the virtual clock no time passes before that flush (the arena is
// flushed before every blocking point), so the stamps are exactly the
// per-probe ones; on the real clock they are early by at most the
// arena's fill time, far below the probe encoding's 1 ms resolution.
func (sh *senderShardOf[A]) sendProbeBatched(dst A, ttl uint8, preprobe bool, srcPortOffset uint16) {
	s := sh.s
	if sh.nbuf == 0 {
		sh.stamp = s.clock.Now().Sub(s.start)
	}
	elapsed := sh.stamp
	slot := sh.arena[sh.nbuf*maxProbeBuf : (sh.nbuf+1)*maxProbeBuf]
	n := s.fam.BuildProbe(slot, s.cfg.Source, dst, ttl, preprobe, elapsed, srcPortOffset)
	sh.pkts[sh.nbuf] = slot[:n]
	sh.metas[sh.nbuf] = probeMeta[A]{dst: dst, ttl: ttl, preprobe: preprobe, off: srcPortOffset}
	sh.nbuf++
	if sh.nbuf == len(sh.pkts) {
		sh.flush()
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
	sh.pacer.PaceFlush(sh.flushFn)
}

// flush writes every buffered probe out, honoring WriteBatch's
// partial-write contract: a short return with an error singles out one
// failed packet, which gets the unbatched path's transient-retry
// treatment while the rest of the arena is re-submitted — a mid-batch
// failure costs that one probe at most, never the packets behind it.
// Accounting (probesSent, checkpoint triggers) happens here, so a probe
// counts as sent only once it has actually been written. No-op when
// nothing is buffered, so it is safe at every blocking point.
func (sh *senderShardOf[A]) flush() {
	if sh.nbuf == 0 {
		return
	}
	s := sh.s
	sent := uint64(0)
	i := 0
	for i < sh.nbuf {
		w, err := sh.bw.WriteBatch(sh.pkts[i:sh.nbuf])
		if w < 0 {
			w = 0
		}
		i += w
		sent += uint64(w)
		if err == nil {
			continue // short write with no error: submit the rest
		}
		if i >= sh.nbuf {
			// Connection-level failure after every packet was consumed
			// (e.g. the transport closed while committing).
			s.noteSendError(err)
			break
		}
		// err refers to pkts[i]: retry that one probe, then resume the
		// batch behind it.
		if sh.retrySlot(i, err) {
			sent++
		}
		i++
		if i < sh.nbuf {
			// The retry may have slept; re-stamp the remaining probes so
			// their embedded send time is their actual send time.
			sh.restampSlots(i)
		}
	}
	sh.nbuf = 0
	sh.probesSent += sent
	if sent > 0 {
		s.liveProbes.Add(sent)
	}
	if s.ckpt != nil && sent > 0 {
		s.maybeCheckpoint(sent)
	}
}

// retrySlot gives one failed arena slot the unbatched path's treatment:
// capped exponential backoff and a single-packet rewrite per attempt, up
// to Config.SendRetries for transient errors. Reports whether the probe
// was eventually written; a dropped probe is counted as a send error.
func (sh *senderShardOf[A]) retrySlot(i int, err error) bool {
	s := sh.s
	for retry := 0; retry < s.cfg.SendRetries && isTemporary(err); retry++ {
		s.sendRetries.Add(1)
		backoff := time.Millisecond << retry
		if backoff > 50*time.Millisecond {
			backoff = 50 * time.Millisecond
		}
		s.clock.Sleep(backoff)
		if err = s.conn.WritePacket(sh.restampSlot(i)); err == nil {
			return true
		}
	}
	s.noteSendError(err)
	return false
}

// restampSlot rebuilds arena slot i from its meta with a fresh
// timestamp: the probe's send time rides in the packet (§3.1), so a
// probe written after a sleep must carry its actual send time or the
// derived RTT would include the wait.
func (sh *senderShardOf[A]) restampSlot(i int) []byte {
	s := sh.s
	m := &sh.metas[i]
	slot := sh.arena[i*maxProbeBuf : (i+1)*maxProbeBuf]
	elapsed := s.clock.Now().Sub(s.start)
	n := s.fam.BuildProbe(slot, s.cfg.Source, m.dst, m.ttl, m.preprobe, elapsed, m.off)
	sh.pkts[i] = slot[:n]
	return sh.pkts[i]
}

// restampSlots re-stamps slots from..nbuf-1 (after a retry backoff).
func (sh *senderShardOf[A]) restampSlots(from int) {
	for i := from; i < sh.nbuf; i++ {
		sh.restampSlot(i)
	}
}

// receiveLoopBatch is the single-receiver loop over a BatchReader:
// responses arrive into a reused buffer arena up to Config.Batch at a
// time and are processed in arrival order, preserving the unbatched
// loop's processReply sequence exactly. The scan clock is read once per
// batch, not per response.
func (s *ScannerOf[A]) receiveLoopBatch(br BatchReader) {
	bufs, sizes := makeRecvArena(s.cfg.Batch)
	for {
		k, err := br.ReadBatch(bufs, sizes)
		if k > 0 {
			// The batch was deliverable all at once: one clock read.
			now := s.clock.Now().Sub(s.start)
			for i := 0; i < k; i++ {
				s.handleResponse(bufs[i][:sizes[i]], now)
			}
		}
		if err != nil {
			if err != io.EOF {
				s.readErrors.Add(1)
			}
			return
		}
		// k == 0 with a nil err: a polling transport had nothing ready;
		// loop and block again.
	}
}
