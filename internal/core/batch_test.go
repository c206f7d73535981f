package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/flashroute/flashroute/internal/netsim"
	"github.com/flashroute/flashroute/internal/simclock"
	"github.com/flashroute/flashroute/internal/simnet"
)

// Batched data-path tests: Config.Batch > 1 must change how many packets
// move per transport call and nothing else. The equivalence argument: a
// batching sender flushes its arena before every blocking point, and on
// the virtual clock no time passes between blocking points, so the set
// of packets on the wire at each instant — and with it every response,
// every impairment draw, and every receiver decision — is identical to
// the unbatched engine's.

// TestBatchGoldenFingerprint pins Batch: 32 to the exact single-sender
// goldens the unbatched engine produces (the same values
// TestImpairmentZeroFingerprint pins): batching must be bit-identical,
// probe for probe.
func TestBatchGoldenFingerprint(t *testing.T) {
	single := []struct {
		seed   int64
		fp     uint64
		probes uint64
	}{
		{1, 0xe464436d2a0b477e, 10985},
		{7, 0xf723e4bc94b806ca, 10440},
		{21, 0x477f025e0ae0c8fe, 11313},
	}
	for _, tc := range single {
		e := newEnv(t, 1024, tc.seed)
		e.cfg.Batch = 32
		res := e.run(t)
		if fp := fpOf(res); fp != tc.fp {
			t.Errorf("seed %d batch=32: fingerprint %#x, want %#x", tc.seed, fp, tc.fp)
		}
		if res.ProbesSent != tc.probes {
			t.Errorf("seed %d batch=32: probes %d, want %d", tc.seed, res.ProbesSent, tc.probes)
		}
	}
}

// TestBatchEquivalenceGrid: for every Senders × Receivers combination of
// {1,4} × {1,4} and three seeds, the batched scan must discover exactly
// what the unbatched sequential scan does. The lockstep environment
// makes the discovered topology a pure function of the probe set, so the
// equality is exact. Run under -race this also exercises concurrent
// WriteBatch callers and batched readers against the shared netsim conn.
func TestBatchEquivalenceGrid(t *testing.T) {
	const blocks = 512
	for _, seed := range []int64{1, 7, 21} {
		base := newLockstepEnv(t, blocks, seed).runReceivers(t, 1, 1)
		baseFP := fpOf(base)
		if base.Store.Interfaces().Len() == 0 {
			t.Fatalf("seed %d: degenerate baseline", seed)
		}
		for _, senders := range []int{1, 4} {
			for _, receivers := range []int{1, 4} {
				e := newLockstepEnv(t, blocks, seed)
				e.cfg.Batch = 32
				res := e.runReceivers(t, senders, receivers)
				if fp := fpOf(res); fp != baseFP {
					t.Errorf("seed=%d senders=%d receivers=%d batch=32: fingerprint %#x, want %#x (interfaces %d vs %d, reached %d vs %d)",
						seed, senders, receivers, fp, baseFP,
						res.Store.Interfaces().Len(), base.Store.Interfaces().Len(),
						len(reachedSet(res)), len(reachedSet(base)))
				}
				if senders == 1 && receivers == 1 && res.ProbesSent != base.ProbesSent {
					t.Errorf("seed=%d batch=32: probes %d, unbatched %d", seed, res.ProbesSent, base.ProbesSent)
				}
			}
		}
	}
}

// TestBatchImpairmentDeterminism: under a full impairment mix the batched
// single-sender scan must equal the unbatched one exactly — fingerprint,
// probe counts and every netsim RNG-driven counter. This is the strong
// form of the equivalence argument: batching must not reorder a single
// per-packet impairment draw.
func TestBatchImpairmentDeterminism(t *testing.T) {
	im := netsim.Impairments{
		LossProb:      0.08,
		GEGoodToBad:   0.01,
		GEBadToGood:   0.25,
		GEBadLoss:     0.5,
		DupProb:       0.03,
		ReorderProb:   0.05,
		ReorderWindow: 40 * time.Millisecond,
		ExtraJitter:   10 * time.Millisecond,
	}
	run := func(batch int) (*Result, *simnet.Stats) {
		e := newEnv(t, 1024, 7)
		e.topo.P.Impair = im
		e.cfg.PreprobeRetries = 1
		e.cfg.ForwardRetries = 1
		e.cfg.Batch = batch
		return e.run(t), &e.net.Stats
	}
	r1, s1 := run(0)
	r2, s2 := run(64)

	if fp1, fp2 := fpOf(r1), fpOf(r2); fp1 != fp2 {
		t.Errorf("impaired fingerprints differ: unbatched %#x, batch=64 %#x", fp1, fp2)
	}
	if r1.ProbesSent != r2.ProbesSent {
		t.Errorf("probe counts differ: %d vs %d", r1.ProbesSent, r2.ProbesSent)
	}
	if r1.RetransmittedProbes != r2.RetransmittedProbes {
		t.Errorf("retransmit counts differ: %d vs %d", r1.RetransmittedProbes, r2.RetransmittedProbes)
	}
	if r1.DuplicateResponses != r2.DuplicateResponses {
		t.Errorf("duplicate counts differ: %d vs %d", r1.DuplicateResponses, r2.DuplicateResponses)
	}
	for _, c := range []struct {
		name string
		a, b uint64
	}{
		{"ProbesSent", s1.ProbesSent.Load(), s2.ProbesSent.Load()},
		{"ProbesLost", s1.ProbesLost.Load(), s2.ProbesLost.Load()},
		{"RepliesLost", s1.RepliesLost.Load(), s2.RepliesLost.Load()},
		{"Duplicates", s1.Duplicates.Load(), s2.Duplicates.Load()},
		{"Reordered", s1.Reordered.Load(), s2.Reordered.Load()},
	} {
		if c.a != c.b {
			t.Errorf("netsim %s differs: unbatched %d, batched %d", c.name, c.a, c.b)
		}
		if c.a == 0 {
			t.Errorf("netsim %s is zero — impairment not exercised", c.name)
		}
	}
}

// TestBatchCancelMidBatch is the graceful-shutdown regression test: kill
// a batched scan at a checkpoint landing mid-arena (every not a multiple
// of the batch size), and (a) the partial result must account every
// probe the transport saw — nothing may die buffered-unwritten in an
// arena — and (b) resuming the snapshot must complete to the unbatched
// uninterrupted topology.
func TestBatchCancelMidBatch(t *testing.T) {
	const blocks, seed, batch = 512, 7, 32
	baseline := newLockstepEnv(t, blocks, seed).runReceivers(t, 1, 1)
	baseFP := fpOf(baseline)

	e := newLockstepEnv(t, blocks, seed)
	e.cfg.Batch = batch
	// 487 is prime: the trigger (and with it the cancel) lands mid-arena.
	snap, part := killAndSnapshot(t, e, 1, 1, 487)
	if !part.Interrupted {
		t.Fatal("killed scan not marked Interrupted")
	}
	if got, wrote := part.ProbesSent, e.net.Stats.ProbesSent.Load(); got != wrote {
		t.Errorf("interrupted result accounts %d probes, transport saw %d — a batch was dropped or double-counted", got, wrote)
	}

	e2 := newLockstepEnv(t, blocks, seed)
	e2.cfg.Batch = batch
	resumed := resumeFrom(t, e2, 1, 1, snap)
	if fp := fpOf(resumed); fp != baseFP {
		t.Errorf("resume of mid-batch kill: fingerprint %#x, want %#x (interfaces %d vs %d)",
			fp, baseFP, resumed.Store.Interfaces().Len(), baseline.Store.Interfaces().Len())
	}
}

// TestBatchFaultWindowMidBatch: a write-error window that opens while an
// arena is in flight must surface per-packet through WriteBatch's
// partial-return contract — the failed probe is retried through the
// backoff machinery and the probes behind it are re-submitted, never
// dropped. With a retry budget outlasting the window, the lockstep
// topology must come out bit-identical to a clean transport.
func TestBatchFaultWindowMidBatch(t *testing.T) {
	const blocks, seed = 256, 4
	clean := newLockstepEnv(t, blocks, seed).runReceivers(t, 1, 1)

	e := newLockstepEnv(t, blocks, seed)
	e.cfg.Batch = 32
	e.topo.P.Impair.Faults = []netsim.FaultWindow{
		// On the second-round send burst (preprobe drain puts it at ~2 s).
		{Start: 2000 * time.Millisecond, Duration: 30 * time.Millisecond, Kind: netsim.FaultWriteError},
	}
	e.cfg.SendRetries = 10 // backoff budget ~260 ms, outlasts the window
	res := e.runReceivers(t, 1, 1)
	if fp, want := fpOf(res), fpOf(clean); fp != want {
		t.Errorf("mid-batch write-error window changed the topology: fingerprint %#x, want %#x", fp, want)
	}
	if res.SendRetries == 0 {
		t.Error("window produced no retries")
	}
	if res.SendErrors != 0 {
		t.Errorf("survivable window still abandoned %d probes", res.SendErrors)
	}
	if e.net.Stats.WriteFaults.Load() == 0 {
		t.Error("WriteFaults not counted")
	}
}

// --- flush unit tests against a scripted BatchWriter ---

type tempError struct{}

func (tempError) Error() string   { return "transient send failure" }
func (tempError) Temporary() bool { return true }

// scriptedBW implements PacketConn + BatchWriter, failing exactly one
// packet (by global write index) with a configurable error. Packets that
// precede the failure in a batch ARE consumed — the sendmmsg shape.
type scriptedBW struct {
	wrote  [][]byte
	failAt int // global index of the packet to reject once; -1 = never
	failed bool
	err    error
}

func (b *scriptedBW) WritePacket(pkt []byte) error {
	n, err := b.WriteBatch([][]byte{pkt})
	if n == 1 {
		return nil
	}
	return err
}

func (b *scriptedBW) WriteBatch(pkts [][]byte) (int, error) {
	for i, p := range pkts {
		if !b.failed && len(b.wrote) == b.failAt {
			b.failed = true
			return i, b.err
		}
		b.wrote = append(b.wrote, append([]byte(nil), p...))
	}
	return len(pkts), nil
}

func (b *scriptedBW) ReadPacket(buf []byte) (int, error) { select {} }
func (b *scriptedBW) Close() error                       { return nil }

// newFlushHarness builds a minimal scanner + shard pair around a
// scripted writer, with n probes already buffered in the arena.
func newFlushHarness(t *testing.T, bw *scriptedBW, n int) (*Scanner, *senderShardOf[uint32]) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Blocks = n
	cfg.Source = 0x0a000001
	cfg.SendRetries = 3
	cfg.PPS = 0       // no pacing: flushes happen only when the test says so
	cfg.Batch = 2 * n // arena larger than n so buffering never auto-flushes
	cfg.Targets = func(block int) uint32 { return 0x08080000 | uint32(block) }
	cfg.BlockOf = func(addr uint32) (int, bool) { return int(addr & 0xffff), true }
	s, err := NewScannerOf[uint32](ipv4Family{}, cfg, bw, simclock.NewReal())
	if err != nil {
		t.Fatal(err)
	}
	s.start = s.clock.Now()
	s.order = make([]uint32, n)
	for i := range s.order {
		s.order[i] = uint32(i)
	}
	s.makeShards()
	sh := s.shards[0]
	if sh.bw == nil {
		t.Fatal("harness shard did not detect the BatchWriter")
	}
	for i := 0; i < n; i++ {
		sh.sendProbeBatched(cfg.Targets(i), 10, false, 0)
	}
	return s, sh
}

// TestFlushPartialBatchRetried: a transient mid-batch failure costs
// nothing — the failed packet is retried on the single-packet path and
// the packets behind it are re-submitted, so all n probes reach the
// wire and none is double-written.
func TestFlushPartialBatchRetried(t *testing.T) {
	bw := &scriptedBW{failAt: 3, err: tempError{}}
	s, sh := newFlushHarness(t, bw, 8)
	sh.flush()
	if len(bw.wrote) != 8 {
		t.Fatalf("transport saw %d packets, want all 8", len(bw.wrote))
	}
	if sh.probesSent != 8 {
		t.Errorf("probesSent = %d, want 8", sh.probesSent)
	}
	if got := s.sendRetries.Load(); got != 1 {
		t.Errorf("sendRetries = %d, want 1", got)
	}
	if got := s.sendErrors.Load(); got != 0 {
		t.Errorf("sendErrors = %d, want 0", got)
	}
	if sh.nbuf != 0 {
		t.Errorf("arena not emptied: nbuf = %d", sh.nbuf)
	}
}

// TestFlushPartialBatchPermanentError: a permanent mid-batch failure
// drops exactly the one failed probe; the rest of the arena is still
// written, and the drop is counted.
func TestFlushPartialBatchPermanentError(t *testing.T) {
	bw := &scriptedBW{failAt: 3, err: errors.New("permanent")}
	s, sh := newFlushHarness(t, bw, 8)
	sh.flush()
	if len(bw.wrote) != 7 {
		t.Fatalf("transport saw %d packets, want 7 (one dropped)", len(bw.wrote))
	}
	if sh.probesSent != 7 {
		t.Errorf("probesSent = %d, want 7", sh.probesSent)
	}
	if got := s.sendErrors.Load(); got != 1 {
		t.Errorf("sendErrors = %d, want 1", got)
	}
	if got := s.sendRetries.Load(); got != 0 {
		t.Errorf("sendRetries = %d, want 0 (permanent errors are not retried)", got)
	}
}

// TestBatchValidation: Batch is clamped to [0, maxBatch], and a Batch on
// a transport without batch capabilities silently falls back to the
// unbatched data path.
func TestBatchValidation(t *testing.T) {
	e := newEnv(t, 64, 1)
	e.cfg.Batch = -5
	sc, err := NewScanner(e.cfg, e.net.NewConn(), e.clock)
	if err != nil {
		t.Fatal(err)
	}
	if sc.cfg.Batch != 0 {
		t.Errorf("negative Batch not clamped to 0: %d", sc.cfg.Batch)
	}
	e2 := newEnv(t, 64, 1)
	e2.cfg.Batch = maxBatch * 2
	sc2, err := NewScanner(e2.cfg, e2.net.NewConn(), e2.clock)
	if err != nil {
		t.Fatal(err)
	}
	if sc2.cfg.Batch != maxBatch {
		t.Errorf("oversized Batch not clamped to %d: %d", maxBatch, sc2.cfg.Batch)
	}

	// A plain PacketConn without WriteBatch: shards stay unbatched and the
	// scan still completes (fingerprint pinned by the golden suite).
	e3 := newEnv(t, 64, 1)
	e3.cfg.Batch = 32
	conn := struct{ PacketConn }{e3.net.NewConn()}
	sc3, err := NewScanner(e3.cfg, conn, e3.clock)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc3.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ProbesSent == 0 || res.Store.Interfaces().Len() == 0 {
		t.Fatal("fallback scan discovered nothing")
	}
}

// countingClock counts the Now calls made on a clock.
type countingClock struct {
	simclock.Waiter
	nows atomic.Int64
}

func (c *countingClock) Now() time.Time {
	c.nows.Add(1)
	return c.Waiter.Now()
}

// TestBatchClockReadsPerProbe: an unthrottled two-sender batched scan on
// the real clock reads the scan clock once per arena and once per
// ReadBatch, not once per probe and once per reply. The network keeps
// the plain clock, so only the engine's reads are counted.
func TestBatchClockReadsPerProbe(t *testing.T) {
	e := newEnvOnRealClock(t, 2048, 3)
	p := &e.topo.P
	p.BaseRTT, p.PerHopRTT, p.JitterRTT = 0, 0, 0
	p.ICMPRateLimitPPS = 0
	e.cfg.PPS = 0
	e.cfg.Senders, e.cfg.Batch = 2, 32
	e.cfg.DrainWait = 10 * time.Millisecond
	e.cfg.MinRoundTime = time.Millisecond
	clock := &countingClock{Waiter: e.clock}
	e.clock = clock
	res := e.run(t)
	if res.ProbesSent == 0 {
		t.Fatal("no probes sent")
	}
	perProbe := float64(clock.nows.Load()) / float64(res.ProbesSent)
	t.Logf("%d Now calls for %d probes (%.3f per probe)", clock.nows.Load(), res.ProbesSent, perProbe)
	if perProbe >= 0.25 {
		t.Errorf("%.3f clock reads per probe, want < 0.25", perProbe)
	}
}
