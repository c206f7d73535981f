package core

import (
	"sort"
	"testing"
	"time"

	"github.com/flashroute/flashroute/internal/netsim"
	"github.com/flashroute/flashroute/internal/simnet"
	"github.com/flashroute/flashroute/internal/trace"
)

// fpOf fingerprints a scan's discovered topology: FNV-1a over the sorted
// interface set and the sorted reached-destination set. Probe order and
// timing do not enter the fingerprint, only what was discovered.
func fpOf(res *Result) uint64 {
	ifaces := make([]uint32, 0, res.Store.Interfaces().Len())
	for a := range res.Store.Interfaces().All() {
		ifaces = append(ifaces, a)
	}
	sort.Slice(ifaces, func(i, j int) bool { return ifaces[i] < ifaces[j] })
	var reached []uint32
	res.Store.ForEachRoute(func(rt *trace.Route) {
		if rt.Reached {
			reached = append(reached, rt.Dst)
		}
	})
	sort.Slice(reached, func(i, j int) bool { return reached[i] < reached[j] })
	h := uint64(14695981039346656037)
	mix := func(v uint32) {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(v >> s))
			h *= 1099511628211
		}
	}
	for _, a := range ifaces {
		mix(a)
	}
	mix(0xffffffff)
	for _, d := range reached {
		mix(d)
	}
	return h
}

// TestImpairmentZeroFingerprint pins the no-behavior-change-by-default
// guarantee: with Impairments all-zero, scans are bit-identical to the
// engine before the impairment layer existed. The fingerprints below were
// captured from that engine (blocks=1024, default params; lockstep params
// for the multi-sender rows) and must never drift.
func TestImpairmentZeroFingerprint(t *testing.T) {
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
		e.topo.P.Impair = netsim.Impairments{} // explicit: the zero value
		res := e.run(t)
		if fp := fpOf(res); fp != tc.fp {
			t.Errorf("seed %d senders=1: fingerprint %#x, want %#x", tc.seed, fp, tc.fp)
		}
		if res.ProbesSent != tc.probes {
			t.Errorf("seed %d senders=1: probes %d, want %d", tc.seed, res.ProbesSent, tc.probes)
		}
		if res.RetransmittedProbes != 0 || res.DuplicateResponses != 0 {
			t.Errorf("seed %d: perfect network counted retransmits=%d dups=%d",
				tc.seed, res.RetransmittedProbes, res.DuplicateResponses)
		}
	}

	// Multi-sender runs are only order-invariant in the lockstep
	// environment (no rate limiting, no dynamics, no jitter, no stop-set
	// coupling), where the discovered topology is a pure function of the
	// probe set.
	multi := []struct {
		seed int64
		fp   uint64
	}{
		{1, 0xe7dc416d629f035c},
		{7, 0x500ee780aefb45e9},
		{21, 0xf9ab8ad983ad9858},
	}
	for _, tc := range multi {
		e := newLockstepEnv(t, 1024, tc.seed)
		e.cfg.Senders = 4
		e.topo.P.Impair = netsim.Impairments{}
		res := e.run(t)
		if fp := fpOf(res); fp != tc.fp {
			t.Errorf("seed %d senders=4: fingerprint %#x, want %#x", tc.seed, fp, tc.fp)
		}
	}
}

// TestImpairmentDeterminism: same topology seed + same Impairments ⇒ the
// same scan, reply for reply. Two runs must agree on the fingerprint, the
// probe count and every impairment counter.
func TestImpairmentDeterminism(t *testing.T) {
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
	run := func() (*Result, *simnet.Stats) {
		e := newEnv(t, 1024, 7)
		e.topo.P.Impair = im
		e.cfg.PreprobeRetries = 1
		e.cfg.ForwardRetries = 1
		return e.run(t), &e.net.Stats
	}
	r1, s1 := run()
	r2, s2 := run()

	if fp1, fp2 := fpOf(r1), fpOf(r2); fp1 != fp2 {
		t.Errorf("fingerprints differ across identical runs: %#x vs %#x", fp1, fp2)
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
		{"ProbesLost", s1.ProbesLost.Load(), s2.ProbesLost.Load()},
		{"RepliesLost", s1.RepliesLost.Load(), s2.RepliesLost.Load()},
		{"Duplicates", s1.Duplicates.Load(), s2.Duplicates.Load()},
		{"Reordered", s1.Reordered.Load(), s2.Reordered.Load()},
	} {
		if c.a != c.b {
			t.Errorf("netsim %s differs: %d vs %d", c.name, c.a, c.b)
		}
		if c.a == 0 {
			t.Errorf("netsim %s is zero — impairment not exercised", c.name)
		}
	}
	t.Logf("probes=%d retransmits=%d dups=%d interfaces=%d",
		r1.ProbesSent, r1.RetransmittedProbes, r1.DuplicateResponses,
		r1.Store.Interfaces().Len())
}

// TestImpairmentLossMonotonicity: in an environment where the discovered
// topology is a pure function of which replies arrive (no preprobing, no
// rate limiting, no dynamics, no stop-set coupling, loss the only
// impairment), losing packets can only shrink discovery: the 20%-loss
// interface set must be a subset of the lossless one.
func TestImpairmentLossMonotonicity(t *testing.T) {
	run := func(loss float64) *Result {
		e := newLockstepEnv(t, 1024, 3)
		e.cfg.Preprobe = PreprobeOff
		e.topo.P.Impair = netsim.Impairments{LossProb: loss}
		return e.run(t)
	}
	clean := run(0)
	lossy := run(0.20)

	ic, il := clean.Store.Interfaces(), lossy.Store.Interfaces()
	if il.Len() > ic.Len() {
		t.Errorf("20%% loss discovered MORE interfaces: %d > %d", il.Len(), ic.Len())
	}
	for a := range il.All() {
		if !ic.Has(a) {
			t.Errorf("interface %#x discovered only under loss", a)
		}
	}
	rc, rl := reachedSet(clean), reachedSet(lossy)
	if len(rl) > len(rc) {
		t.Errorf("20%% loss reached MORE destinations: %d > %d", len(rl), len(rc))
	}
	for d := range rl {
		if !rc[d] {
			t.Errorf("destination %#x reached only under loss", d)
		}
	}
	if il.Len() == ic.Len() {
		t.Errorf("20%% loss lost nothing (interfaces %d == %d) — impairment not exercised",
			il.Len(), ic.Len())
	}
	t.Logf("interfaces: clean=%d lossy=%d; reached: clean=%d lossy=%d",
		ic.Len(), il.Len(), len(rc), len(rl))
}

// TestImpairmentDuplicateInvariance: with every packet duplicated (and
// nothing lost), the receive-path duplicate guard must keep the discovered
// topology exactly what it is on a clean network — no double-counted
// interfaces, no prematurely terminated backward probing.
func TestImpairmentDuplicateInvariance(t *testing.T) {
	run := func(dup float64) *Result {
		e := newLockstepEnv(t, 1024, 5)
		e.topo.P.Impair = netsim.Impairments{DupProb: dup}
		return e.run(t)
	}
	clean := run(0)
	duped := run(1)

	if fc, fd := fpOf(clean), fpOf(duped); fc != fd {
		t.Errorf("duplication changed the discovered topology: %#x vs %#x", fc, fd)
	}
	if duped.DuplicateResponses == 0 {
		t.Error("DupProb=1 produced no counted duplicate responses")
	}
	t.Logf("interfaces=%d duplicates discarded=%d",
		duped.Store.Interfaces().Len(), duped.DuplicateResponses)
}

// TestImpairmentPreprobeRetry: under loss, one preprobe retry pass must
// recover measured distances a single pass lost, and never lose any.
func TestImpairmentPreprobeRetry(t *testing.T) {
	run := func(retries int) *Result {
		e := newEnv(t, 1024, 1)
		e.topo.P.Impair = netsim.Impairments{LossProb: 0.30}
		e.cfg.PreprobeRetries = retries
		return e.run(t)
	}
	plain := run(0)
	retried := run(2)

	if retried.RetransmittedProbes == 0 {
		t.Fatal("retry runs recorded no retransmitted probes")
	}
	if retried.DistancesMeasured <= plain.DistancesMeasured {
		t.Errorf("retries measured %d distances, single pass %d — no recovery",
			retried.DistancesMeasured, plain.DistancesMeasured)
	}
	t.Logf("measured: plain=%d retried=%d (retransmits=%d)",
		plain.DistancesMeasured, retried.DistancesMeasured, retried.RetransmittedProbes)
}

// TestImpairmentForwardRetry: under loss, rewinding the silent gap must
// recover forward discovery (interfaces past the split point) that lost
// replies would otherwise end. The comparison runs in the lockstep
// environment: with per-interface rate limiting on, retransmissions also
// consume ICMP budget, which can cost unrelated replies and mask the
// recovery (the same live-network trade-off the paper's GapLimit makes).
func TestImpairmentForwardRetry(t *testing.T) {
	run := func(retries int) *Result {
		e := newLockstepEnv(t, 1024, 1)
		e.topo.P.Impair = netsim.Impairments{LossProb: 0.15}
		e.cfg.ForwardRetries = retries
		return e.run(t)
	}
	plain := run(0)
	retried := run(1)

	if retried.RetransmittedProbes == 0 {
		t.Fatal("forward retries recorded no retransmitted probes")
	}
	ip, ir := plain.Store.Interfaces().Len(), retried.Store.Interfaces().Len()
	rp, rr := len(reachedSet(plain)), len(reachedSet(retried))
	if ir < ip {
		t.Errorf("forward retries discovered fewer interfaces: %d < %d", ir, ip)
	}
	if rr < rp {
		t.Errorf("forward retries reached fewer destinations: %d < %d", rr, rp)
	}
	t.Logf("interfaces: plain=%d retried=%d; reached: plain=%d retried=%d (retransmits=%d)",
		ip, ir, rp, rr, retried.RetransmittedProbes)
}
