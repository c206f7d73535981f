package core

import (
	"testing"
	"time"

	"github.com/flashroute/flashroute/internal/netsim"
	"github.com/flashroute/flashroute/internal/simclock"
	"github.com/flashroute/flashroute/internal/trace"
)

// newLockstepEnv builds an environment whose response behavior is a pure
// function of which probes are sent, independent of when they are sent:
// no per-interface ICMP rate limiting, no route dynamics, no RTT jitter.
// With redundancy elimination off as well (the stop set couples
// destinations through probe order), the discovered topology depends only
// on the probe set — which is identical for any sender count — so runs
// with different Senders values must agree exactly.
func newLockstepEnv(t testing.TB, blocks int, seed int64) *testEnv {
	t.Helper()
	u := netsim.NewSyntheticUniverse(blocks)
	p := netsim.DefaultParams(seed)
	p.ICMPRateLimitPPS = 0
	p.DynamicBlockProb = 0
	p.JitterRTT = 0
	topo := netsim.NewTopology(u, p)
	clock := simclock.NewVirtual(time.Unix(0, 0))
	n := netsim.New(topo, clock)

	cfg := DefaultConfig()
	cfg.Blocks = blocks
	cfg.Source = topo.Vantage()
	cfg.Seed = seed
	cfg.PPS = 50_000
	cfg.NoRedundancyElimination = true
	cfg.Targets = func(block int) uint32 {
		return u.BlockAddr(block) | uint32(1+hashOctet(seed, block)%254)
	}
	cfg.BlockOf = func(addr uint32) (int, bool) { return u.BlockIndex(addr) }
	return &testEnv{topo: topo, clock: clock, net: n, cfg: cfg}
}

// reachedSet extracts the destinations whose scans reached the target.
func reachedSet(res *Result) map[uint32]bool {
	m := make(map[uint32]bool)
	res.Store.ForEachRoute(func(rt *trace.Route) {
		if rt.Reached {
			m[rt.Dst] = true
		}
	})
	return m
}

// TestMultiSenderTopologyInvariant: Senders: 4 must discover exactly the
// interfaces and reach exactly the destinations Senders: 1 does. Probe
// order (and with it probe counts and round counts) may differ; the
// topology must not. Run with -race, this also exercises four senders and
// the receiver hammering the shared DCB array through the per-DCB locks.
func TestMultiSenderTopologyInvariant(t *testing.T) {
	const blocks, seed = 1024, 11

	run := func(senders int) *Result {
		e := newLockstepEnv(t, blocks, seed)
		e.cfg.Senders = senders
		return e.run(t)
	}
	r1 := run(1)
	r4 := run(4)

	if r1.ProbesSent == 0 || r4.ProbesSent == 0 {
		t.Fatalf("degenerate scans: probes %d vs %d", r1.ProbesSent, r4.ProbesSent)
	}

	i1, i4 := r1.Store.Interfaces(), r4.Store.Interfaces()
	if i1.Len() != i4.Len() {
		t.Errorf("interfaces: 1 sender found %d, 4 senders found %d", i1.Len(), i4.Len())
	}
	missing := 0
	for a := range i1.All() {
		if !i4.Has(a) {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d interfaces found by 1 sender missing from the 4-sender run", missing)
	}

	re1, re4 := reachedSet(r1), reachedSet(r4)
	if len(re1) != len(re4) {
		t.Errorf("reached destinations: %d vs %d", len(re1), len(re4))
	}
	for dst := range re1 {
		if !re4[dst] {
			t.Errorf("destination %#x reached by 1 sender but not by 4", dst)
			break
		}
	}
	t.Logf("senders=1: probes=%d rounds=%d; senders=4: probes=%d rounds=%d; interfaces=%d reached=%d",
		r1.ProbesSent, r1.Rounds, r4.ProbesSent, r4.Rounds, i1.Len(), len(re1))
}

// TestMakeShardsPartition: the shards must cover the permuted order
// exactly — every entry in exactly one shard, in order — and split the
// aggregate PPS budget without starving any shard.
func TestMakeShardsPartition(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	for _, tc := range []struct {
		n, senders, pps int
	}{
		{1000, 1, 50_000},
		{1000, 3, 50_000},
		{1000, 7, 99_999},
		{7, 16, 100}, // more senders than work
		{1024, 8, 5}, // more senders than packets per second
		{5, 5, 0},    // unthrottled
		{1, 4, 1},
	} {
		s := &Scanner{cfg: Config{Senders: tc.senders, PPS: tc.pps}, clock: clock}
		s.order = make([]uint32, tc.n)
		for i := range s.order {
			s.order[i] = uint32(i) // identity stands in for the permutation
		}
		s.makeShards()

		if len(s.shards) < 1 || len(s.shards) > tc.senders {
			t.Fatalf("n=%d senders=%d: got %d shards", tc.n, tc.senders, len(s.shards))
		}
		var got []uint32
		for _, sh := range s.shards {
			got = append(got, sh.order...)
		}
		if len(got) != tc.n {
			t.Fatalf("n=%d senders=%d: shards cover %d entries", tc.n, tc.senders, len(got))
		}
		for i, b := range got {
			if b != uint32(i) {
				t.Fatalf("n=%d senders=%d: entry %d is %d (order not preserved)", tc.n, tc.senders, i, b)
			}
		}
		for i, sh := range s.shards {
			if tc.pps > 0 && sh.pacer.Rate() == 0 {
				t.Fatalf("n=%d senders=%d pps=%d: shard %d unthrottled", tc.n, tc.senders, tc.pps, i)
			}
			if tc.pps == 0 && sh.pacer.Rate() != 0 {
				t.Fatalf("n=%d senders=%d: shard %d throttled despite PPS=0", tc.n, tc.senders, i)
			}
		}
		if tc.pps >= tc.senders {
			// Aggregate rate: sum of per-shard rates within 1% of PPS.
			var sum float64
			for _, sh := range s.shards {
				sum += sh.pacer.Rate()
			}
			if tc.pps > 0 && (sum < 0.99*float64(tc.pps) || sum > 1.01*float64(tc.pps)) {
				t.Fatalf("n=%d senders=%d pps=%d: aggregate pacer rate %.1f", tc.n, tc.senders, tc.pps, sum)
			}
		}
	}
}
