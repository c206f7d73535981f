package core6

import (
	"testing"

	"github.com/flashroute/flashroute/internal/core"
)

// TestBatch6GoldenFingerprint: Config.Batch > 1 on the IPv6 stack must be
// bit-identical to the unbatched engine — the same golden fingerprints
// and probe budgets TestGoldenFingerprint6 pins.
func TestBatch6GoldenFingerprint(t *testing.T) {
	cases := []struct {
		seed   int64
		fp     uint64
		probes uint64
	}{
		{1, 0xa97488fdcbbcc75d, 12630},
		{7, 0xbda5ae5b63051e5f, 12478},
		{21, 0x45b30d442c927e68, 12466},
	}
	for _, tc := range cases {
		e := newEnv(t, 256, 8, tc.seed)
		e.cfg.Batch = 32
		res := e.run(t)
		if fp := fpOf6(res, e.targets); fp != tc.fp {
			t.Errorf("seed %d batch=32: fingerprint %#x, want %#x", tc.seed, fp, tc.fp)
		}
		if res.ProbesSent != tc.probes {
			t.Errorf("seed %d batch=32: probes %d, want %d", tc.seed, res.ProbesSent, tc.probes)
		}
	}
}

// TestBatch6EquivalenceGrid: batched Senders × Receivers combinations
// must discover exactly what the unbatched sequential scan does — the
// IPv6 half of the engine-wide batch equivalence grid. Redundancy
// elimination is disabled so the discovered topology is a pure function
// of the probe set (the stop set otherwise couples targets through probe
// order).
func TestBatch6EquivalenceGrid(t *testing.T) {
	for _, seed := range []int64{1, 7, 21} {
		mk := func() *env {
			e := newEnv(t, 128, 8, seed)
			// Lockstep conditions (see the IPv4 newLockstepEnv): no ICMP
			// rate limiting or jitter, no stop-set coupling — discovery is
			// a pure function of the probe set, identical across grid
			// points.
			e.topo.P.ICMPRateLimitPPS = 0
			e.topo.P.JitterRTT = 0
			e.cfg.NoRedundancyElimination = true
			return e
		}
		base := mk().run(t)
		baseFP := fpOf6(base, mk().targets)
		if base.InterfaceCount() == 0 {
			t.Fatalf("seed %d: degenerate baseline", seed)
		}
		for _, senders := range []int{1, 4} {
			for _, receivers := range []int{1, 4} {
				e := mk()
				e.cfg.Batch = 32
				e.cfg.Senders = senders
				e.cfg.Receivers = receivers
				conn := e.net.NewConn()
				if receivers > 1 {
					e.cfg.NewReader = func() core.PacketReader { return conn.NewReader() }
				}
				sc, err := core.NewScannerOf(Family(), e.cfg, conn, e.clock)
				res := runScanner(t, sc, err)
				if fp := fpOf6(res, e.targets); fp != baseFP {
					t.Errorf("seed=%d senders=%d receivers=%d batch=32: fingerprint %#x, want %#x (interfaces %d vs %d)",
						seed, senders, receivers, fp, baseFP,
						res.InterfaceCount(), base.InterfaceCount())
				}
			}
		}
	}
}
