package core6

import (
	"bytes"
	"sort"
	"testing"

	"github.com/flashroute/flashroute/internal/probe6"
)

// fpOf6 fingerprints a FlashRoute6 scan's discovered topology: FNV-1a
// over the sorted interface set and the sorted reached-target set. Probe
// order and timing do not enter the fingerprint, only what was
// discovered — the IPv6 analogue of the IPv4 engine's fpOf.
func fpOf6(res result, targets []probe6.Addr) uint64 {
	ifaces := res.Interfaces()
	var reached []probe6.Addr
	for _, dst := range targets {
		if rt := res.Route(dst); rt != nil && rt.Reached {
			reached = append(reached, dst)
		}
	}
	sort.Slice(reached, func(i, j int) bool {
		return bytes.Compare(reached[i][:], reached[j][:]) < 0
	})
	h := uint64(14695981039346656037)
	mix := func(a probe6.Addr) {
		for _, b := range a {
			h ^= uint64(b)
			h *= 1099511628211
		}
	}
	for _, a := range ifaces {
		mix(a)
	}
	h ^= 0xff
	h *= 1099511628211
	for _, d := range reached {
		mix(d)
	}
	return h
}

// TestGoldenFingerprint6 pins the v6 scanner's discovered topology and
// probe budget on a perfect network with a single sender: the safety net
// under which the engine can be refactored. The fingerprints below were
// captured from the standalone (pre-unification) FlashRoute6 scanner and
// must never drift.
func TestGoldenFingerprint6(t *testing.T) {
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
		res := e.run(t)
		if fp := fpOf6(res, e.targets); fp != tc.fp {
			t.Errorf("seed %d: fingerprint %#x, want %#x", tc.seed, fp, tc.fp)
		}
		if res.ProbesSent != tc.probes {
			t.Errorf("seed %d: probes %d, want %d", tc.seed, res.ProbesSent, tc.probes)
		}
		if res.InterfaceCount() == 0 || res.ReachedCount() == 0 {
			t.Errorf("seed %d: degenerate scan (%d interfaces, %d reached)",
				tc.seed, res.InterfaceCount(), res.ReachedCount())
		}
	}
}
