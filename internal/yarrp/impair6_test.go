package yarrp

import (
	"testing"

	"github.com/flashroute/flashroute/internal/netsim6"
	"github.com/flashroute/flashroute/internal/simclock"
)

// lockstep6 builds a simulation whose replies are a pure function of the
// probe set: no per-interface ICMP rate limiting, no RTT jitter. Runs
// that only add packet loss or duplication then compare structurally.
func lockstep6(t testing.TB, prefixes, perPrefix int, seed int64) (*netsim6.Topology, *netsim6.Net, *simclock.Virtual) {
	t.Helper()
	topo, n, clock := sim(t, prefixes, perPrefix, seed)
	topo.P.ICMPRateLimitPPS = 0
	topo.P.JitterRTT = 0
	return topo, n, clock
}

func runYarrp6(t testing.TB, topo *netsim6.Topology, n *netsim6.Net, clock *simclock.Virtual,
	mutate func(*Config6)) *Result6 {
	t.Helper()
	cfg := DefaultConfig6()
	cfg.Blocks, cfg.Targets = targetList(topo.Targets())
	cfg.Source = topo.Vantage()
	cfg.PPS = 50_000
	if mutate != nil {
		mutate(&cfg)
	}
	sc, err := NewScannerOf(IPv6(), cfg, n.NewConn(), clock)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestYarrp6LossMonotonicity: the exhaustive sweep probes a fixed
// (target, hop-limit) set and fill probes chain only off received
// replies, so in lockstep every probe a lossy run sends the clean run
// sends too — loss can only shrink what Yarrp6 discovers, never change
// it.
func TestYarrp6LossMonotonicity(t *testing.T) {
	topoC, netC, clockC := lockstep6(t, 256, 8, 3)
	clean := runYarrp6(t, topoC, netC, clockC, nil)

	topoL, netL, clockL := lockstep6(t, 256, 8, 3)
	topoL.P.Impair = netsim6.Impairments{LossProb: 0.20}
	lossy := runYarrp6(t, topoL, netL, clockL, nil)

	if netL.Stats.ProbesLost.Load() == 0 || netL.Stats.RepliesLost.Load() == 0 {
		t.Fatal("loss impairment not exercised")
	}
	for _, a := range sortedInterfaces(lossy) {
		if !clean.Store.Interfaces().Has(a) {
			t.Errorf("interface %s discovered only under loss", a)
		}
	}
	for _, dst := range topoL.Targets() {
		if hasReached(lossy, dst) && !hasReached(clean, dst) {
			t.Errorf("target %s reached only under loss", dst)
		}
	}
	if lossy.Store.Interfaces().Len() >= clean.Store.Interfaces().Len() {
		t.Errorf("20%% loss did not shrink discovery: lossy=%d clean=%d",
			lossy.Store.Interfaces().Len(), clean.Store.Interfaces().Len())
	}
	if lossy.FillProbes >= clean.FillProbes {
		t.Errorf("loss did not shrink the fill chain: lossy=%d clean=%d",
			lossy.FillProbes, clean.FillProbes)
	}
	t.Logf("clean: %d ifaces/%d fill; lossy: %d ifaces/%d fill",
		clean.Store.Interfaces().Len(), clean.FillProbes, lossy.Store.Interfaces().Len(), lossy.FillProbes)
}

// TestYarrp6DuplicateInvariance: with fill mode off the probe set is
// fixed, so duplicating every packet multiplies replies but cannot change
// the discovered interface or reached sets. (Fill mode is excluded
// deliberately: stateless fill re-probes per received reply, so
// duplication inflates the fill chain — the statelessness cost the
// FlashRoute6 duplicate guard avoids.)
func TestYarrp6DuplicateInvariance(t *testing.T) {
	noFill := func(c *Config6) { c.FillMode = false }

	topoC, netC, clockC := lockstep6(t, 256, 8, 5)
	clean := runYarrp6(t, topoC, netC, clockC, noFill)

	topoD, netD, clockD := lockstep6(t, 256, 8, 5)
	topoD.P.Impair = netsim6.Impairments{DupProb: 1}
	duped := runYarrp6(t, topoD, netD, clockD, noFill)

	if netD.Stats.Duplicates.Load() == 0 {
		t.Fatal("duplication impairment not exercised")
	}
	if clean.ProbesSent != duped.ProbesSent {
		t.Errorf("fill-off probe counts differ: clean=%d duped=%d",
			clean.ProbesSent, duped.ProbesSent)
	}
	ci, di := sortedInterfaces(clean), sortedInterfaces(duped)
	if len(ci) != len(di) {
		t.Fatalf("interface counts differ: clean=%d duped=%d", len(ci), len(di))
	}
	for k := range ci {
		if ci[k] != di[k] {
			t.Fatalf("interface sets diverge at %d: %s vs %s", k, ci[k], di[k])
		}
	}
	if countReached(clean) != countReached(duped) {
		t.Fatalf("reached counts differ: clean=%d duped=%d",
			countReached(clean), countReached(duped))
	}
	for _, dst := range topoD.Targets() {
		if hasReached(clean, dst) != hasReached(duped, dst) {
			t.Fatalf("reached sets diverge at %s", dst)
		}
	}
	t.Logf("%d interfaces, %d reached invariant under %d duplicated packets",
		len(ci), countReached(clean), netD.Stats.Duplicates.Load())
}

// TestYarrp6DuplicationInflatesFill quantifies the comparison property:
// with fill on, mild duplication makes stateless Yarrp6 send extra fill
// probes for replies it has already acted on, while discovering nothing
// new.
func TestYarrp6DuplicationInflatesFill(t *testing.T) {
	topoC, netC, clockC := lockstep6(t, 256, 8, 7)
	clean := runYarrp6(t, topoC, netC, clockC, nil)

	topoD, netD, clockD := lockstep6(t, 256, 8, 7)
	topoD.P.Impair = netsim6.Impairments{DupProb: 0.05}
	duped := runYarrp6(t, topoD, netD, clockD, nil)

	if netD.Stats.Duplicates.Load() == 0 {
		t.Fatal("duplication impairment not exercised")
	}
	if duped.FillProbes <= clean.FillProbes {
		t.Errorf("duplication did not inflate the fill chain: duped=%d clean=%d",
			duped.FillProbes, clean.FillProbes)
	}
	for _, a := range sortedInterfaces(duped) {
		if !clean.Store.Interfaces().Has(a) {
			t.Errorf("interface %s discovered only under duplication", a)
		}
	}
	t.Logf("fill probes: clean=%d duped=%d (+%d) for the same %d interfaces",
		clean.FillProbes, duped.FillProbes, duped.FillProbes-clean.FillProbes,
		clean.Store.Interfaces().Len())
}
