package yarrp6

import (
	"testing"
	"time"

	"github.com/flashroute/flashroute/internal/core"
	"github.com/flashroute/flashroute/internal/core6"
	"github.com/flashroute/flashroute/internal/netsim6"
	"github.com/flashroute/flashroute/internal/probe6"
	"github.com/flashroute/flashroute/internal/simclock"
)

func sim(t testing.TB, prefixes, perPrefix int, seed int64) (*netsim6.Topology, *netsim6.Net, *simclock.Virtual) {
	t.Helper()
	p := netsim6.DefaultParams(seed)
	p.Prefixes = prefixes
	p.TargetsPerPrefix = perPrefix
	topo := netsim6.NewTopology(p)
	clock := simclock.NewVirtual(time.Unix(0, 0))
	return topo, netsim6.New(topo, clock), clock
}

func TestYarrp6ExactBaseProbeCount(t *testing.T) {
	topo, n, clock := sim(t, 64, 4, 1)
	cfg := DefaultConfig()
	cfg.Targets = topo.Targets()
	cfg.Source = topo.Vantage()
	cfg.PPS = 50_000
	sc, err := NewScanner(cfg, n.NewConn(), clock)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	base := uint64(len(cfg.Targets)) * 16
	if res.ProbesSent-res.FillProbes != base {
		t.Fatalf("base probes=%d want %d", res.ProbesSent-res.FillProbes, base)
	}
	if res.InterfaceCount() == 0 || res.ReachedCount() == 0 {
		t.Fatal("empty scan")
	}
	if res.FillProbes == 0 {
		t.Fatal("fill mode sent nothing despite deep routes")
	}
	t.Logf("yarrp6: %d probes (%d fill), %d ifaces, %d reached",
		res.ProbesSent, res.FillProbes, res.InterfaceCount(), res.ReachedCount())
}

// TestFlashRoute6BeatsYarrp6 is the IPv6 analogue of Table 3: on the same
// candidate list, FlashRoute6 must discover a comparable interface set
// with substantially fewer probes.
func TestFlashRoute6BeatsYarrp6(t *testing.T) {
	topoA, netA, clockA := sim(t, 512, 8, 2)
	ycfg := DefaultConfig()
	ycfg.Targets = topoA.Targets()
	ycfg.Source = topoA.Vantage()
	ycfg.PPS = 50_000
	ysc, err := NewScanner(ycfg, netA.NewConn(), clockA)
	if err != nil {
		t.Fatal(err)
	}
	yres, err := ysc.Run()
	if err != nil {
		t.Fatal(err)
	}

	topoB, netB, clockB := sim(t, 512, 8, 2)
	fcfg := core6.DefaultConfig(topoB.Targets())
	fcfg.Source = topoB.Vantage()
	fcfg.PPS = 50_000
	fsc, err := core.NewScannerOf(core6.Family(), fcfg, netB.NewConn(), clockB)
	if err != nil {
		t.Fatal(err)
	}
	fres, err := fsc.Run()
	if err != nil {
		t.Fatal(err)
	}

	if fres.ProbesSent*2 >= yres.ProbesSent {
		t.Fatalf("FlashRoute6 should use <50%% of Yarrp6's probes: %d vs %d",
			fres.ProbesSent, yres.ProbesSent)
	}
	if float64(fres.Store.Interfaces().Len()) < 0.9*float64(yres.InterfaceCount()) {
		t.Fatalf("FlashRoute6 lost too many interfaces: %d vs %d",
			fres.Store.Interfaces().Len(), yres.InterfaceCount())
	}
	t.Logf("yarrp6: %d probes/%d ifaces; flashroute6: %d probes/%d ifaces (%.0f%% of probes)",
		yres.ProbesSent, yres.InterfaceCount(), fres.ProbesSent, fres.Store.Interfaces().Len(),
		100*float64(fres.ProbesSent)/float64(yres.ProbesSent))
}

func TestYarrp6Validation(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	if _, err := NewScanner(Config{}, nil, clock); err == nil {
		t.Fatal("empty targets accepted")
	}
	cfg := DefaultConfig()
	cfg.Targets = make([]probe6.Addr, 1)
	cfg.FillMax = 8
	if _, err := NewScanner(cfg, nil, clock); err == nil {
		t.Fatal("bad FillMax accepted")
	}
}
