package flashroute

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/flashroute/flashroute/internal/output"
)

func TestPublicQuickstart(t *testing.T) {
	sim := NewSimulation(SimConfig{Blocks: 1024, Seed: 7})
	res, err := sim.Scan(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes() == 0 || res.InterfaceCount() == 0 {
		t.Fatalf("empty scan: %d probes, %d interfaces", res.Probes(), res.InterfaceCount())
	}
	if res.ScanTime() <= 0 || res.Rounds() == 0 {
		t.Fatal("missing timing")
	}
	stats := sim.Stats()
	if stats.ProbesSeen != res.Probes() {
		t.Fatalf("network saw %d probes, scanner sent %d", stats.ProbesSeen, res.Probes())
	}
}

func TestPublicRoutesAndDistances(t *testing.T) {
	sim := NewSimulation(SimConfig{Blocks: 2048, Seed: 9})
	cfg := DefaultConfig()
	cfg.CollectRoutes = true
	res, err := sim.Scan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRoutes() == 0 {
		t.Fatal("no routes")
	}
	found := false
	res.ForEachRoute(func(r *Route) {
		if r.Reached && len(r.Hops) > 1 {
			found = true
		}
	})
	if !found {
		t.Fatal("no reached multi-hop route")
	}
	if res.DistancesMeasured() == 0 || res.DistancesPredicted() == 0 {
		t.Fatal("preprobing produced nothing")
	}
	// Measured distances agree with simulator ground truth most of the
	// time (route dynamics allow small drift).
	ok, total := 0, 0
	for b := 0; b < sim.Blocks(); b++ {
		d, pred := res.MeasuredDistance(b)
		if d == 0 || pred {
			continue
		}
		truth := sim.TrueDistance(sim.RandomTargets()(b))
		if truth == 0 {
			continue
		}
		total++
		diff := int(d) - int(truth)
		if diff >= -1 && diff <= 1 {
			ok++
		}
	}
	if total == 0 || ok*10 < total*8 {
		t.Fatalf("measured distances poor: %d/%d within one hop", ok, total)
	}
}

func TestPublicCSVAndHitlist(t *testing.T) {
	sim := NewSimulation(SimConfig{Blocks: 256, Seed: 3})
	cfg := DefaultConfig()
	cfg.CollectRoutes = true
	res, err := sim.Scan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "destination,ttl,hop") {
		t.Fatalf("csv header: %q", buf.String()[:40])
	}
	var hl bytes.Buffer
	if err := sim.WriteHitlist(&hl); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(hl.String(), "\n"); lines != 256 {
		t.Fatalf("hitlist lines=%d", lines)
	}
}

func TestPublicBaselines(t *testing.T) {
	sim := NewSimulation(SimConfig{Blocks: 512, Seed: 5})
	yr, err := sim.RunYarrp(YarrpConfig{PPS: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if yr.Probes() != 512*32 {
		t.Fatalf("yarrp probes=%d", yr.Probes())
	}
	sim2 := NewSimulation(SimConfig{Blocks: 512, Seed: 5})
	sr, err := sim2.RunScamper(ScamperConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Probes() == 0 || sr.InterfaceCount() == 0 {
		t.Fatal("scamper scan empty")
	}
}

func TestPublicCIDRUniverse(t *testing.T) {
	sim := NewSimulation(SimConfig{CIDRs: []string{"192.0.0.0/16"}, Seed: 1})
	if sim.Blocks() != 256 {
		t.Fatalf("blocks=%d", sim.Blocks())
	}
	addr := sim.BlockAddr(0)
	if FormatAddr(addr) != "192.0.0.0" {
		t.Fatalf("block 0 at %s", FormatAddr(addr))
	}
	if b, ok := sim.BlockOf(addr | 42); !ok || b != 0 {
		t.Fatal("BlockOf failed")
	}
}

func TestPublicDiscoveryMode(t *testing.T) {
	sim := NewSimulation(SimConfig{Blocks: 2048, Seed: 11})
	cfg := DefaultConfig()
	cfg.SplitTTL = 32
	cfg.ExtraScans = 2
	res, err := sim.Scan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := NewSimulation(SimConfig{Blocks: 2048, Seed: 11})
	bcfg := DefaultConfig()
	bcfg.SplitTTL = 32
	bres, err := base.Scan(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.InterfaceCount() <= bres.InterfaceCount() {
		t.Fatalf("discovery mode found nothing extra: %d vs %d",
			res.InterfaceCount(), bres.InterfaceCount())
	}
}

// TestVaryExtraScanTargets: §5.4's varying-destination extra scans must
// discover more than port-variation alone (address-dependent paths and
// fresh per-flow balancer samples).
func TestVaryExtraScanTargets(t *testing.T) {
	run := func(vary bool) int {
		sim := NewSimulation(SimConfig{Blocks: 8192, Seed: 21})
		cfg := DefaultConfig()
		cfg.PPS = 50_000
		cfg.SplitTTL = 32
		cfg.ExtraScans = 3
		cfg.VaryExtraScanTargets = vary
		res, err := sim.Scan(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.InterfaceCount()
	}
	fixed := run(false)
	varied := run(true)
	if varied <= fixed {
		t.Fatalf("varying targets should discover more: fixed=%d varied=%d", fixed, varied)
	}
	t.Logf("fixed targets: %d ifaces; varied targets: %d ifaces (+%d)", fixed, varied, varied-fixed)
}

// TestExclusionsRespected: excluded blocks must receive zero probes.
func TestExclusionsRespected(t *testing.T) {
	sim := NewSimulation(SimConfig{Blocks: 512, Seed: 4})
	excl, err := ReadExclusions(strings.NewReader("4.0.0.0/26\n4.0.7.0/24\n"))
	if err != nil {
		t.Fatal(err)
	}
	// /26 does not cover the whole first /24; block exclusion applies to
	// the block containing the base.
	cfg := DefaultConfig()
	cfg.Skip = sim.SkipFor(excl)
	var mu sync.Mutex
	probed := map[int]bool{}
	cfg.Observer = func(dst uint32, ttl uint8, at time.Duration) {
		if b, ok := sim.BlockOf(dst); ok {
			mu.Lock()
			probed[b] = true
			mu.Unlock()
		}
	}
	if _, err := sim.Scan(cfg); err != nil {
		t.Fatal(err)
	}
	if probed[0] || probed[7] {
		t.Fatal("excluded blocks were probed")
	}
	if !probed[1] || !probed[100] {
		t.Fatal("non-excluded blocks were not probed")
	}
	if !excl.Contains(0x04000010) || excl.Contains(0x04000100) {
		t.Fatal("Contains semantics wrong")
	}
}

func TestBinaryOutputRoundTrip(t *testing.T) {
	sim := NewSimulation(SimConfig{Blocks: 256, Seed: 6})
	cfg := DefaultConfig()
	cfg.CollectRoutes = true
	res, err := sim.Scan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := WriteBinary(&buf, res)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no records written")
	}
	r, err := output.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s, err := output.Summarize(r)
	if err != nil {
		t.Fatal(err)
	}
	if s.Records != n {
		t.Fatalf("records %d != written %d", s.Records, n)
	}
	if s.Interfaces != res.InterfaceCount() {
		t.Fatalf("summary interfaces %d != result %d", s.Interfaces, res.InterfaceCount())
	}
}

// TestPingCensusDrivesPreprobing: the packet-built census must be usable
// as preprobe targets end to end.
func TestPingCensusDrivesPreprobing(t *testing.T) {
	sim := NewSimulation(SimConfig{Blocks: 2048, Seed: 13})
	responsive, err := sim.PingCensus()
	if err != nil {
		t.Fatal(err)
	}
	if responsive == 0 {
		t.Fatal("census found nothing")
	}
	cfg := DefaultConfig()
	cfg.Preprobe = PreprobeHitlist
	cfg.PreprobeTargets = sim.HitlistTargets()
	res, err := sim.Scan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DistancesMeasured() == 0 {
		t.Fatal("ping-census hitlist produced no measured distances")
	}
	t.Logf("census: %d responsive; scan measured %d distances", responsive, res.DistancesMeasured())
}

func TestAddrHelpers(t *testing.T) {
	a, err := ParseAddr("10.1.2.3")
	if err != nil || FormatAddr(a) != "10.1.2.3" {
		t.Fatalf("%v %v", a, err)
	}
	if _, err := ParseAddr("zap"); err == nil {
		t.Fatal("junk accepted")
	}
}

// TestReadTargets: the §3.4 exterior-target-file option.
func TestReadTargets(t *testing.T) {
	sim := NewSimulation(SimConfig{Blocks: 64, Seed: 8})
	in := "# targets\n4.0.3.99\n4.0.7.1\n9.9.9.9\n"

	// With a fallback: listed blocks overridden, others fall back.
	targets, skip, err := sim.ReadTargets(strings.NewReader(in), sim.RandomTargets())
	if err != nil {
		t.Fatal(err)
	}
	if targets(3) != 0x04000300|99 || targets(7) != 0x04000700|1 {
		t.Fatal("overrides not applied")
	}
	if targets(5) == 0 || skip(5) {
		t.Fatal("fallback should cover unlisted blocks")
	}

	// Without a fallback: unlisted blocks are skipped; the scan probes
	// exactly the listed blocks.
	targets, skip, err = sim.ReadTargets(strings.NewReader(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !skip(5) || skip(3) || skip(7) {
		t.Fatal("skip semantics wrong")
	}
	cfg := DefaultConfig()
	cfg.Exhaustive = true
	cfg.Targets = targets
	cfg.Skip = skip
	res, err := sim.Scan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes() != 2*32 {
		t.Fatalf("probes=%d want %d (two listed blocks)", res.Probes(), 2*32)
	}

	if _, _, err := sim.ReadTargets(strings.NewReader("junk\n"), nil); err == nil {
		t.Fatal("junk accepted")
	}
}

func TestConfigOverridesRespected(t *testing.T) {
	sim := NewSimulation(SimConfig{Blocks: 256, Seed: 2})
	cfg := DefaultConfig()
	cfg.Exhaustive = true
	res, err := sim.Scan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Probes() != 256*32 {
		t.Fatalf("exhaustive probes=%d want %d", res.Probes(), 256*32)
	}
	// GapLimitZero must disable forward probing entirely.
	sim2 := NewSimulation(SimConfig{Blocks: 256, Seed: 2})
	cfg2 := DefaultConfig()
	cfg2.GapLimitZero = true
	res2, err := sim2.Scan(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	sim3 := NewSimulation(SimConfig{Blocks: 256, Seed: 2})
	res3, err := sim3.Scan(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Probes() >= res3.Probes() {
		t.Fatalf("gap-0 should probe less: %d vs %d", res2.Probes(), res3.Probes())
	}
}
