package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/flashroute/flashroute/internal/core"
	"github.com/flashroute/flashroute/internal/core6"
	"github.com/flashroute/flashroute/internal/metrics"
	"github.com/flashroute/flashroute/internal/netsim6"
	"github.com/flashroute/flashroute/internal/probe6"
	"github.com/flashroute/flashroute/internal/simclock"
	"github.com/flashroute/flashroute/internal/yarrp"
)

// IPv6Result carries the FlashRoute6-vs-Yarrp6 comparison — the IPv6
// analogue of Table 3 for the paper's §5.4 extension.
type IPv6Result struct {
	Targets int

	FlashProbes     uint64
	FlashInterfaces int
	FlashTime       time.Duration
	FlashMeasured   int
	FlashPredicted  int

	YarrpProbes     uint64
	YarrpFill       uint64
	YarrpInterfaces int
	YarrpTime       time.Duration
}

// WriteText renders the comparison.
func (r *IPv6Result) WriteText(w io.Writer) error {
	_, err := fmt.Fprintf(w, `FlashRoute6 vs Yarrp6 over a %d-target candidate list
flashroute6: %d probes, %d interfaces, %s (measured %d / predicted %d split points)
yarrp6-16+fill: %d probes (%d fill), %d interfaces, %s
flashroute6 probe budget: %.1f%% of yarrp6's
`,
		r.Targets,
		r.FlashProbes, r.FlashInterfaces, metrics.FormatDuration(r.FlashTime),
		r.FlashMeasured, r.FlashPredicted,
		r.YarrpProbes, r.YarrpFill, r.YarrpInterfaces, metrics.FormatDuration(r.YarrpTime),
		100*float64(r.FlashProbes)/float64(r.YarrpProbes))
	return err
}

// IPv6Comparison runs FlashRoute6 and Yarrp6 over identical copies of a
// synthetic IPv6 Internet and candidate list.
func IPv6Comparison(prefixes, perPrefix int, seed int64) (*IPv6Result, error) {
	build := func() (*netsim6.Topology, *netsim6.Net, *simclock.Virtual) {
		p := netsim6.DefaultParams(seed)
		p.Prefixes = prefixes
		p.TargetsPerPrefix = perPrefix
		topo := netsim6.NewTopology(p)
		clock := simclock.NewVirtual(time.Unix(0, 0))
		return topo, netsim6.New(topo, clock), clock
	}

	out := &IPv6Result{Targets: prefixes * perPrefix}
	// The IPv6 candidate space has no paper-scale reference; scale the
	// rate so per-target budgets mirror the IPv4 methodology.
	pps := out.Targets / 8
	if pps < 200 {
		pps = 200
	}

	topoF, netF, clockF := build()
	fcfg := core6.DefaultConfig(topoF.Targets())
	fcfg.Source = topoF.Vantage()
	fcfg.Seed = seed
	fcfg.PPS = pps
	fsc, err := core.NewScannerOf(core6.Family(), fcfg, netF.NewConn(), clockF)
	if err != nil {
		return nil, err
	}
	fres, err := fsc.Run()
	if err != nil {
		return nil, err
	}
	out.FlashProbes = fres.ProbesSent
	out.FlashInterfaces = fres.Store.Interfaces().Len()
	out.FlashTime = fres.ScanTime
	out.FlashMeasured = fres.DistancesMeasured
	out.FlashPredicted = fres.DistancesPredicted

	topoY, netY, clockY := build()
	targets := topoY.Targets()
	ycfg := yarrp.DefaultConfig6()
	ycfg.Blocks = len(targets)
	ycfg.Targets = func(i int) probe6.Addr { return targets[i] }
	ycfg.Source = topoY.Vantage()
	ycfg.Seed = seed
	ycfg.PPS = pps
	ysc, err := yarrp.NewScannerOf(yarrp.IPv6(), ycfg, netY.NewConn(), clockY)
	if err != nil {
		return nil, err
	}
	yres, err := ysc.Run()
	if err != nil {
		return nil, err
	}
	out.YarrpProbes = yres.ProbesSent
	out.YarrpFill = yres.FillProbes
	out.YarrpInterfaces = yres.Store.Interfaces().Len()
	out.YarrpTime = yres.ScanTime
	return out, nil
}

// fastTopo6 builds an IPv6 topology tuned for real-clock throughput
// measurement: the same near-zero RTTs as the Table 5 fast network, so
// rates are CPU-bound and comparable across families.
func fastTopo6(prefixes, perPrefix int, seed int64) *netsim6.Topology {
	p := netsim6.DefaultParams(seed)
	p.Prefixes = prefixes
	p.TargetsPerPrefix = perPrefix
	p.BaseRTT = 100 * time.Microsecond
	p.PerHopRTT = 0
	p.JitterRTT = 200 * time.Microsecond
	return netsim6.NewTopology(p)
}

// MaxRate6 measures the unthrottled real-clock probing rate of a
// FlashRoute6 scan over a candidate list of about the given size — the
// Table 5 measurement run through the IPv6 instantiation of the same
// engine. The full-scan estimate extrapolates to a paper-scale candidate
// list of PaperBlocks addresses (one per routed /24-equivalent, the §5.4
// hitlist regime).
func MaxRate6(targetCount int, seed int64) (RateRow, error) {
	perPrefix := 16
	prefixes := targetCount / perPrefix
	if prefixes < 1 {
		prefixes = 1
	}
	clock := simclock.NewReal()
	topo := fastTopo6(prefixes, perPrefix, seed)
	n := netsim6.New(topo, clock)
	cfg := core6.DefaultConfig(topo.Targets())
	cfg.Source = topo.Vantage()
	cfg.Seed = seed
	cfg.PPS = 0 // unthrottled
	cfg.MinRoundTime = time.Millisecond
	cfg.DrainWait = 100 * time.Millisecond
	sc, err := core.NewScannerOf(core6.Family(), cfg, n.NewConn(), clock)
	if err != nil {
		return RateRow{}, err
	}
	res, err := sc.Run()
	if err != nil {
		return RateRow{}, err
	}
	rate := float64(res.ProbesSent) / res.ScanTime.Seconds()
	scale := float64(PaperBlocks) / float64(cfg.Blocks)
	return RateRow{
		Name:              "FlashRoute6-16",
		MeasuredKpps:      rate / 1000,
		EstimatedFullScan: time.Duration(float64(res.ProbesSent) * scale / rate * float64(time.Second)),
	}, nil
}

// SenderScaling6 is SenderScaling run through the IPv6 instantiation of
// the engine: unthrottled real-clock rate at each sender count over the
// same fast network, with the interface count as the invariance sanity
// check.
func SenderScaling6(prefixes, perPrefix int, seed int64, senders []int) ([]SenderRateRow, error) {
	var out []SenderRateRow
	for _, k := range senders {
		clock := simclock.NewReal()
		topo := fastTopo6(prefixes, perPrefix, seed)
		n := netsim6.New(topo, clock)
		cfg := core6.DefaultConfig(topo.Targets())
		cfg.Source = topo.Vantage()
		cfg.Seed = seed
		cfg.PPS = 0 // unthrottled
		cfg.Senders = k
		cfg.MinRoundTime = time.Millisecond
		cfg.DrainWait = 100 * time.Millisecond
		sc, err := core.NewScannerOf(core6.Family(), cfg, n.NewConn(), clock)
		if err != nil {
			return nil, err
		}
		res, err := sc.Run()
		if err != nil {
			return nil, err
		}
		rate := float64(res.ProbesSent) / res.ScanTime.Seconds()
		out = append(out, SenderRateRow{
			Senders:      k,
			MeasuredKpps: rate / 1000,
			Interfaces:   res.Store.Interfaces().Len(),
		})
	}
	return out, nil
}
