package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/flashroute/flashroute/internal/core"
	"github.com/flashroute/flashroute/internal/metrics"
	"github.com/flashroute/flashroute/internal/scamper"
	"github.com/flashroute/flashroute/internal/yarrp"
)

// Row is one line of a paper-style results table.
type Row struct {
	Name       string
	Interfaces int
	Probes     uint64
	ScanTime   time.Duration
}

// Table is a named collection of rows.
type Table struct {
	Name string
	Rows []Row
}

// WriteText renders the table for EXPERIMENTS.md.
func (t *Table) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s\n", t.Name); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-28s %12s %14s %12s\n", "configuration", "interfaces", "probes", "scan time"); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if _, err := fmt.Fprintf(w, "%-28s %12d %14d %12s\n",
			r.Name, r.Interfaces, r.Probes, metrics.FormatDuration(r.ScanTime)); err != nil {
			return err
		}
	}
	return nil
}

func rowFromFlash(name string, res *core.Result) Row {
	return Row{Name: name, Interfaces: res.Store.Interfaces().Len(),
		Probes: res.ProbesSent, ScanTime: res.ScanTime}
}

// Table1RedundancyElimination reproduces Table 1: full scans with and
// without termination of backward probing at convergence points, for
// split TTLs 32 and 16 (preprobing with span-5 prediction, gap limit 5).
func Table1RedundancyElimination(s *Scenario) (*Table, error) {
	t := &Table{Name: "Table 1: impact of redundancy elimination during backward probing"}
	for _, split := range []uint8{32, 16} {
		for _, off := range []bool{false, true} {
			cfg := s.FlashConfig()
			cfg.SplitTTL = split
			cfg.NoRedundancyElimination = off
			res, err := s.RunFlash(cfg)
			if err != nil {
				return nil, err
			}
			label := fmt.Sprintf("split-%d/redundancy-removal-%s", split, onOff(!off))
			t.Rows = append(t.Rows, rowFromFlash(label, res))
		}
	}
	return t, nil
}

func onOff(on bool) string {
	if on {
		return "on"
	}
	return "off"
}

// Figure6GapLimit reproduces Figure 6: discovered interfaces and scan
// time as a function of the gap limit (split 16, redundancy removal on,
// preprobing with span 5).
func Figure6GapLimit(s *Scenario, gaps []uint8) (*Table, error) {
	if len(gaps) == 0 {
		gaps = []uint8{0, 1, 2, 3, 4, 5, 6, 7, 8}
	}
	t := &Table{Name: "Figure 6: discovered interfaces and scan time vs gap limit"}
	for _, gap := range gaps {
		cfg := s.FlashConfig()
		cfg.GapLimit = gap
		res, err := s.RunFlash(cfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, rowFromFlash(fmt.Sprintf("gap-limit-%d", gap), res))
	}
	return t, nil
}

// Table2Preprobing reproduces Table 2: the effect of hitlist, random and
// no preprobing for default split TTLs 32 and 16.
func Table2Preprobing(s *Scenario) (*Table, error) {
	t := &Table{Name: "Table 2: effect of preprobing on FlashRoute performance"}
	hl := s.Hitlist()
	for _, split := range []uint8{32, 16} {
		for _, mode := range []core.PreprobeMode{core.PreprobeHitlist, core.PreprobeRandom, core.PreprobeOff} {
			cfg := s.FlashConfig()
			cfg.SplitTTL = split
			cfg.Preprobe = mode
			label := fmt.Sprintf("%d/", split)
			switch mode {
			case core.PreprobeHitlist:
				cfg.PreprobeTargets = hl.TargetFunc()
				label += "hitlist preprobing"
			case core.PreprobeRandom:
				label += "random preprobing"
			case core.PreprobeOff:
				label += "no preprobing"
			}
			res, err := s.RunFlash(cfg)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, rowFromFlash(label, res))
		}
	}
	return t, nil
}

// Table3ToolComparison reproduces Table 3: FlashRoute-16, FlashRoute-32,
// Yarrp-16 (fill mode), Yarrp-32, Scamper-16 and the Yarrp-32-UDP
// simulation, each on a fresh instance of the same Internet.
func Table3ToolComparison(s *Scenario) (*Table, error) {
	t := &Table{Name: "Table 3: performance of FlashRoute, Yarrp, and Scamper on a full scan"}
	hl := s.Hitlist()

	// FlashRoute-16 and FlashRoute-32: hitlist preprobing (§4.2.1).
	for _, split := range []uint8{16, 32} {
		cfg := s.FlashConfig()
		cfg.SplitTTL = split
		cfg.Preprobe = core.PreprobeHitlist
		cfg.PreprobeTargets = hl.TargetFunc()
		res, err := s.RunFlash(cfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, rowFromFlash(fmt.Sprintf("FlashRoute-%d", split), res))
	}

	// Yarrp-16 (fill mode to 32) and Yarrp-32, Paris-TCP-ACK.
	for _, maxTTL := range []uint8{16, 32} {
		ycfg := s.yarrpConfig()
		ycfg.MaxTTL = maxTTL
		if maxTTL == 16 {
			ycfg.FillMode = true
			ycfg.FillMax = 32
		}
		res, err := s.runYarrp(ycfg)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, Row{Name: fmt.Sprintf("Yarrp-%d", maxTTL),
			Interfaces: res.Store.Interfaces().Len(), Probes: res.ProbesSent, ScanTime: res.ScanTime})
	}

	// Scamper-16 at its 10 Kpps maximum.
	scRes, err := s.runScamper(nil)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, Row{Name: "Scamper-16",
		Interfaces: scRes.Store.Interfaces().Len(), Probes: scRes.ProbesSent, ScanTime: scRes.ScanTime})

	// Yarrp-32-UDP simulated with FlashRoute's exhaustive mode (§4.2.1).
	ecfg := s.FlashConfig()
	ecfg.Exhaustive = true
	eres, err := s.RunFlash(ecfg)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, rowFromFlash("Yarrp-32-UDP (simulation)", eres))

	return t, nil
}

// yarrpConfig assembles the scenario's Yarrp configuration.
func (s *Scenario) yarrpConfig() yarrp.Config {
	cfg := yarrp.DefaultConfig()
	cfg.Blocks = s.Blocks
	cfg.Seed = s.Seed
	cfg.Source = s.Topo.Vantage()
	cfg.Targets = s.RandomTargets()
	cfg.PPS = s.ScaledPPS(PaperPPS)
	return cfg
}

func (s *Scenario) runYarrp(cfg yarrp.Config) (*yarrp.Result, error) {
	n, clock := s.NewNet()
	sc, err := yarrp.NewScannerOf(yarrp.IPv4(yarrp.TCPAck), cfg, n.NewConn(), clock)
	if err != nil {
		return nil, err
	}
	return sc.Run()
}

// scamperConfig assembles the scenario's Scamper configuration; its rate
// scales from Scamper's 10 Kpps maximum.
func (s *Scenario) scamperConfig() scamper.Config {
	cfg := scamper.DefaultConfig()
	cfg.Blocks = s.Blocks
	cfg.Seed = s.Seed
	cfg.Source = s.Topo.Vantage()
	cfg.Targets = s.RandomTargets()
	cfg.BlockOf = s.BlockOf()
	cfg.PPS = s.ScaledPPS(10_000)
	return cfg
}

func (s *Scenario) runScamper(mutate func(*scamper.Config)) (*scamper.Result, error) {
	cfg := s.scamperConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	n, clock := s.NewNet()
	sc, err := scamper.NewScanner(cfg, n.NewConn(), clock)
	if err != nil {
		return nil, err
	}
	return sc.Run()
}
