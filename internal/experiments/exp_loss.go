package experiments

import (
	"fmt"
	"io"

	"github.com/flashroute/flashroute/internal/core"
	"github.com/flashroute/flashroute/internal/netsim"
	"github.com/flashroute/flashroute/internal/trace"
	"github.com/flashroute/flashroute/internal/yarrp"
)

// LossRow is one (loss rate, tool) measurement of the loss sweep.
type LossRow struct {
	LossPct     float64
	Tool        string
	Interfaces  int
	Reached     int
	Probes      uint64
	Retransmits uint64
}

// LossSweepTable reports topology discovery under packet loss: discovered
// interfaces and reached destinations as a function of the loss rate, for
// FlashRoute as-is, FlashRoute with its loss-tolerance knobs on, and the
// Yarrp-32 baseline (whose stateless design tolerates loss by simply
// missing hops — there is nothing to retransmit).
type LossSweepTable struct {
	Rows []LossRow
}

// WriteText renders the table for EXPERIMENTS.md.
func (t *LossSweepTable) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "Loss sweep: discovery vs packet loss rate"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%6s %-24s %12s %10s %12s %12s\n",
		"loss", "tool", "interfaces", "reached", "probes", "retransmits"); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if _, err := fmt.Fprintf(w, "%5.1f%% %-24s %12d %10d %12d %12d\n",
			r.LossPct, r.Tool, r.Interfaces, r.Reached, r.Probes, r.Retransmits); err != nil {
			return err
		}
	}
	return nil
}

// Find returns the row for the given loss percentage and tool, or nil.
func (t *LossSweepTable) Find(lossPct float64, tool string) *LossRow {
	for i := range t.Rows {
		if t.Rows[i].LossPct == lossPct && t.Rows[i].Tool == tool {
			return &t.Rows[i]
		}
	}
	return nil
}

// Tool labels used in the loss sweep rows.
const (
	LossToolFlash        = "FlashRoute-16"
	LossToolFlashRetries = "FlashRoute-16+retries"
	LossToolYarrp        = "Yarrp-32"
)

// LossSweep measures discovered interfaces and reached destinations vs
// independent packet loss for FlashRoute (with and without preprobe/
// forward retries) and the Yarrp-32 baseline, all over the same topology.
// rates are loss probabilities; nil uses 0/2/5/10/20%.
func LossSweep(s *Scenario, rates []float64) (*LossSweepTable, error) {
	if len(rates) == 0 {
		rates = []float64{0, 0.02, 0.05, 0.10, 0.20}
	}
	t := &LossSweepTable{}
	for _, rate := range rates {
		im := netsim.Impairments{LossProb: rate}
		pct := rate * 100

		res, err := s.runFlashImpaired(s.FlashConfig(), im)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, lossRowFromFlash(pct, LossToolFlash, res))

		rcfg := s.FlashConfig()
		rcfg.PreprobeRetries = 1
		rcfg.ForwardRetries = 1
		res, err = s.runFlashImpaired(rcfg, im)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, lossRowFromFlash(pct, LossToolFlashRetries, res))

		yres, err := s.runYarrpImpaired(s.yarrpConfig(), im)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, LossRow{
			LossPct:    pct,
			Tool:       LossToolYarrp,
			Interfaces: yres.Store.Interfaces().Len(),
			Reached:    reachedCount(yres.Store),
			Probes:     yres.ProbesSent,
		})
	}
	return t, nil
}

func lossRowFromFlash(pct float64, tool string, res *core.Result) LossRow {
	return LossRow{
		LossPct:     pct,
		Tool:        tool,
		Interfaces:  res.Store.Interfaces().Len(),
		Reached:     reachedCount(res.Store),
		Probes:      res.ProbesSent,
		Retransmits: res.RetransmittedProbes,
	}
}

func reachedCount(st *trace.Store) int {
	n := 0
	st.ForEachRoute(func(rt *trace.Route) {
		if rt.Reached {
			n++
		}
	})
	return n
}

func (s *Scenario) runFlashImpaired(cfg core.Config, im netsim.Impairments) (*core.Result, error) {
	n, clock := s.NewImpairedNet(im)
	sc, err := core.NewScanner(cfg, n.NewConn(), clock)
	if err != nil {
		return nil, err
	}
	return sc.Run()
}

func (s *Scenario) runYarrpImpaired(cfg yarrp.Config, im netsim.Impairments) (*yarrp.Result, error) {
	n, clock := s.NewImpairedNet(im)
	sc, err := yarrp.NewScannerOf(yarrp.IPv4(yarrp.TCPAck), cfg, n.NewConn(), clock)
	if err != nil {
		return nil, err
	}
	return sc.Run()
}
