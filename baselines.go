package flashroute

import (
	"time"

	"github.com/flashroute/flashroute/internal/scamper"
	"github.com/flashroute/flashroute/internal/yarrp"
)

// YarrpProbeType selects Yarrp's probe flavor.
type YarrpProbeType int

const (
	// YarrpTCPAck is Yarrp's default Paris-TCP-ACK probe.
	YarrpTCPAck YarrpProbeType = iota
	// YarrpUDP reproduces Yarrp's UDP mode including its elapsed-time
	// encoding flaw: long scans fail with "message too long" (paper
	// §4.2.1 footnote 2).
	YarrpUDP
)

// YarrpConfig parameterizes a Yarrp baseline scan (Beverly, IMC 2016).
// Zero TTL/PPS fields mean the paper defaults (1..32 at 100 Kpps).
type YarrpConfig struct {
	Blocks  int
	Targets func(block int) uint32
	Source  uint32

	ProbeType YarrpProbeType
	MinTTL    uint8
	MaxTTL    uint8
	// FillMode enables Yarrp6's sequential fill beyond MaxTTL up to
	// FillMax (with its inherent gap limit of one).
	FillMode bool
	FillMax  uint8
	PPS      int
	// NeighborhoodLimit enables k-hop neighborhood protection.
	NeighborhoodLimit   uint8
	NeighborhoodTimeout time.Duration

	CollectRoutes bool
	Observer      func(dst uint32, ttl uint8, at time.Duration)
	Seed          int64
}

// YarrpResult is what a Yarrp scan produced.
type YarrpResult struct {
	inner *yarrp.Result
}

// Probes returns the total probes (fill probes included).
func (r *YarrpResult) Probes() uint64 { return r.inner.ProbesSent }

// FillProbes returns the probes issued by fill mode.
func (r *YarrpResult) FillProbes() uint64 { return r.inner.FillProbes }

// SkippedByProtection counts probes suppressed by neighborhood
// protection.
func (r *YarrpResult) SkippedByProtection() uint64 { return r.inner.SkippedByProtection }

// ScanTime returns the scan's duration.
func (r *YarrpResult) ScanTime() time.Duration { return r.inner.ScanTime }

// InterfaceCount returns the number of unique router interfaces found.
func (r *YarrpResult) InterfaceCount() int { return r.inner.Store.Interfaces().Len() }

// HasInterface reports whether addr was discovered.
func (r *YarrpResult) HasInterface(addr uint32) bool { return r.inner.Store.Interfaces().Has(addr) }

// RunYarrp runs a Yarrp scan against the simulation.
func (s *Simulation) RunYarrp(cfg YarrpConfig) (*YarrpResult, error) {
	ic := yarrp.DefaultConfig()
	ic.Blocks = cfg.Blocks
	if ic.Blocks == 0 {
		ic.Blocks = s.Blocks()
	}
	ic.Targets = cfg.Targets
	if ic.Targets == nil {
		ic.Targets = s.RandomTargets()
	}
	ic.Source = cfg.Source
	if ic.Source == 0 {
		ic.Source = s.Vantage()
	}
	if cfg.MinTTL != 0 {
		ic.MinTTL = cfg.MinTTL
	}
	if cfg.MaxTTL != 0 {
		ic.MaxTTL = cfg.MaxTTL
	}
	ic.FillMode = cfg.FillMode
	if cfg.FillMax != 0 {
		ic.FillMax = cfg.FillMax
	}
	if cfg.PPS != 0 {
		ic.PPS = cfg.PPS
	}
	ic.NeighborhoodLimit = cfg.NeighborhoodLimit
	if cfg.NeighborhoodTimeout != 0 {
		ic.NeighborhoodTimeout = cfg.NeighborhoodTimeout
	}
	ic.CollectRoutes = cfg.CollectRoutes
	ic.Observer = cfg.Observer
	ic.Seed = cfg.Seed
	if ic.Seed == 0 {
		ic.Seed = s.seed
	}
	sc, err := yarrp.NewScannerOf(yarrp.IPv4(yarrp.ProbeType(cfg.ProbeType)), ic, s.Conn(), s.clock)
	if err != nil {
		return nil, err
	}
	res, err := sc.Run()
	if err != nil {
		return nil, err
	}
	return &YarrpResult{inner: res}, nil
}

// ScamperConfig parameterizes a Scamper baseline scan (Luckie, IMC 2010)
// as configured in the paper: first-TTL 16, max TTL 32, gap 5, one probe
// per hop, at most 10 Kpps.
type ScamperConfig struct {
	Blocks  int
	Targets func(block int) uint32
	BlockOf func(addr uint32) (int, bool)
	Source  uint32

	FirstTTL uint8
	MaxTTL   uint8
	GapLimit uint8
	PPS      int

	CollectRoutes bool
	Observer      func(dst uint32, ttl uint8, at time.Duration)
	Seed          int64
}

// ScamperResult is what a Scamper scan produced.
type ScamperResult struct {
	inner *scamper.Result
}

// Probes returns the probe count.
func (r *ScamperResult) Probes() uint64 { return r.inner.ProbesSent }

// ScanTime returns the scan duration.
func (r *ScamperResult) ScanTime() time.Duration { return r.inner.ScanTime }

// InterfaceCount returns the unique router interfaces found.
func (r *ScamperResult) InterfaceCount() int { return r.inner.Store.Interfaces().Len() }

// RunScamper runs a Scamper scan against the simulation.
func (s *Simulation) RunScamper(cfg ScamperConfig) (*ScamperResult, error) {
	ic := scamper.DefaultConfig()
	ic.Blocks = cfg.Blocks
	if ic.Blocks == 0 {
		ic.Blocks = s.Blocks()
	}
	ic.Targets = cfg.Targets
	if ic.Targets == nil {
		ic.Targets = s.RandomTargets()
	}
	ic.BlockOf = cfg.BlockOf
	if ic.BlockOf == nil {
		ic.BlockOf = s.BlockOf
	}
	ic.Source = cfg.Source
	if ic.Source == 0 {
		ic.Source = s.Vantage()
	}
	if cfg.FirstTTL != 0 {
		ic.FirstTTL = cfg.FirstTTL
	}
	if cfg.MaxTTL != 0 {
		ic.MaxTTL = cfg.MaxTTL
	}
	if cfg.GapLimit != 0 {
		ic.GapLimit = cfg.GapLimit
	}
	if cfg.PPS != 0 {
		ic.PPS = cfg.PPS
	}
	ic.CollectRoutes = cfg.CollectRoutes
	ic.Observer = cfg.Observer
	ic.Seed = cfg.Seed
	if ic.Seed == 0 {
		ic.Seed = s.seed
	}
	sc, err := scamper.NewScanner(ic, s.Conn(), s.clock)
	if err != nil {
		return nil, err
	}
	res, err := sc.Run()
	if err != nil {
		return nil, err
	}
	return &ScamperResult{inner: res}, nil
}
