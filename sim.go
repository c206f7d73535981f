package flashroute

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/flashroute/flashroute/internal/hitlist"
	"github.com/flashroute/flashroute/internal/netsim"
	"github.com/flashroute/flashroute/internal/simclock"
	"github.com/flashroute/flashroute/internal/simnet"
)

// SimConfig parameterizes a simulated Internet (see DESIGN.md for the
// model and its calibration against the paper's measurements).
type SimConfig struct {
	// Blocks is the number of /24 blocks in the universe (up to 2^22).
	Blocks int
	// CIDRs optionally defines the universe from address ranges instead
	// of a synthetic block count (prefix lengths up to /24).
	CIDRs []string
	// Seed makes the whole Internet reproducible.
	Seed int64
	// RealTime runs the simulation on the wall clock instead of virtual
	// time (virtual time is the default: scans complete in milliseconds
	// of real time while reporting faithful scan durations).
	RealTime bool
	// Lockstep removes every timing-dependent topology behavior — ICMP
	// rate limiting, dynamic route flaps, RTT jitter — so discovery
	// becomes a pure function of the probe set, independent of pacing,
	// interleaving and clock mode. Combined with
	// Config.NoRedundancyElimination this is the environment of the
	// engine's equivalence test suites: an interrupted-and-resumed (or
	// rate-retargeted) scan finds exactly what an uninterrupted one does.
	// Applied before Mutate, which may override it.
	Lockstep bool
	// Impair layers packet-level pathologies (loss, burst loss,
	// duplication, reordering, jitter) over the network. The zero value is
	// the perfect network; see Impairments.
	Impair Impairments
	// Mutate, if set, adjusts the topology parameters before generation
	// (silence rates, middlebox prevalence, rate limits, ...). It runs
	// after Impair is applied and may override it.
	Mutate func(*netsim.Params)
}

// Impairments models the packet-level pathologies of probing the live
// Internet: independent and bursty (Gilbert–Elliott) loss, duplication,
// bounded reordering and extra latency jitter, applied symmetrically to
// probes and responses. All decisions are drawn deterministically from
// the simulation seed, so impaired scans are as reproducible as perfect
// ones (exactly with one sender, statistically with several). The zero
// value disables everything.
type Impairments struct {
	// LossProb is the independent per-packet loss probability.
	LossProb float64
	// BurstToBad, BurstToGood and BurstLoss parameterize Gilbert–Elliott
	// burst loss: the per-packet good→bad and bad→good transition
	// probabilities and the extra loss probability while in the bad state
	// (combined with LossProb). Mean burst length is 1/BurstToGood
	// packets; the stationary bad fraction BurstToBad/(BurstToBad+BurstToGood).
	BurstToBad  float64
	BurstToGood float64
	BurstLoss   float64
	// DupProb is the probability a surviving packet is duplicated once.
	DupProb float64
	// ReorderProb delays a response by uniform [0, ReorderWindow) extra,
	// letting later traffic overtake it (bounded reordering). Both must be
	// set to have an effect.
	ReorderProb   float64
	ReorderWindow time.Duration
	// ExtraJitter adds uniform [0, ExtraJitter) latency to every response.
	ExtraJitter time.Duration
	// Faults are deterministic transport-fault windows: time intervals
	// (relative to the simulation epoch) during which writes fail with a
	// transient error, deliveries stall to the window's end, or the whole
	// connection flaps. Unlike the probabilistic impairments above they
	// draw no randomness, so a fault schedule is exactly reproducible —
	// and an empty schedule leaves scans bit-identical.
	Faults []FaultWindow
}

// FaultKind classifies a transport-fault window.
type FaultKind = netsim.FaultKind

// Fault kinds for FaultWindow.Kind.
const (
	// FaultWriteError makes every WritePacket during the window fail with
	// a transient (Temporary()) error — exercising the scanner's send
	// retries.
	FaultWriteError = netsim.FaultWriteError
	// FaultReadStall delays every delivery scheduled inside the window to
	// the window's end (a stalled reader draining in one burst).
	FaultReadStall = netsim.FaultReadStall
	// FaultFlap blackholes the connection: writes fail and in-window
	// deliveries are dropped.
	FaultFlap = netsim.FaultFlap
)

// FaultWindow is one transport-fault interval.
type FaultWindow struct {
	// Start is when the fault begins, relative to the simulation epoch.
	Start time.Duration
	// Duration is how long it lasts.
	Duration time.Duration
	// Kind selects the failure mode.
	Kind FaultKind
	// Scoped restricts the window to connections entering the topology at
	// exactly Vantage (cluster worker Vantage's private link). Unscoped
	// windows — the zero value — hit every connection; Scoped is a
	// separate flag because vantage 0 is itself a real vantage.
	Scoped  bool
	Vantage int
}

func (im Impairments) toNetsim() netsim.Impairments {
	out := netsim.Impairments{
		LossProb:      im.LossProb,
		GEGoodToBad:   im.BurstToBad,
		GEBadToGood:   im.BurstToGood,
		GEBadLoss:     im.BurstLoss,
		DupProb:       im.DupProb,
		ReorderProb:   im.ReorderProb,
		ReorderWindow: im.ReorderWindow,
		ExtraJitter:   im.ExtraJitter,
	}
	for _, f := range im.Faults {
		out.Faults = append(out.Faults, netsim.FaultWindow{
			Start: f.Start, Duration: f.Duration, Kind: f.Kind,
			Scoped: f.Scoped, Vantage: f.Vantage,
		})
	}
	return out
}

// Simulation is a synthetic Internet bound to a clock — the substrate all
// examples and experiments scan against.
type Simulation struct {
	topo  *netsim.Topology
	net   *netsim.Net
	clock simclock.Waiter
	seed  int64
	hl    *hitlist.Hitlist
}

// NewSimulation generates the Internet. It panics on invalid
// configuration (synthetic sizes out of range); use NewSimulationCIDRs
// for user-supplied ranges, which returns their parse errors instead.
func NewSimulation(cfg SimConfig) *Simulation {
	s, err := NewSimulationCIDRs(cfg)
	if err != nil {
		panic(fmt.Sprintf("flashroute: bad SimConfig.CIDRs: %v", err))
	}
	return s
}

// NewSimulationCIDRs generates the Internet like NewSimulation but
// returns an error for invalid SimConfig.CIDRs instead of panicking —
// the constructor for universes that arrive from user input (CLI flags,
// API requests). Synthetic sizing errors (Blocks out of range with no
// CIDRs given) still panic, as they are programmer mistakes.
func NewSimulationCIDRs(cfg SimConfig) (*Simulation, error) {
	var u *netsim.Universe
	if len(cfg.CIDRs) > 0 {
		var err error
		u, err = netsim.ParseUniverse(cfg.CIDRs)
		if err != nil {
			return nil, err
		}
	} else {
		u = netsim.NewSyntheticUniverse(cfg.Blocks)
	}
	params := netsim.DefaultParams(cfg.Seed)
	params.Impair = cfg.Impair.toNetsim()
	if cfg.Lockstep {
		params.ICMPRateLimitPPS = 0
		params.DynamicBlockProb = 0
		params.JitterRTT = 0
	}
	if cfg.Mutate != nil {
		cfg.Mutate(&params)
	}
	topo := netsim.NewTopology(u, params)
	clock := simClock(cfg.RealTime)
	return &Simulation{
		topo:  topo,
		net:   netsim.New(topo, clock),
		clock: clock,
		seed:  cfg.Seed,
	}, nil
}

// Blocks returns the number of /24 blocks in the simulated universe.
func (s *Simulation) Blocks() int { return s.topo.U.NumBlocks() }

// Vantage returns the scanning vantage point's source address.
func (s *Simulation) Vantage() uint32 { return s.topo.Vantage() }

// Clock returns the simulation's clock (pass it to NewScanner alongside
// Conn for custom setups).
func (s *Simulation) Clock() Clock { return s.clock }

// Conn opens a raw-socket-like connection into the simulated network.
func (s *Simulation) Conn() PacketConn { return s.net.NewConn() }

// BlockAddr returns the base address of the i-th /24 block.
func (s *Simulation) BlockAddr(i int) uint32 { return s.topo.U.BlockAddr(i) }

// BlockOf maps an address to its block index.
func (s *Simulation) BlockOf(addr uint32) (int, bool) { return s.topo.U.BlockIndex(addr) }

// RandomTargets returns the default per-block random representative
// function, seeded by the simulation seed.
func (s *Simulation) RandomTargets() func(block int) uint32 {
	u := s.topo.U
	seed := uint64(s.seed)
	return func(block int) uint32 {
		z := seed*0x9e3779b97f4a7c15 + uint64(block)*0xd6e8feb86659fd93 + 0x1234
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z ^= z >> 31
		return u.BlockAddr(block) | uint32(1+z%254)
	}
}

// HitlistTargets generates (once) and returns the simulated census
// hitlist's per-block targets (paper §4.1.3, §5.1).
func (s *Simulation) HitlistTargets() func(block int) uint32 {
	if s.hl == nil {
		s.hl = hitlist.Generate(s.topo)
	}
	return s.hl.TargetFunc()
}

// PingCensus rebuilds the hitlist the way the census actually works — by
// sending ICMP echo requests through this simulation's network — and
// makes it the hitlist subsequent HitlistTargets/WriteHitlist calls use.
// It returns the number of ping-responsive entries found.
func (s *Simulation) PingCensus() (responsive int, err error) {
	h, err := hitlist.GenerateViaPings(s.topo.U, s.net.NewConn(), s.clock, s.seed)
	if err != nil {
		return 0, err
	}
	s.hl = h
	return h.Responsive(), nil
}

// WriteHitlist stores the simulated hitlist in FlashRoute's
// one-address-per-line exterior-file format.
func (s *Simulation) WriteHitlist(w io.Writer) error {
	if s.hl == nil {
		s.hl = hitlist.Generate(s.topo)
	}
	_, err := s.hl.WriteTo(w)
	return err
}

// TrueDistance returns the simulator's ground-truth hop distance of an
// address (0 if unrouted) — for validating measurements in examples and
// tests.
func (s *Simulation) TrueDistance(addr uint32) uint8 {
	return s.topo.DistanceNow(addr, s.net.Elapsed())
}

// Stats reports the network-side counters accumulated so far.
func (s *Simulation) Stats() SimStats { return simStats(&s.net.Stats) }

// SimStats are network-side counters of a simulation. The impairment and
// fault-window counters stay zero on a perfect network.
type SimStats struct {
	ProbesSeen  uint64
	Responses   uint64
	RateLimited uint64 // replies suppressed by per-interface ICMP budgets
	SilentHops  uint64 // probes expiring at unanswering routers
	NoRoute     uint64
	ProbesLost  uint64
	RepliesLost uint64
	Duplicates  uint64
	Reordered   uint64
	// WriteFaults counts writes rejected by fault windows; FaultDropped
	// and FaultStalled count deliveries a flap window discarded and a
	// stall window delayed.
	WriteFaults  uint64
	FaultDropped uint64
	FaultStalled uint64
}

// simStats snapshots a simulated link's counters (both families).
func simStats(st *simnet.Stats) SimStats {
	return SimStats{
		ProbesSeen:   st.ProbesSent.Load(),
		Responses:    st.Responses.Load(),
		RateLimited:  st.RateLimited.Load(),
		SilentHops:   st.SilentHops.Load(),
		NoRoute:      st.NoRoute.Load(),
		ProbesLost:   st.ProbesLost.Load(),
		RepliesLost:  st.RepliesLost.Load(),
		Duplicates:   st.Duplicates.Load(),
		Reordered:    st.Reordered.Load(),
		WriteFaults:  st.WriteFaults.Load(),
		FaultDropped: st.FaultDropped.Load(),
		FaultStalled: st.FaultStalled.Load(),
	}
}

// simClock is a simulation's clock: the wall clock when realTime is set,
// otherwise virtual time starting at the Unix epoch.
func simClock(realTime bool) simclock.Waiter {
	if realTime {
		return simclock.NewReal()
	}
	return simclock.NewVirtual(time.Unix(0, 0))
}

// Scan runs a FlashRoute scan against this simulation, filling in the
// universe-dependent configuration fields (Blocks, Targets, BlockOf,
// Source) when unset. Multi-sender scans (Config.Senders > 1) work on
// the virtual clock but give up deterministic probe interleaving; pin
// Senders to 1 (the default) when reproducing paper tables.
func (s *Simulation) Scan(cfg Config) (*Result, error) {
	return s.ScanContext(context.Background(), cfg)
}

// ScanContext is Scan with graceful cancellation (see
// Scanner.RunContext).
func (s *Simulation) ScanContext(ctx context.Context, cfg Config) (*Result, error) {
	return waitScan(s.StartScan(ctx, cfg))
}

// ResumeScan continues a checkpointed scan against this simulation (see
// ResumeScanner for the configuration contract).
func (s *Simulation) ResumeScan(cfg Config, snapshot []byte) (*Result, error) {
	return s.ResumeScanContext(context.Background(), cfg, snapshot)
}

// ResumeScanContext is ResumeScan with graceful cancellation.
func (s *Simulation) ResumeScanContext(ctx context.Context, cfg Config, snapshot []byte) (*Result, error) {
	return waitScan(s.StartResumeScan(ctx, cfg, snapshot))
}

func (s *Simulation) fill(cfg *Config) {
	if cfg.Blocks == 0 {
		cfg.Blocks = s.Blocks()
	}
	if cfg.Targets == nil {
		cfg.Targets = s.RandomTargets()
	}
	if cfg.VaryExtraScanTargets && cfg.ExtraScanTargets == nil {
		u := s.topo.U
		seed := uint64(s.seed)
		cfg.ExtraScanTargets = func(block, scan int) uint32 {
			z := seed*0x9e3779b97f4a7c15 + uint64(block)*0xd6e8feb86659fd93 +
				uint64(scan)*0xa0761d6478bd642f + 0x9b
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z ^= z >> 31
			return u.BlockAddr(block) | uint32(1+z%254)
		}
	}
	if cfg.BlockOf == nil {
		cfg.BlockOf = s.BlockOf
	}
	if cfg.Source == 0 {
		cfg.Source = s.Vantage()
	}
	if cfg.Seed == 0 {
		cfg.Seed = s.seed
	}
}
