// Package yarrp reimplements the Yarrp scanner (Beverly, IMC 2016) and its
// IPv6 successor Yarrp6 (Beverly et al., IMC 2018 — the paper's reference
// [5]) as the paper's baselines: fully stateless, randomized (destination,
// TTL) probing at high rate. One ScannerOf runs both families; a Wire
// supplies the per-family probe encoding, reply decoding and bounds.
//
// Reproduced behaviours, faithful to the baseline rather than charitable:
//
//   - a keyed random permutation over the (block, TTL) space issues every
//     probe exactly once with O(1) state (the ZMap-derived design);
//   - Paris-TCP-ACK probes by default over IPv4; the UDP mode reproduces
//     the probe encoding whose packet-length field outgrows the MTU on
//     long scans ("Message too long", paper §4.2.1 footnote 2);
//   - fill mode (Yarrp-16, Yarrp6's default): TTLs 1..MaxTTL are probed
//     exhaustively and hops beyond MaxTTL are probed one at a time, each
//     triggered by the response from the previous one — which implies an
//     inherent gap limit of one silent hop (paper §4.2.1);
//   - neighborhood protection: probes within k hops of the vantage point
//     are suppressed once no new interface has been seen at that distance
//     for a timeout (paper §4.2.1).
//
// # Determinism
//
// On the virtual clock a scan without fill mode, or with fill mode over an
// unimpaired network, repeats bit for bit at any GOMAXPROCS. Fill probes
// leave from the receiving goroutine, so over an impaired network their
// loss/duplication draws interleave with the sender's by scheduling: such
// runs agree structurally (loss only shrinks discovery) but their counts
// vary run to run.
package yarrp

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/flashroute/flashroute/internal/core"
	"github.com/flashroute/flashroute/internal/permute"
	"github.com/flashroute/flashroute/internal/probe"
	"github.com/flashroute/flashroute/internal/probe6"
	"github.com/flashroute/flashroute/internal/simclock"
	"github.com/flashroute/flashroute/internal/trace"
)

// ConfigOf parameterizes a Yarrp scan over the address type A.
type ConfigOf[A comparable] struct {
	// Blocks, Targets and Source define the scanned universe, as in the
	// FlashRoute engine.
	Blocks  int
	Targets func(block int) A
	Source  A

	// MinTTL..MaxTTL is the exhaustively probed range (Yarrp-32: 1..32;
	// Yarrp-16: 1..16 with FillMode).
	MinTTL uint8
	MaxTTL uint8

	// FillMode sequentially extends probing beyond MaxTTL up to FillMax,
	// one hop per received farthest-hop response (Yarrp6's fill mode).
	FillMode bool
	FillMax  uint8

	// PPS is the probing rate; <= 0 disables throttling.
	PPS int

	// NeighborhoodLimit enables k-hop neighborhood protection when > 0:
	// probes at TTL <= k are skipped once no new interface has appeared
	// at that TTL for NeighborhoodTimeout (default 30 s).
	NeighborhoodLimit   uint8
	NeighborhoodTimeout time.Duration

	// CollectRoutes keeps per-destination hop lists.
	CollectRoutes bool
	// Observer sees every probe issued. In FillMode it is invoked from
	// both the sending and the receiving goroutine and must be safe for
	// concurrent use.
	Observer func(dst A, ttl uint8, at time.Duration)
	// Seed keys the probing permutation.
	Seed int64
	// DrainWait is the post-send receive window (default 2 s).
	DrainWait time.Duration
}

// ResultOf is what a Yarrp scan produced.
type ResultOf[A comparable] struct {
	Store      *trace.StoreOf[A]
	ProbesSent uint64
	// FillProbes is the subset issued by fill mode (also in ProbesSent).
	FillProbes uint64
	// SkippedByProtection counts probes suppressed by neighborhood
	// protection.
	SkippedByProtection uint64
	ScanTime            time.Duration
}

// The IPv4 (Yarrp) and IPv6 (Yarrp6) instantiations.
type (
	Config  = ConfigOf[uint32]
	Result  = ResultOf[uint32]
	Config6 = ConfigOf[probe6.Addr]
	Result6 = ResultOf[probe6.Addr]
)

func defaultConfig[A comparable]() ConfigOf[A] {
	return ConfigOf[A]{
		MinTTL:              1,
		MaxTTL:              32,
		FillMax:             32,
		PPS:                 100_000,
		NeighborhoodTimeout: 30 * time.Second,
		DrainWait:           2 * time.Second,
	}
}

// DefaultConfig returns the Yarrp-32 configuration of the paper's
// comparison (TTLs 1..32, 100 Kpps; run it over IPv4(TCPAck)).
func DefaultConfig() Config { return defaultConfig[uint32]() }

// DefaultConfig6 returns the Yarrp6 configuration used for comparisons:
// exhaustive hop limits 1..16 with fill to 32 (the IMC 2018 paper's
// recommended IPv6 regime).
func DefaultConfig6() Config6 {
	cfg := defaultConfig[probe6.Addr]()
	cfg.MaxTTL = 16
	cfg.FillMode = true
	return cfg
}

// ScannerOf runs Yarrp scans over one address family.
type ScannerOf[A comparable] struct {
	wire  Wire[A]
	cfg   ConfigOf[A]
	conn  core.PacketConn
	clock simclock.Waiter
	start time.Time
	pacer simclock.Pacer

	store *trace.StoreOf[A]

	probesSent   uint64 // sender-goroutine counter
	fillProbes   atomic.Uint64
	skipped      uint64
	lastNewIface [probe.MaxTTL + 1]atomic.Int64 // ns since start of last new interface per TTL

	pktBuf [probe.MTU]byte
}

// NewScannerOf validates the configuration against the wire's bounds.
func NewScannerOf[A comparable](wire Wire[A], cfg ConfigOf[A], conn core.PacketConn, clock simclock.Waiter) (*ScannerOf[A], error) {
	if cfg.Blocks <= 0 || cfg.Targets == nil {
		return nil, errors.New("yarrp: Blocks and Targets are required")
	}
	maxTTL := wire.MaxTTL()
	if cfg.MinTTL < 1 || cfg.MaxTTL > maxTTL || cfg.MinTTL > cfg.MaxTTL {
		return nil, fmt.Errorf("yarrp: bad TTL range %d..%d", cfg.MinTTL, cfg.MaxTTL)
	}
	if cfg.FillMode && (cfg.FillMax < cfg.MaxTTL || cfg.FillMax > maxTTL) {
		return nil, fmt.Errorf("yarrp: FillMax must be in MaxTTL..%d", maxTTL)
	}
	if cfg.DrainWait <= 0 {
		cfg.DrainWait = 2 * time.Second
	}
	if cfg.NeighborhoodTimeout <= 0 {
		cfg.NeighborhoodTimeout = 30 * time.Second
	}
	return &ScannerOf[A]{
		wire:  wire,
		cfg:   cfg,
		conn:  conn,
		clock: clock,
		pacer: simclock.NewPacer(clock, cfg.PPS),
		store: wire.NewStore(cfg.CollectRoutes),
	}, nil
}

// Run executes the scan. Like the FlashRoute engine, it registers the
// sender (the calling goroutine) and a receiver goroutine with the clock.
func (s *ScannerOf[A]) Run() (*ResultOf[A], error) {
	s.start = s.clock.Now()

	// Sender registers first; a receiver parking as the sole registered
	// actor would trip the virtual clock's deadlock detector.
	s.clock.AddActor()
	s.clock.AddActor()
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		defer s.clock.DoneActor()
		s.receiveLoop()
	}()

	ttlRange := uint64(s.cfg.MaxTTL-s.cfg.MinTTL) + 1
	perm := permute.NewFeistel(uint64(s.cfg.Blocks)*ttlRange, uint64(s.cfg.Seed)^s.wire.PermSalt())
	it := permute.NewIterator(perm)
	var abort error
	for v, ok := it.Next(); ok; v, ok = it.Next() {
		ttl := s.cfg.MinTTL + uint8(v%ttlRange)
		if s.protected(ttl) {
			s.skipped++
			continue
		}
		// Yarrp's UDP encoding failure kills the scan (§4.2.1 fn 2).
		if abort = s.send(s.pktBuf[:], s.cfg.Targets(int(v/ttlRange)), ttl, false); abort != nil {
			break
		}
	}
	s.clock.Sleep(s.cfg.DrainWait)

	res := &ResultOf[A]{
		Store:               s.store,
		ProbesSent:          s.probesSent + s.fillProbes.Load(),
		FillProbes:          s.fillProbes.Load(),
		SkippedByProtection: s.skipped,
		ScanTime:            s.clock.Now().Sub(s.start),
	}
	s.conn.Close()
	s.clock.DoneActor()
	<-recvDone
	return res, abort
}

// protected reports whether neighborhood protection suppresses a probe at
// this TTL right now.
func (s *ScannerOf[A]) protected(ttl uint8) bool {
	if s.cfg.NeighborhoodLimit == 0 || ttl > s.cfg.NeighborhoodLimit {
		return false
	}
	last := s.lastNewIface[ttl].Load()
	now := int64(s.clock.Now().Sub(s.start))
	return now-last > int64(s.cfg.NeighborhoodTimeout)
}

// send builds one probe into buf (the calling goroutine's) and writes it.
// Main-loop probes are paced; fill probes leave from the receiving
// goroutine as their triggering replies arrive.
func (s *ScannerOf[A]) send(buf []byte, dst A, ttl uint8, fill bool) error {
	elapsed := s.clock.Now().Sub(s.start)
	n, err := s.wire.Build(buf, s.cfg.Source, dst, ttl, elapsed)
	if err != nil {
		return err
	}
	_ = s.conn.WritePacket(buf[:n])
	if fill {
		s.fillProbes.Add(1)
	} else {
		s.probesSent++
	}
	if s.cfg.Observer != nil {
		s.cfg.Observer(dst, ttl, elapsed)
	}
	if !fill {
		s.pacer.Pace()
	}
	return nil
}

// receiveLoop decodes responses statelessly from the quoted headers. In
// fill mode, a TTL-exceeded response from the farthest probed hop triggers
// the probe for the next hop — this receive-driven chaining is exactly
// what gives Yarrp its inherent gap limit of one (§4.2.1).
func (s *ScannerOf[A]) receiveLoop() {
	var buf [4096]byte
	var fillBuf [probe.MTU]byte
	for {
		n, err := s.conn.ReadPacket(buf[:])
		if err != nil {
			return
		}
		now := s.clock.Now().Sub(s.start)
		r := s.wire.Parse(buf[:n], now)
		switch r.Kind {
		case core.ReplyTTLExceeded:
			if s.store.AddHopReportNew(r.Dst, r.InitTTL, r.Hop, r.RTT) {
				s.lastNewIface[r.InitTTL].Store(int64(now))
			}
			// Fill mode: extend one hop past the farthest response, if it
			// was not already the destination.
			if s.cfg.FillMode && r.InitTTL >= s.cfg.MaxTTL && r.InitTTL < s.cfg.FillMax {
				_ = s.send(fillBuf[:], r.Dst, r.InitTTL+1, true)
			}
		case core.ReplyUnreachable:
			s.store.SetReached(r.Dst, r.Dist, r.Hop, r.RTT)
		}
	}
}
