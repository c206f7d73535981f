// Package yarrp6 reimplements Yarrp6 (Beverly et al., IMC 2018 — the
// paper's reference [5]) as the IPv6 baseline for FlashRoute6: fully
// stateless randomized (target, hop-limit) probing over a candidate list,
// with the fill mode that paper introduced.
//
// Yarrp6 encodes its probing context the same way FlashRoute6 does —
// there is no IPv6 IPID, so the initial hop limit rides in the flow label
// and the send time in the flow label + payload length (this repository's
// probe6 encoding is shared; Yarrp6's actual format differs in detail but
// carries the same information).
package yarrp6

import (
	"bytes"
	"errors"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"github.com/flashroute/flashroute/internal/permute"
	"github.com/flashroute/flashroute/internal/probe6"
	"github.com/flashroute/flashroute/internal/simclock"
)

// PacketConn is the raw IPv6 network access.
type PacketConn interface {
	WritePacket(pkt []byte) error
	ReadPacket(buf []byte) (int, error)
	Close() error
}

// Config parameterizes a Yarrp6 scan.
type Config struct {
	Targets []probe6.Addr
	Source  probe6.Addr

	// MinTTL..MaxTTL is probed exhaustively for every target; FillMode
	// extends sequentially beyond MaxTTL up to FillMax with Yarrp's
	// inherent gap limit of one.
	MinTTL   uint8
	MaxTTL   uint8
	FillMode bool
	FillMax  uint8

	PPS int

	Seed      int64
	DrainWait time.Duration
}

// DefaultConfig returns the Yarrp6 configuration used for comparisons:
// exhaustive hop limits 1..16 with fill to 32 (the IMC 2018 paper's
// recommended IPv6 regime).
func DefaultConfig() Config {
	return Config{
		MinTTL:    1,
		MaxTTL:    16,
		FillMode:  true,
		FillMax:   32,
		PPS:       100_000,
		DrainWait: 2 * time.Second,
	}
}

// Result is what a scan produced.
type Result struct {
	ProbesSent uint64
	FillProbes uint64
	ScanTime   time.Duration

	interfaces map[probe6.Addr]struct{}
	reached    map[probe6.Addr]struct{}
}

// InterfaceCount returns the unique router interfaces discovered.
func (r *Result) InterfaceCount() int { return len(r.interfaces) }

// HasInterface reports whether addr was discovered.
func (r *Result) HasInterface(a probe6.Addr) bool {
	_, ok := r.interfaces[a]
	return ok
}

// Interfaces returns the discovered router interfaces in ascending
// address order.
func (r *Result) Interfaces() []probe6.Addr {
	out := make([]probe6.Addr, 0, len(r.interfaces))
	for a := range r.interfaces {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i][:], out[j][:]) < 0
	})
	return out
}

// ReachedCount returns how many targets answered.
func (r *Result) ReachedCount() int { return len(r.reached) }

// HasReached reports whether the target answered.
func (r *Result) HasReached(a probe6.Addr) bool {
	_, ok := r.reached[a]
	return ok
}

// Scanner runs Yarrp6 scans.
type Scanner struct {
	cfg   Config
	conn  PacketConn
	clock simclock.Waiter
	start time.Time

	res *Result

	probesSent   uint64
	fillProbes   atomic.Uint64
	unparsed     atomic.Uint64
	paceCount    int
	paceBatch    int
	paceInterval time.Duration
	pktBuf       [probe6.HeaderLen + probe6.UDPHeaderLen + 64]byte
}

// NewScanner validates the configuration.
func NewScanner(cfg Config, conn PacketConn, clock simclock.Waiter) (*Scanner, error) {
	if len(cfg.Targets) == 0 {
		return nil, errors.New("yarrp6: Config.Targets must be non-empty")
	}
	if cfg.MinTTL < 1 || cfg.MaxTTL > probe6.MaxHopLimit || cfg.MinTTL > cfg.MaxTTL {
		return nil, errors.New("yarrp6: bad hop-limit range")
	}
	if cfg.FillMode && (cfg.FillMax < cfg.MaxTTL || cfg.FillMax > probe6.MaxHopLimit) {
		return nil, errors.New("yarrp6: FillMax must be in MaxTTL..32")
	}
	if cfg.DrainWait <= 0 {
		cfg.DrainWait = 2 * time.Second
	}
	s := &Scanner{
		cfg:   cfg,
		conn:  conn,
		clock: clock,
		res: &Result{
			interfaces: make(map[probe6.Addr]struct{}),
			reached:    make(map[probe6.Addr]struct{}),
		},
	}
	if cfg.PPS > 0 {
		s.paceBatch = cfg.PPS / 200
		if s.paceBatch < 1 {
			s.paceBatch = 1
		}
		s.paceInterval = time.Duration(int64(time.Second) * int64(s.paceBatch) / int64(cfg.PPS))
	}
	return s, nil
}

// Run executes the scan (same actor contract as the other engines).
func (s *Scanner) Run() (*Result, error) {
	s.start = s.clock.Now()

	s.clock.AddActor()
	s.clock.AddActor()
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		defer s.clock.DoneActor()
		s.receiveLoop()
	}()

	ttlRange := uint64(s.cfg.MaxTTL-s.cfg.MinTTL) + 1
	perm := permute.NewFeistel(uint64(len(s.cfg.Targets))*ttlRange, uint64(s.cfg.Seed)^0x66aa2b4c)
	it := permute.NewIterator(perm)
	for {
		v, ok := it.Next()
		if !ok {
			break
		}
		target := s.cfg.Targets[v/ttlRange]
		ttl := s.cfg.MinTTL + uint8(v%ttlRange)
		s.sendProbe(target, ttl, false)
	}
	s.clock.Sleep(s.cfg.DrainWait)

	s.res.ProbesSent = s.probesSent + s.fillProbes.Load()
	s.res.FillProbes = s.fillProbes.Load()
	s.res.ScanTime = s.clock.Now().Sub(s.start)
	s.conn.Close()
	s.clock.DoneActor()
	<-recvDone
	return s.res, nil
}

func (s *Scanner) sendProbe(dst probe6.Addr, ttl uint8, fill bool) {
	elapsed := s.clock.Now().Sub(s.start)
	n := probe6.BuildProbe(s.pktBuf[:], s.cfg.Source, dst, ttl, false,
		elapsed, 0, probe6.TracerouteDstPort)
	_ = s.conn.WritePacket(s.pktBuf[:n])
	if fill {
		s.fillProbes.Add(1)
		return
	}
	s.probesSent++
	if s.paceBatch > 0 {
		s.paceCount++
		if s.paceCount >= s.paceBatch {
			s.paceCount = 0
			s.clock.Sleep(s.paceInterval)
		}
	}
}

func (s *Scanner) receiveLoop() {
	var buf [4096]byte
	var fillBuf [probe6.HeaderLen + probe6.UDPHeaderLen + 64]byte
	for {
		n, err := s.conn.ReadPacket(buf[:])
		if err != nil {
			if err != io.EOF {
				s.unparsed.Add(1)
			}
			return
		}
		s.handle(buf[:n], fillBuf[:])
	}
}

func (s *Scanner) handle(pkt, fillBuf []byte) {
	resp, err := probe6.ParseResponse(pkt)
	if err != nil {
		s.unparsed.Add(1)
		return
	}
	fi, err := probe6.ParseQuote(&resp.ICMP)
	if err != nil {
		s.unparsed.Add(1)
		return
	}
	switch {
	case resp.ICMP.IsHopLimitExceeded():
		s.res.interfaces[resp.Hop] = struct{}{}
		// Fill mode: extend one hop past the farthest response.
		if s.cfg.FillMode && fi.InitHopLimit >= s.cfg.MaxTTL && fi.InitHopLimit < s.cfg.FillMax {
			elapsed := s.clock.Now().Sub(s.start)
			n := probe6.BuildProbe(fillBuf, s.cfg.Source, fi.Dst, fi.InitHopLimit+1,
				false, elapsed, 0, probe6.TracerouteDstPort)
			_ = s.conn.WritePacket(fillBuf[:n])
			s.fillProbes.Add(1)
		}
	case resp.ICMP.IsUnreachable():
		s.res.reached[fi.Dst] = struct{}{}
	default:
		s.unparsed.Add(1)
	}
}
