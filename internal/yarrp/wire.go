package yarrp

import (
	"time"

	"github.com/flashroute/flashroute/internal/core"
	"github.com/flashroute/flashroute/internal/core6"
	"github.com/flashroute/flashroute/internal/probe"
	"github.com/flashroute/flashroute/internal/probe6"
	"github.com/flashroute/flashroute/internal/trace"
)

// Wire supplies the per-family half of a Yarrp scanner: probe encoding,
// stateless reply decoding, the probing bounds and the result store.
// Everything else — the permutation, pacing, fill chaining, neighborhood
// protection — is family-independent and lives in ScannerOf.
type Wire[A comparable] interface {
	// MaxTTL bounds MaxTTL and FillMax.
	MaxTTL() uint8
	// PermSalt domain-separates this family's probe permutation from the
	// other consumers of the scan seed.
	PermSalt() uint64
	// Build serializes one probe into buf (at least probe.MTU bytes) and
	// returns its length; elapsed is the scan-relative send time the
	// probe encodes.
	Build(buf []byte, src, dst A, ttl uint8, elapsed time.Duration) (int, error)
	// Parse decodes one received packet at scan-relative time now into a
	// hop (ReplyTTLExceeded), a reached destination (ReplyUnreachable) or
	// ReplyUnparsed.
	Parse(pkt []byte, now time.Duration) core.Reply[A]
	// NewStore returns an empty result store for the family.
	NewStore(collectRoutes bool) *trace.StoreOf[A]
}

// ProbeType selects the IPv4 probe flavor.
type ProbeType int

const (
	// TCPAck is Yarrp's default Paris-TCP-ACK probe.
	TCPAck ProbeType = iota
	// UDP reproduces Yarrp's UDP mode including its elapsed-time encoding
	// flaw; long scans fail with probe.ErrMessageTooLong.
	UDP
)

// IPv4 returns Yarrp's IPv4 wire with the given probe flavor.
func IPv4(pt ProbeType) Wire[uint32] { return ipv4Wire{pt} }

// IPv6 returns Yarrp6's wire. Yarrp6 encodes its probing context the way
// FlashRoute6 does — there is no IPv6 IPID, so the initial hop limit rides
// in the flow label and the send time in the flow label + payload length
// (this repository's probe6 encoding is shared; Yarrp6's actual format
// differs in detail but carries the same information).
func IPv6() Wire[probe6.Addr] { return ipv6Wire{} }

type ipv4Wire struct{ probeType ProbeType }

func (ipv4Wire) MaxTTL() uint8    { return probe.MaxTTL }
func (ipv4Wire) PermSalt() uint64 { return 0x9aeb1a2b }

func (w ipv4Wire) Build(buf []byte, src, dst uint32, ttl uint8, elapsed time.Duration) (int, error) {
	if w.probeType == UDP {
		return probe.BuildYarrpUDPProbe(buf, src, dst, ttl, elapsed)
	}
	return probe.BuildYarrpTCPProbe(buf, src, dst, ttl, elapsed), nil
}

func (ipv4Wire) Parse(pkt []byte, now time.Duration) core.Reply[uint32] {
	var outer probe.IPv4
	if err := outer.Unmarshal(pkt); err != nil {
		return core.Reply[uint32]{}
	}
	// TCP RST from a destination (TCP-ACK mode): the target exists and
	// answered; no TTL or quoted context is available, so the distance
	// stays unknown (0).
	if outer.Protocol == probe.ProtoTCP {
		var tcp probe.TCP
		if err := tcp.Unmarshal(pkt[probe.IPv4HeaderLen:]); err != nil || tcp.Flags&probe.FlagRST == 0 {
			return core.Reply[uint32]{}
		}
		return core.Reply[uint32]{Kind: core.ReplyUnreachable, Dst: outer.Src, Hop: outer.Src,
			RTT: sinceMillis(now, tcp.Seq)}
	}
	resp, err := probe.ParseResponse(pkt)
	if err != nil {
		return core.Reply[uint32]{}
	}
	yi, err := probe.ParseYarrpQuote(&resp.ICMP)
	if err != nil {
		return core.Reply[uint32]{}
	}
	r := core.Reply[uint32]{Dst: yi.Dst, Hop: resp.Hop, InitTTL: yi.InitTTL,
		RTT: sinceMillis(now, yi.ElapsedMillis)}
	switch {
	case resp.ICMP.IsTTLExceeded():
		r.Kind = core.ReplyTTLExceeded
	case resp.ICMP.IsUnreachable():
		r.Kind = core.ReplyUnreachable
		r.Dist = distance(yi.InitTTL, yi.ResidualTTL)
	}
	return r
}

func (ipv4Wire) NewStore(collectRoutes bool) *trace.Store { return trace.NewStore(collectRoutes) }

type ipv6Wire struct{}

func (ipv6Wire) MaxTTL() uint8    { return probe6.MaxHopLimit }
func (ipv6Wire) PermSalt() uint64 { return 0x66aa2b4c }

func (ipv6Wire) Build(buf []byte, src, dst probe6.Addr, ttl uint8, elapsed time.Duration) (int, error) {
	return probe6.BuildProbe(buf, src, dst, ttl, false, elapsed, 0, probe6.TracerouteDstPort), nil
}

func (ipv6Wire) Parse(pkt []byte, now time.Duration) core.Reply[probe6.Addr] {
	resp, err := probe6.ParseResponse(pkt)
	if err != nil {
		return core.Reply[probe6.Addr]{}
	}
	fi, err := probe6.ParseQuote(&resp.ICMP)
	if err != nil {
		return core.Reply[probe6.Addr]{}
	}
	r := core.Reply[probe6.Addr]{Dst: fi.Dst, Hop: resp.Hop, InitTTL: fi.InitHopLimit, RTT: fi.RTT(now)}
	switch {
	case resp.ICMP.IsHopLimitExceeded():
		r.Kind = core.ReplyTTLExceeded
	case resp.ICMP.IsUnreachable():
		r.Kind = core.ReplyUnreachable
		r.Dist = distance(fi.InitHopLimit, fi.ResidualHopLimit)
	}
	return r
}

func (ipv6Wire) NewStore(collectRoutes bool) *trace.StoreOf[probe6.Addr] {
	fam := core6.Family()
	return trace.NewStoreOf(collectRoutes, fam.FormatAddr, fam.AddrLess)
}

// sinceMillis is the RTT of a probe whose send time rides in the packet
// as a millisecond counter.
func sinceMillis(now time.Duration, sentMillis uint32) time.Duration {
	return time.Duration(uint32(now.Milliseconds())-sentMillis) * time.Millisecond
}

// distance recovers the destination's hop distance from an unreachable
// reply: initial TTL minus residual plus one.
func distance(initTTL, residual uint8) uint8 {
	if d := int(initTTL) - int(residual) + 1; d > 1 {
		return uint8(d)
	}
	return 1
}
