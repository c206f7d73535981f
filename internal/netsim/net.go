package netsim

import (
	"time"

	"github.com/flashroute/flashroute/internal/probe"
	"github.com/flashroute/flashroute/internal/simclock"
	"github.com/flashroute/flashroute/internal/simnet"
)

// Net binds a Topology to a clock: the shared simulated link
// (simnet.Link) carrying IPv4 probes with modeled RTTs, per-interface
// ICMP rate limiting, impairments, and all middlebox behaviours.
type Net struct {
	*simnet.Link[uint32, reply]
	topo *Topology
}

// Conn is a raw-socket-like connection from the vantage point into the
// simulated network (see simnet.Conn).
type Conn = simnet.Conn[uint32, reply]

// Reader is a per-receiver read handle on a Conn (see simnet.Reader).
type Reader = simnet.Reader[uint32, reply]

// New creates a network over the topology, driven by the given clock. The
// clock's current time becomes the network epoch (time zero for route
// dynamics and rate-limit windows). Connections are sourced at the
// topology's vantage point; NewVantageConn(v) routes a connection's
// probes over a private ingress link whose first hop is IngressIface(v)
// (Topology.ResolveFrom), keeping the source address — and so the 5-tuple
// per-flow balancers hash — identical across vantages.
func New(topo *Topology, clock simclock.Waiter) *Net {
	p := &topo.P
	return &Net{
		Link: simnet.NewLink[uint32, reply](clock, wire{topo}, bucketShardOf, p.Seed, &p.ICMPRateLimitPPS, &p.Impair),
		topo: topo,
	}
}

// Topo returns the underlying topology.
func (n *Net) Topo() *Topology { return n.topo }

// bucketShardOf spreads addresses over the shards. Responder populations
// are biased in their low octet (gateways at .1, appliances at .1), so
// fold all four octets in rather than masking the low byte.
func bucketShardOf(addr uint32) uint32 {
	return addr ^ addr>>8 ^ addr>>16 ^ addr>>24
}

// response kinds on the wire.
const (
	respICMPTimeExceeded = iota
	respICMPPortUnreach
	respTCPRST
	respEchoReply
)

// reply is a scheduled response, materialized into bytes at read time
// (identical bytes, no per-probe allocation while in flight).
type reply struct {
	kind      uint8
	hop       uint32
	quote     probe.IPv4
	transport [8]byte
}

// wire is the IPv4 half of the link: probe decoding, resolution against
// the topology, and reply rendering.
type wire struct{ topo *Topology }

// rtt models the round-trip time to a responder at the given depth, with
// per-(probe,instant) jitter.
func (w wire) rtt(dst uint32, depth uint8, now time.Duration) time.Duration {
	p := &w.topo.P
	j := time.Duration(0)
	if p.JitterRTT > 0 {
		h := w.topo.hash64(uint64(dst), uint64(depth), uint64(now))
		j = time.Duration(h % uint64(p.JitterRTT))
	}
	return p.BaseRTT + time.Duration(depth)*p.PerHopRTT + j
}

// Probe decodes one serialized IPv4 probe and resolves what it meets.
func (w wire) Probe(pkt []byte, vantage int, now time.Duration) (simnet.Fate[uint32, reply], error) {
	var f simnet.Fate[uint32, reply]
	var hdr probe.IPv4
	if err := hdr.Unmarshal(pkt); err != nil || len(pkt) < probe.IPv4HeaderLen+8 {
		if err == nil {
			err = probe.ErrTruncated
		}
		return f, err
	}
	if int(hdr.TotalLength) > probe.MTU {
		return f, probe.ErrMessageTooLong
	}
	if hdr.TTL == 0 {
		f.Outcome = simnet.FateExpired // dies immediately, no response from ourselves
		return f, nil
	}

	var transport [8]byte
	copy(transport[:], pkt[probe.IPv4HeaderLen:probe.IPv4HeaderLen+8])

	// ICMP echo requests (the census hitlist's probe type, §5.1): answered
	// by ping-responsive entities, subject to the same ICMP rate limits.
	if hdr.Protocol == probe.ProtoICMP {
		switch {
		case transport[0] != probe.ICMPTypeEchoRequest:
			f.Outcome = simnet.FateMalformed
		case !w.topo.PingResponsive(hdr.Dst):
			f.Outcome = simnet.FateDestSilent
		default:
			depth := w.topo.DistanceNow(hdr.Dst, now)
			if depth == 0 {
				depth = 16 // infra or unrouted responders: nominal RTT depth
			}
			f.Responder, f.ICMP = hdr.Dst, true
			f.RTT = w.rtt(hdr.Dst, depth, now)
			f.Reply = reply{kind: respEchoReply, hop: hdr.Dst, transport: transport}
		}
		return f, nil
	}

	srcPort := uint16(transport[0])<<8 | uint16(transport[1])
	dstPort := uint16(transport[2])<<8 | uint16(transport[3])
	flow := flowHash(hdr.Src, hdr.Dst, srcPort, dstPort, hdr.Protocol)
	hop := w.topo.ResolveFrom(vantage, hdr.Dst, hdr.TTL, flow, now, hdr.Protocol)

	var kind uint8
	switch hop.Kind {
	case HopNone:
		f.Outcome = simnet.FateNoRoute
		return f, nil
	case HopSilentRouter:
		f.Outcome = simnet.FateSilentHop
		return f, nil
	case HopDestSilent:
		f.Outcome = simnet.FateDestSilent
		return f, nil
	case HopRouter:
		kind = respICMPTimeExceeded
	case HopDestUDP:
		kind = respICMPPortUnreach
	case HopDestTCP:
		kind = respTCPRST // not ICMP, so not throttled by the ICMP budget
	}

	// The quoted header is the probe's header as the responder saw it:
	// TTL decayed to the residual, destination possibly rewritten.
	quote := hdr
	quote.TTL = hop.Residual
	quote.Dst = hop.QuotedDst

	f.Responder, f.ICMP = hop.Addr, kind != respTCPRST
	f.RTT = w.rtt(hdr.Dst, hop.Depth, now)
	f.Reply = reply{kind: kind, hop: hop.Addr, quote: quote, transport: transport}
	return f, nil
}

// Materialize renders a scheduled response into wire bytes in buf.
func (w wire) Materialize(buf []byte, r reply) int {
	switch r.kind {
	case respEchoReply:
		total := probe.IPv4HeaderLen + probe.EchoLen
		outer := probe.IPv4{
			TotalLength: uint16(total),
			TTL:         64,
			Protocol:    probe.ProtoICMP,
			Src:         r.hop,
			Dst:         w.topo.vantage,
		}
		outer.Marshal(buf)
		b := buf[probe.IPv4HeaderLen:]
		b[0], b[1] = probe.ICMPTypeEchoReply, 0
		b[2], b[3] = 0, 0
		copy(b[4:8], r.transport[4:8]) // echoed id/seq
		cs := probe.Checksum(b[:probe.EchoLen])
		b[2], b[3] = byte(cs>>8), byte(cs)
		return total

	case respTCPRST:
		total := probe.IPv4HeaderLen + probe.TCPHeaderLen
		outer := probe.IPv4{
			TotalLength: uint16(total),
			TTL:         64,
			Protocol:    probe.ProtoTCP,
			Src:         r.hop,
			Dst:         w.topo.vantage,
		}
		outer.Marshal(buf)
		var pt probe.TCP
		_ = pt.Unmarshal(r.transport[:])
		rst := probe.TCP{
			SrcPort: pt.DstPort,
			DstPort: pt.SrcPort,
			Seq:     pt.Seq, // echo for scanner-side matching
			Ack:     pt.Seq + 1,
			Flags:   probe.FlagRST | probe.FlagACK,
		}
		rst.Marshal(buf[probe.IPv4HeaderLen:])
		return total

	default:
		icmpType := uint8(probe.ICMPTypeTimeExceeded)
		icmpCode := uint8(probe.ICMPCodeTTLExceeded)
		if r.kind == respICMPPortUnreach {
			icmpType = probe.ICMPTypeDestUnreachable
			icmpCode = probe.ICMPCodePortUnreachable
		}
		total := probe.IPv4HeaderLen + probe.ICMPErrorLen
		outer := probe.IPv4{
			TotalLength: uint16(total),
			TTL:         64,
			Protocol:    probe.ProtoICMP,
			Src:         r.hop,
			Dst:         w.topo.vantage,
		}
		outer.Marshal(buf)
		probe.MarshalICMPError(buf[probe.IPv4HeaderLen:], icmpType, icmpCode, &r.quote, r.transport[:])
		return total
	}
}

// MaxResponseLen is the largest packet ReadPacket can produce.
const MaxResponseLen = probe.IPv4HeaderLen + probe.ICMPErrorLen

// flowHash derives the load-balancer flow identifier from the 5-tuple
// (FNV-1a over the tuple bytes), as a per-flow balancer would.
func flowHash(src, dst uint32, sport, dport uint16, proto uint8) uint32 {
	h := uint32(2166136261)
	mix := func(b byte) {
		h ^= uint32(b)
		h *= 16777619
	}
	for i := 0; i < 4; i++ {
		mix(byte(src >> (8 * i)))
		mix(byte(dst >> (8 * i)))
	}
	mix(byte(sport >> 8))
	mix(byte(sport))
	mix(byte(dport >> 8))
	mix(byte(dport))
	mix(proto)
	return h
}
