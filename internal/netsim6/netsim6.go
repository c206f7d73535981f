// Package netsim6 is the IPv6 substrate for FlashRoute6 (the paper's §5.4
// extension): a seeded synthetic IPv6 Internet and a packet-level
// connection delivering real IPv6/ICMPv6 bytes on a pluggable clock.
//
// The defining difference from IPv4 is sparsity: allocated IPv6 space is
// a scattering of prefixes in an astronomically larger space, so there is
// no notion of "every /24"; scans run over candidate target lists, and
// the scanner's control state must be indexed by hash rather than by
// address prefix (the redesign the paper anticipates).
package netsim6

import (
	"encoding/binary"
	"math/rand"
	"time"

	"github.com/flashroute/flashroute/internal/probe6"
	"github.com/flashroute/flashroute/internal/simclock"
	"github.com/flashroute/flashroute/internal/simnet"
)

// Impairments is the shared packet-impairment model, aliased so IPv6
// call sites read netsim6.Impairments; see simnet.Impairments.
type Impairments = simnet.Impairments

// FaultWindow and FaultKind describe the deterministic transport-fault
// windows (Impairments.Faults), aliased for the same reason.
type (
	FaultWindow = simnet.FaultWindow
	FaultKind   = simnet.FaultKind
)

const (
	FaultWriteError = simnet.FaultWriteError
	FaultReadStall  = simnet.FaultReadStall
	FaultFlap       = simnet.FaultFlap
)

// Params shape the synthetic IPv6 Internet.
type Params struct {
	Seed int64
	// Prefixes is the number of allocated /48 prefixes; TargetsPerPrefix
	// the number of candidate addresses per prefix in the target list
	// (like Yarrp6's candidate lists).
	Prefixes         int
	TargetsPerPrefix int

	CoreHops        int
	Regions         int
	RegionHopsMin   int
	RegionHopsMax   int
	Providers       int
	ProviderHopsMin int
	ProviderHopsMax int

	SilentRouterProb float64
	// HostRespProb is the probability a candidate target exists and
	// answers port-unreachable (candidate lists are pre-filtered, so this
	// is much higher than IPv4's random-representative rate).
	HostRespProb float64

	ICMPRateLimitPPS int
	BaseRTT          time.Duration
	PerHopRTT        time.Duration
	JitterRTT        time.Duration

	// Impair layers packet-level pathologies (loss, bursts, duplication,
	// reordering, extra jitter) over the modeled network — the same
	// deterministic model the IPv4 simulator uses. The zero value is the
	// perfect network.
	Impair Impairments
}

// DefaultParams returns calibrated defaults for the given seed.
func DefaultParams(seed int64) Params {
	return Params{
		Seed:             seed,
		Prefixes:         1024,
		TargetsPerPrefix: 16,
		CoreHops:         3,
		Regions:          6,
		RegionHopsMin:    2,
		RegionHopsMax:    5,
		Providers:        64,
		ProviderHopsMin:  4,
		ProviderHopsMax:  10,
		SilentRouterProb: 0.15,
		HostRespProb:     0.55,
		ICMPRateLimitPPS: 500,
		BaseRTT:          12 * time.Millisecond,
		PerHopRTT:        2 * time.Millisecond,
		JitterRTT:        30 * time.Millisecond,
	}
}

// HopKind classifies a probe's fate.
type HopKind uint8

const (
	HopNone HopKind = iota
	HopRouter
	HopSilentRouter
	HopDest
	HopDestSilent
)

// Hop is the outcome of resolving a probe.
type Hop struct {
	Kind     HopKind
	Addr     probe6.Addr
	Depth    uint8
	Residual uint8
}

type prefix6 struct {
	provider int32
	gateway  probe6.Addr
}

// Topology is the synthetic IPv6 Internet.
type Topology struct {
	P Params

	vantage probe6.Addr
	core    []probe6.Addr

	regionPaths   [][]probe6.Addr
	providerPaths [][]probe6.Addr
	providerReg   []int32

	prefixes []prefix6
	// prefIdx maps the /48 (first 6 bytes) to the prefix index — the
	// sparse lookup that replaces IPv4's dense array.
	prefIdx map[[6]byte]int32

	targets []probe6.Addr

	hashSeed uint64
}

// NewTopology generates the IPv6 Internet and its candidate target list.
func NewTopology(p Params) *Topology {
	rng := rand.New(rand.NewSource(p.Seed))
	t := &Topology{
		P:        p,
		prefIdx:  make(map[[6]byte]int32, p.Prefixes),
		hashSeed: uint64(p.Seed)*0x9e3779b97f4a7c15 + 0x6a09e667f3bcc908,
	}
	t.vantage = infraAddr(0, 1)
	t.core = make([]probe6.Addr, p.CoreHops)
	for i := range t.core {
		t.core[i] = infraAddr(1, uint32(i+1))
	}
	span := func(min, max int) int {
		if max <= min {
			return min
		}
		return min + rng.Intn(max-min+1)
	}
	t.regionPaths = make([][]probe6.Addr, p.Regions)
	for r := range t.regionPaths {
		path := make([]probe6.Addr, span(p.RegionHopsMin, p.RegionHopsMax))
		for j := range path {
			path[j] = infraAddr(2, uint32(r)<<8|uint32(j+1))
		}
		t.regionPaths[r] = path
	}
	t.providerPaths = make([][]probe6.Addr, p.Providers)
	t.providerReg = make([]int32, p.Providers)
	for pr := range t.providerPaths {
		path := make([]probe6.Addr, span(p.ProviderHopsMin, p.ProviderHopsMax))
		for j := range path {
			path[j] = infraAddr(3, uint32(pr)<<8|uint32(j+1))
		}
		t.providerPaths[pr] = path
		t.providerReg[pr] = int32(rng.Intn(p.Regions))
	}
	t.prefixes = make([]prefix6, p.Prefixes)
	for i := range t.prefixes {
		pref := &t.prefixes[i]
		pref.provider = int32(rng.Intn(p.Providers))
		base := t.prefixBase(i)
		gw := base
		gw[15] = 1
		pref.gateway = gw
		var key [6]byte
		copy(key[:], base[:6])
		t.prefIdx[key] = int32(i)
	}
	// Candidate target list: TargetsPerPrefix pseudo-random interface IDs
	// per allocated prefix, deduplicated against the gateway.
	t.targets = make([]probe6.Addr, 0, p.Prefixes*p.TargetsPerPrefix)
	for i := range t.prefixes {
		base := t.prefixBase(i)
		for j := 0; j < p.TargetsPerPrefix; j++ {
			a := base
			binary.BigEndian.PutUint64(a[8:], t.hash(uint64(i), uint64(j), 0x7a))
			if a == t.prefixes[i].gateway {
				a[15] ^= 0x80
			}
			t.targets = append(t.targets, a)
		}
	}
	return t
}

// prefixBase returns the /48 base address of prefix i (2001:db8:xxxx::).
func (t *Topology) prefixBase(i int) probe6.Addr {
	var a probe6.Addr
	a[0], a[1], a[2], a[3] = 0x20, 0x01, 0x0d, 0xb8
	binary.BigEndian.PutUint16(a[4:], uint16(i))
	return a
}

// infraAddr mints router interface addresses outside the target space.
func infraAddr(tier uint8, n uint32) probe6.Addr {
	var a probe6.Addr
	a[0], a[1] = 0x2a, tier
	binary.BigEndian.PutUint32(a[12:], n)
	return a
}

func (t *Topology) hash(a, b, c uint64) uint64 {
	z := t.hashSeed + a*0x9e3779b97f4a7c15 + b*0xd6e8feb86659fd93 + c*0xa0761d6478bd642f
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (t *Topology) chance(h uint64, p float64) bool {
	return float64(h>>11)/float64(1<<53) < p
}

func addrWord(a probe6.Addr) uint64 {
	return binary.BigEndian.Uint64(a[8:]) ^ uint64(binary.BigEndian.Uint32(a[0:]))
}

func (t *Topology) silent(a probe6.Addr) bool {
	if a == t.core[0] || IsIngressIface(a) {
		return false
	}
	return t.chance(t.hash(addrWord(a), 0x51, 0), t.P.SilentRouterProb)
}

// ingressTier is the infraAddr tier minting per-vantage ingress
// interfaces; generated routers use the low tiers, so no collision.
const ingressTier = 0xfe

// IngressIface returns the first-hop interface address seen by probes
// sourced at vantage v (v > 0; vantage 0 uses the classic core path).
func IngressIface(v int) probe6.Addr { return infraAddr(ingressTier, uint32(v)) }

// IsIngressIface reports whether a is a per-vantage ingress interface.
func IsIngressIface(a probe6.Addr) bool { return a[0] == 0x2a && a[1] == ingressTier }

// Vantage returns the scanning source address.
func (t *Topology) Vantage() probe6.Addr { return t.vantage }

// Targets returns the candidate target list.
func (t *Topology) Targets() []probe6.Addr { return t.targets }

// HostResponds reports whether a candidate target answers probes.
func (t *Topology) HostResponds(a probe6.Addr) bool {
	if i, ok := t.prefixOf(a); ok && t.prefixes[i].gateway == a {
		return true
	}
	return t.chance(t.hash(addrWord(a), 0xb0, 0), t.P.HostRespProb)
}

func (t *Topology) prefixOf(a probe6.Addr) (int32, bool) {
	var key [6]byte
	copy(key[:], a[:6])
	i, ok := t.prefIdx[key]
	return i, ok
}

// DistanceNow returns the hop distance of a target, 0 if unrouted.
func (t *Topology) DistanceNow(a probe6.Addr) uint8 {
	i, ok := t.prefixOf(a)
	if !ok {
		return 0
	}
	pref := &t.prefixes[i]
	pr := int(pref.provider)
	d := len(t.core) + len(t.regionPaths[t.providerReg[pr]]) + len(t.providerPaths[pr]) + 1
	if a != pref.gateway {
		d++
	}
	return uint8(d)
}

// Resolve determines what a probe encounters.
func (t *Topology) Resolve(dst probe6.Addr, hopLimit uint8) Hop {
	return t.ResolveFrom(0, dst, hopLimit)
}

// ResolveFrom is Resolve for a probe entering at vantage v: vantage 0 is
// the classic path, any other vantage reaches the same core through a
// private one-hop ingress link resolving to IngressIface(v) at depth 1.
func (t *Topology) ResolveFrom(v int, dst probe6.Addr, hopLimit uint8) Hop {
	i, ok := t.prefixOf(dst)
	if !ok {
		return Hop{Kind: HopNone}
	}
	if v > 0 && hopLimit == 1 {
		return t.routerHop(IngressIface(v), hopLimit)
	}
	pref := &t.prefixes[i]
	pr := int(pref.provider)
	region := t.regionPaths[t.providerReg[pr]]
	provider := t.providerPaths[pr]

	d := int(hopLimit)
	if d <= len(t.core) {
		return t.routerHop(t.core[d-1], hopLimit)
	}
	d -= len(t.core)
	if d <= len(region) {
		return t.routerHop(region[d-1], hopLimit)
	}
	d -= len(region)
	if d <= len(provider) {
		return t.routerHop(provider[d-1], hopLimit)
	}
	d -= len(provider)

	gwDepth := int(hopLimit) - d + 1
	if dst == pref.gateway {
		return Hop{Kind: HopDest, Addr: dst, Depth: uint8(gwDepth),
			Residual: hopLimit - uint8(gwDepth) + 1}
	}
	if d == 1 {
		return t.routerHop(pref.gateway, hopLimit)
	}
	if !t.HostResponds(dst) {
		return Hop{Kind: HopNone}
	}
	depth := uint8(gwDepth + 1)
	return Hop{Kind: HopDest, Addr: dst, Depth: depth, Residual: hopLimit - depth + 1}
}

func (t *Topology) routerHop(a probe6.Addr, hopLimit uint8) Hop {
	kind := HopRouter
	if t.silent(a) {
		kind = HopSilentRouter
	}
	return Hop{Kind: kind, Addr: a, Depth: hopLimit, Residual: 1}
}

// ---- packet-level network ----

// Net binds the topology to a clock: the shared simulated link
// (simnet.Link) carrying IPv6 probes and ICMPv6 replies.
type Net struct {
	*simnet.Link[probe6.Addr, reply]
	topo *Topology
}

// Conn is the raw IPv6 connection (see simnet.Conn).
type Conn = simnet.Conn[probe6.Addr, reply]

// Reader is a per-receiver read handle on a Conn (see simnet.Reader).
type Reader = simnet.Reader[probe6.Addr, reply]

// New creates an IPv6 network on the clock. NewVantageConn(v) routes a
// connection's probes over vantage v's private ingress link
// (Topology.ResolveFrom); the source address stays the vantage point's.
func New(topo *Topology, clock simclock.Waiter) *Net {
	p := &topo.P
	return &Net{
		Link: simnet.NewLink[probe6.Addr, reply](clock, wire{topo}, bucketShardOf, p.Seed, &p.ICMPRateLimitPPS, &p.Impair),
		topo: topo,
	}
}

// Topo returns the topology.
func (n *Net) Topo() *Topology { return n.topo }

// bucketShardOf folds all address bytes: IPv6 responder populations are
// biased in their interface identifier, so no single byte spreads well.
func bucketShardOf(a probe6.Addr) uint32 {
	h := uint32(2166136261)
	for _, b := range a {
		h = (h ^ uint32(b)) * 16777619
	}
	return h
}

// reply is a scheduled response, materialized into bytes at read time.
type reply struct {
	unreach   bool
	hop       probe6.Addr
	quote     probe6.Header
	transport [8]byte
}

// wire is the IPv6 half of the link: probe decoding, resolution against
// the topology, and reply rendering.
type wire struct{ topo *Topology }

func (w wire) rtt(depth uint8, h uint64) time.Duration {
	p := &w.topo.P
	j := time.Duration(0)
	if p.JitterRTT > 0 {
		j = time.Duration(h % uint64(p.JitterRTT))
	}
	return p.BaseRTT + time.Duration(depth)*p.PerHopRTT + j
}

// Probe decodes one serialized IPv6 probe and resolves what it meets.
func (w wire) Probe(pkt []byte, vantage int, now time.Duration) (simnet.Fate[probe6.Addr, reply], error) {
	var f simnet.Fate[probe6.Addr, reply]
	var hdr probe6.Header
	if err := hdr.Unmarshal(pkt); err != nil || len(pkt) < probe6.HeaderLen+8 {
		if err == nil {
			err = probe6.ErrTruncated
		}
		return f, err
	}
	if hdr.HopLimit == 0 {
		f.Outcome = simnet.FateExpired
		return f, nil
	}
	hop := w.topo.ResolveFrom(vantage, hdr.Dst, hdr.HopLimit)
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
	}
	var transport [8]byte
	copy(transport[:], pkt[probe6.HeaderLen:probe6.HeaderLen+8])
	quote := hdr
	quote.HopLimit = hop.Residual

	f.Responder, f.ICMP = hop.Addr, true
	f.RTT = w.rtt(hop.Depth, w.topo.hash(addrWord(hdr.Dst), uint64(hdr.HopLimit), uint64(now)))
	f.Reply = reply{unreach: hop.Kind == HopDest, hop: hop.Addr, quote: quote, transport: transport}
	return f, nil
}

// Materialize renders a scheduled response into wire bytes in buf.
func (w wire) Materialize(buf []byte, r reply) int {
	total := probe6.HeaderLen + probe6.ICMPErrorLen
	outer := probe6.Header{
		PayloadLength: probe6.ICMPErrorLen,
		NextHeader:    probe6.ProtoICMPv6,
		HopLimit:      64,
		Src:           r.hop,
		Dst:           w.topo.vantage,
	}
	outer.Marshal(buf)
	icmpType, code := uint8(probe6.ICMP6TypeTimeExceeded), uint8(probe6.ICMP6CodeHopLimit)
	if r.unreach {
		icmpType, code = probe6.ICMP6TypeDestUnreachable, probe6.ICMP6CodePortUnreachable
	}
	probe6.MarshalICMPError(buf[probe6.HeaderLen:], icmpType, code, &r.quote, r.transport[:])
	return total
}

// MaxResponseLen is the largest response ReadPacket produces.
const MaxResponseLen = probe6.HeaderLen + probe6.ICMPErrorLen
