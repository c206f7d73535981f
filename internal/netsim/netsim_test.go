package netsim

import (
	"io"
	"testing"
	"testing/quick"
	"time"

	"github.com/flashroute/flashroute/internal/probe"
	"github.com/flashroute/flashroute/internal/simclock"
)

func testTopo(t *testing.T, blocks int, seed int64) *Topology {
	t.Helper()
	u := NewSyntheticUniverse(blocks)
	return NewTopology(u, DefaultParams(seed))
}

func TestUniverseSynthetic(t *testing.T) {
	u := NewSyntheticUniverse(1000)
	if u.NumBlocks() != 1000 {
		t.Fatalf("blocks=%d", u.NumBlocks())
	}
	for _, i := range []int{0, 1, 999} {
		addr := u.BlockAddr(i)
		if addr&0xff != 0 {
			t.Fatalf("block base %#x has nonzero host octet", addr)
		}
		j, ok := u.BlockIndex(addr | 37)
		if !ok || j != i {
			t.Fatalf("BlockIndex(BlockAddr(%d)|37) = %d,%v", i, j, ok)
		}
	}
	if _, ok := u.BlockIndex(0x01000000); ok {
		t.Fatal("address outside universe should not resolve")
	}
}

func TestUniverseParse(t *testing.T) {
	u, err := ParseUniverse([]string{"10.0.0.0/16", "10.1.0.0/16", "192.168.5.0/24"})
	if err != nil {
		t.Fatal(err)
	}
	// Two adjacent /16s merge into 512 blocks, plus one /24.
	if u.NumBlocks() != 513 {
		t.Fatalf("blocks=%d want 513", u.NumBlocks())
	}
	i, ok := u.BlockIndex(0x0A01FF01) // 10.1.255.1
	if !ok || i != 511 {
		t.Fatalf("BlockIndex=%d,%v want 511", i, ok)
	}
	i, ok = u.BlockIndex(0xC0A80563) // 192.168.5.99
	if !ok || i != 512 {
		t.Fatalf("BlockIndex=%d,%v want 512", i, ok)
	}
	if _, err := ParseUniverse([]string{"10.0.0.0/28"}); err == nil {
		t.Fatal("prefix longer than /24 must be rejected")
	}
	if _, err := ParseUniverse([]string{"bogus"}); err == nil {
		t.Fatal("junk must be rejected")
	}
}

// TestUniverseParseStrict: regression for the Sscanf-era parser, which
// accepted trailing garbage ("10.0.0.0/8x" scanned as /8) and signed or
// padded numerals. Every malformed string must be an error — these now
// arrive from a network API, where a silently mis-parsed range means
// scanning the wrong universe.
func TestUniverseParseStrict(t *testing.T) {
	for _, bad := range []string{
		"",
		"10.0.0.0",      // no prefix length
		"10.0.0.0/",     // empty prefix length
		"10.0.0.0/8x",   // trailing garbage after the length
		"10.0.0.0/8 ",   // trailing space
		" 10.0.0.0/8",   // leading space
		"10.0.0.0/+8",   // signed length
		"10.0.0.0/-8",   // negative length
		"10.0.0.0/33",   // length out of range
		"10.0.0.0/8/8",  // second slash
		"10.0.0/8",      // three octets
		"10.0.0.0.0/8",  // five octets
		"10.0.0.x/8",    // non-numeric octet
		"256.0.0.0/8",   // octet out of range
		"-1.0.0.0/8",    // signed octet
		"10.0.0.1e1/8",  // exponent notation
		"10.0.0.0/24\n", // trailing newline
		"0x0a.0.0.0/8",  // hex octet
		"1000.0.0.0/8",  // four-digit octet
		"10..0.0/8",     // empty octet
	} {
		if _, err := ParseUniverse([]string{bad}); err == nil {
			t.Errorf("ParseUniverse(%q) accepted, want error", bad)
		}
	}
	for _, good := range []string{"0.0.0.0/0", "10.0.0.0/8", "192.168.5.0/24", "4.0.0.0/16"} {
		if _, err := ParseUniverse([]string{good}); err != nil {
			t.Errorf("ParseUniverse(%q): %v", good, err)
		}
	}
}

func TestUniverseIndexRoundTripProperty(t *testing.T) {
	u, err := ParseUniverse([]string{"10.0.0.0/12", "172.16.0.0/14"})
	if err != nil {
		t.Fatal(err)
	}
	prop := func(raw uint32) bool {
		i := int(raw) % u.NumBlocks()
		if i < 0 {
			i = -i
		}
		j, ok := u.BlockIndex(u.BlockAddr(i) | 200)
		return ok && j == i
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyDeterminism(t *testing.T) {
	a := testTopo(t, 2048, 7)
	b := testTopo(t, 2048, 7)
	for blk := 0; blk < 2048; blk += 17 {
		dst := a.U.BlockAddr(blk) | 23
		for ttl := uint8(1); ttl <= 32; ttl++ {
			ha := a.Resolve(dst, ttl, 5, 0, probe.ProtoUDP)
			hb := b.Resolve(dst, ttl, 5, 0, probe.ProtoUDP)
			if ha != hb {
				t.Fatalf("nondeterministic at blk=%d ttl=%d: %+v vs %+v", blk, ttl, ha, hb)
			}
		}
	}
}

// TestRouteStructure walks routes hop by hop and checks the fundamental
// TTL semantics: router hops strictly up to the destination's distance,
// destination reached at and beyond it, with the right residual TTL.
func TestRouteStructure(t *testing.T) {
	topo := testTopo(t, 4096, 42)
	checked := 0
	for blk := 0; blk < 4096 && checked < 300; blk++ {
		dst := topo.U.BlockAddr(blk) | 77
		d := topo.DistanceNow(dst, 0)
		if d == 0 || !topo.HostExists(dst) {
			continue
		}
		s := &topo.stubs[topo.blockStub[blk]]
		if s.midReset || s.midRewrite {
			continue
		}
		checked++
		for ttl := uint8(1); ttl < d; ttl++ {
			h := topo.Resolve(dst, ttl, 1, 0, probe.ProtoUDP)
			if h.Kind != HopRouter && h.Kind != HopSilentRouter {
				t.Fatalf("blk=%d ttl=%d (dist %d): want router hop, got %+v", blk, ttl, d, h)
			}
			if h.Residual != 1 {
				t.Fatalf("router hop residual=%d", h.Residual)
			}
		}
		for _, ttl := range []uint8{d, d + 1, 32} {
			if ttl < d {
				continue
			}
			h := topo.Resolve(dst, ttl, 1, 0, probe.ProtoUDP)
			if !h.Kind.Terminal() {
				t.Fatalf("blk=%d ttl=%d (dist %d): want terminal, got %+v", blk, ttl, d, h)
			}
			if h.Kind == HopDestUDP {
				if got := ttl - h.Residual + 1; got != d {
					t.Fatalf("residual arithmetic: ttl=%d residual=%d dist=%d", ttl, h.Residual, d)
				}
				if h.Addr != dst {
					t.Fatalf("dest responder %#x != dst %#x", h.Addr, dst)
				}
			}
		}
	}
	if checked < 50 {
		t.Fatalf("too few live destinations checked: %d", checked)
	}
}

// TestOneProbeDistanceMeasurement verifies the paper's §3.3.1 mechanism
// end to end at the topology level: a single TTL-32 probe to a responsive
// destination yields its exact hop distance.
func TestOneProbeDistanceMeasurement(t *testing.T) {
	topo := testTopo(t, 4096, 3)
	n := 0
	for blk := 0; blk < 4096; blk++ {
		dst := topo.U.BlockAddr(blk) | 1 // gateways: reliably responsive
		d := topo.DistanceNow(dst, 0)
		if d == 0 {
			continue
		}
		s := &topo.stubs[topo.blockStub[blk]]
		if s.midReset {
			continue
		}
		h := topo.Resolve(dst, 32, 9, 0, probe.ProtoUDP)
		if h.Kind != HopDestUDP {
			continue
		}
		if got := uint8(32) - h.Residual + 1; got != d {
			t.Fatalf("blk=%d: measured %d, true %d", blk, got, d)
		}
		n++
	}
	if n < 100 {
		t.Fatalf("too few gateways measured: %d", n)
	}
}

func TestFlowDependentDiamonds(t *testing.T) {
	topo := testTopo(t, 8192, 11)
	diverged := false
	for blk := 0; blk < 8192 && !diverged; blk += 3 {
		dst := topo.U.BlockAddr(blk) | 9
		for ttl := uint8(4); ttl <= 16; ttl++ {
			h1 := topo.Resolve(dst, ttl, 100, 0, probe.ProtoUDP)
			h2 := topo.Resolve(dst, ttl, 101, 0, probe.ProtoUDP)
			// Same flow must always agree.
			h1b := topo.Resolve(dst, ttl, 100, 0, probe.ProtoUDP)
			if h1 != h1b {
				t.Fatal("same flow resolved differently")
			}
			if h1.Addr != h2.Addr && h1.Addr != 0 && h2.Addr != 0 {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Fatal("no load-balancer diamond observed across flows")
	}
}

func TestDynamicRouteFlaps(t *testing.T) {
	topo := testTopo(t, 8192, 5)
	p := topo.P
	flapped := 0
	for blk := 0; blk < 8192; blk++ {
		if topo.blockFlags[blk]&blockDynamic == 0 {
			continue
		}
		dst := topo.U.BlockAddr(blk) | 50
		d0 := topo.DistanceNow(dst, 0)
		if d0 == 0 {
			continue
		}
		for e := 1; e < 8; e++ {
			d := topo.DistanceNow(dst, time.Duration(e)*p.DynamicEpoch)
			if d != d0 {
				if d != d0+1 && d != d0-1 {
					t.Fatalf("flap changed distance by more than 1: %d -> %d", d0, d)
				}
				flapped++
				break
			}
		}
	}
	if flapped == 0 {
		t.Fatal("no dynamic block ever flapped")
	}
}

func TestLoopyStubsProduceLoops(t *testing.T) {
	u := NewSyntheticUniverse(16384)
	p := DefaultParams(21)
	p.LoopStubProb = 0.05 // raise the rare behaviour so the test can see it
	topo := NewTopology(u, p)
	found := false
	for si := range topo.stubs {
		s := &topo.stubs[si]
		if !s.routed || !s.loopy {
			continue
		}
		// Probe a nonexistent host in the stub's first block.
		blk := int(s.firstBlock)
		var dst uint32
		for o := uint32(3); o < 250; o++ {
			cand := topo.U.BlockAddr(blk) | o
			if !topo.HostExists(cand) {
				dst = cand
				break
			}
		}
		if dst == 0 {
			continue
		}
		seen := map[uint32]uint8{}
		for ttl := uint8(1); ttl <= 32; ttl++ {
			h := topo.Resolve(dst, ttl, 1, 0, probe.ProtoUDP)
			if h.Kind == HopRouter || h.Kind == HopSilentRouter {
				if prev, ok := seen[h.Addr]; ok && prev != ttl {
					found = true
				}
				seen[h.Addr] = ttl
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no forwarding loop observed in loopy stubs")
	}
}

func TestMiddleboxRewriteQuotesDifferentDst(t *testing.T) {
	topo := testTopo(t, 65536, 13)
	found := false
	for si := range topo.stubs {
		s := &topo.stubs[si]
		if !s.routed || !s.midRewrite || s.midReset {
			continue
		}
		blk := int(s.firstBlock)
		for o := uint32(2); o < 254 && !found; o++ {
			dst := topo.U.BlockAddr(blk) | o
			// The rewritten address must exist for a response to come back.
			if !topo.HostExists(dst ^ 1) {
				continue
			}
			h := topo.Resolve(dst, 32, 1, 0, probe.ProtoUDP)
			if h.Kind == HopDestUDP && h.QuotedDst != dst {
				if h.QuotedDst != dst^1 {
					t.Fatalf("rewrite produced unexpected dst %#x", h.QuotedDst)
				}
				found = true
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Skip("no rewrite-stub with live rewritten host in this seed (probabilistic)")
	}
}

// TestCalibration checks the topology's aggregate statistics against the
// bands the paper reports (see DESIGN.md): random representatives respond
// to preprobes at a few percent, distances center in the mid-teens, and a
// reasonable share of destinations sit beyond TTL 16.
func TestCalibration(t *testing.T) {
	const blocks = 32768
	topo := testTopo(t, blocks, 1)
	respRandom := 0
	distSum, distN, beyond16 := 0, 0, 0
	for blk := 0; blk < blocks; blk++ {
		oct := uint32(1 + topo.hash64(uint64(blk), 0xabc, 0)%254)
		dst := topo.U.BlockAddr(blk) | oct
		h := topo.Resolve(dst, 32, 1, 0, probe.ProtoUDP)
		if h.Kind == HopDestUDP {
			respRandom++
		}
		if d := topo.DistanceNow(dst, 0); d > 0 {
			distSum += int(d)
			distN++
			if d > 16 {
				beyond16++
			}
		}
	}
	frac := float64(respRandom) / blocks
	if frac < 0.02 || frac > 0.10 {
		t.Errorf("random-rep response rate %.3f outside [0.02,0.10] (paper: ~0.04)", frac)
	}
	mean := float64(distSum) / float64(distN)
	if mean < 12 || mean > 20 {
		t.Errorf("mean distance %.1f outside [12,20]", mean)
	}
	fb := float64(beyond16) / float64(distN)
	if fb < 0.25 || fb > 0.75 {
		t.Errorf("fraction of destinations beyond TTL16 %.2f outside [0.25,0.75]", fb)
	}
}

func TestHitlistBiasPresent(t *testing.T) {
	topo := testTopo(t, 16384, 2)
	shorter, longer := 0, 0
	for blk := 0; blk < 16384; blk++ {
		gw := topo.GatewayOfBlock(blk)
		if gw == 0 || int(gw>>8)<<8 != int(topo.U.BlockAddr(blk)) {
			continue // only blocks that host their stub's gateway
		}
		oct := uint32(2 + topo.hash64(uint64(blk), 0xdef, 0)%252)
		rnd := topo.U.BlockAddr(blk) | oct
		if !topo.HostExists(rnd) {
			continue
		}
		dg := topo.DistanceNow(gw, 0)
		dr := topo.DistanceNow(rnd, 0)
		if dg < dr {
			shorter++
		} else if dg > dr {
			longer++
		}
	}
	if shorter <= longer*2 {
		t.Fatalf("gateway (hitlist-style) targets not closer: shorter=%d longer=%d", shorter, longer)
	}
}

func TestRateLimiting(t *testing.T) {
	u := NewSyntheticUniverse(64)
	p := DefaultParams(9)
	p.ICMPRateLimitPPS = 10
	topo := NewTopology(u, p)
	clock := simclock.NewVirtual(time.Unix(0, 0))
	n := New(topo, clock)
	now := n.Elapsed()
	addr := topo.core[0]
	allowed := 0
	for i := 0; i < 25; i++ {
		if n.AllowICMP(addr, now) {
			allowed++
		}
	}
	if allowed != 10 {
		t.Fatalf("allowed=%d want 10", allowed)
	}
	// New second: budget refreshes.
	if !n.AllowICMP(addr, now+time.Second) {
		t.Fatal("budget should refresh next second")
	}
}

// TestConnEndToEnd drives a complete probe/response cycle over the virtual
// clock: build a real FlashRoute probe, write it, read the ICMP response,
// parse it, and confirm the encoding survives the round trip with a
// plausible RTT.
func TestConnEndToEnd(t *testing.T) {
	topo := testTopo(t, 1024, 123)
	clock := simclock.NewVirtual(time.Unix(0, 0))
	n := New(topo, clock)
	conn := n.NewConn()

	// Find a gateway destination that answers UDP-to-high-port (edge
	// devices mostly drop it, so check the resolved response kind).
	var dst uint32
	var dist uint8
	for blk := 0; blk < 1024; blk++ {
		if gw := topo.GatewayOfBlock(blk); gw != 0 {
			s := &topo.stubs[topo.blockStub[blk]]
			if s.midReset || s.midRewrite {
				continue
			}
			if topo.Resolve(gw, 32, 0, 0, probe.ProtoUDP).Kind != HopDestUDP {
				continue
			}
			dst = gw
			dist = topo.DistanceNow(gw, 0)
			break
		}
	}
	if dst == 0 {
		t.Fatal("no responsive gateway found")
	}

	var pkt [128]byte
	ln := probe.BuildFlashProbe(pkt[:], topo.Vantage(), dst, 32, true, 0, 0, probe.TracerouteDstPort)

	clock.AddActor()
	defer clock.DoneActor()
	if err := conn.WritePacket(pkt[:ln]); err != nil {
		t.Fatal(err)
	}

	var buf [MaxResponseLen]byte
	rn, err := conn.ReadPacket(buf[:])
	if err != nil {
		t.Fatal(err)
	}
	resp, err := probe.ParseResponse(buf[:rn])
	if err != nil {
		t.Fatal(err)
	}
	if !resp.ICMP.IsUnreachable() {
		t.Fatalf("want port unreachable, got type %d", resp.ICMP.Type)
	}
	if resp.Hop != dst {
		t.Fatalf("responder %#x want %#x", resp.Hop, dst)
	}
	fi, err := probe.ParseFlashQuote(&resp.ICMP)
	if err != nil {
		t.Fatal(err)
	}
	if got := uint8(32) - fi.ResidualTTL + 1; got != dist {
		t.Fatalf("measured distance %d want %d", got, dist)
	}
	if !fi.ChecksumMatches(0) {
		t.Fatal("checksum should match")
	}
	if !fi.Preprobe {
		t.Fatal("preprobe bit lost")
	}
	// RTT sanity: virtual time advanced by the modeled RTT.
	if e := clock.Elapsed(); e < topo.P.BaseRTT || e > time.Second {
		t.Fatalf("elapsed %v implausible", e)
	}

	// After close and drain, EOF.
	conn.Close()
	if _, err := conn.ReadPacket(buf[:]); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

// TestConnDecoupledSenderReceiver runs sender and receiver as separate
// actors, paper-style, and checks every responsive probe produces exactly
// one readable response.
func TestConnDecoupledSenderReceiver(t *testing.T) {
	topo := testTopo(t, 2048, 77)
	clock := simclock.NewVirtual(time.Unix(0, 0))
	n := New(topo, clock)
	conn := n.NewConn()

	const probes = 2000
	clock.AddActor() // sender
	clock.AddActor() // receiver

	received := make(chan int, 1)
	go func() {
		defer clock.DoneActor()
		count := 0
		var buf [MaxResponseLen]byte
		for {
			_, err := conn.ReadPacket(buf[:])
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Error(err)
				break
			}
			count++
		}
		received <- count
	}()

	go func() {
		defer clock.DoneActor()
		var pkt [128]byte
		for i := 0; i < probes; i++ {
			blk := i % topo.U.NumBlocks()
			dst := topo.U.BlockAddr(blk) | uint32(1+i%254)
			ttl := uint8(1 + i%32)
			ln := probe.BuildFlashProbe(pkt[:], topo.Vantage(), dst, ttl, false,
				n.Elapsed(), 0, probe.TracerouteDstPort)
			if err := conn.WritePacket(pkt[:ln]); err != nil {
				t.Error(err)
			}
			clock.Sleep(time.Millisecond) // 1 Kpps pacing
		}
		clock.Sleep(5 * time.Second) // drain
		conn.Close()
	}()

	got := <-received
	want := int(n.Stats.Responses.Load())
	if got != want {
		t.Fatalf("received %d responses, network delivered %d", got, want)
	}
	if got == 0 {
		t.Fatal("no responses at all")
	}
	sent := n.Stats.ProbesSent.Load()
	if sent != probes {
		t.Fatalf("sent=%d", sent)
	}
	// Accounting identity: every probe is answered, silent, unrouted,
	// rate-limited, or reached a silent destination.
	acc := n.Stats.Responses.Load() + n.Stats.SilentHops.Load() +
		n.Stats.NoRoute.Load() + n.Stats.RateLimited.Load() + n.Stats.DestSilent.Load()
	if acc != sent {
		t.Fatalf("accounting mismatch: %d classified vs %d sent", acc, sent)
	}
}

func TestWriteMalformed(t *testing.T) {
	topo := testTopo(t, 64, 1)
	clock := simclock.NewVirtual(time.Unix(0, 0))
	n := New(topo, clock)
	conn := n.NewConn()
	if err := conn.WritePacket([]byte{1, 2, 3}); err == nil {
		t.Fatal("want error for short packet")
	}
	if n.Stats.MalformedSends.Load() != 1 {
		t.Fatal("malformed not counted")
	}
}

func BenchmarkResolve(b *testing.B) {
	u := NewSyntheticUniverse(1 << 16)
	topo := NewTopology(u, DefaultParams(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := i & (1<<16 - 1)
		dst := topo.U.BlockAddr(blk) | uint32(1+i%254)
		topo.Resolve(dst, uint8(1+i%32), uint32(i), 0, probe.ProtoUDP)
	}
}

func BenchmarkConnWriteRead(b *testing.B) {
	u := NewSyntheticUniverse(1 << 12)
	p := DefaultParams(1)
	// Zero RTT so responses are immediately deliverable.
	p.BaseRTT, p.PerHopRTT, p.JitterRTT = 0, 0, 0
	topo := NewTopology(u, p)
	clock := simclock.NewReal()
	n := New(topo, clock)
	conn := n.NewConn()
	var pkt [128]byte
	var buf [MaxResponseLen]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := i & (1<<12 - 1)
		dst := topo.U.BlockAddr(blk) | uint32(1+i%254)
		ln := probe.BuildFlashProbe(pkt[:], topo.Vantage(), dst, uint8(1+i%32), false, 0, 0, probe.TracerouteDstPort)
		conn.WritePacket(pkt[:ln])
		for conn.Pending() > 0 {
			if _, err := conn.ReadPacket(buf[:]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
