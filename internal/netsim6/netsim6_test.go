package netsim6

import (
	"io"
	"testing"
	"time"

	"github.com/flashroute/flashroute/internal/probe6"
	"github.com/flashroute/flashroute/internal/simclock"
)

func topo(t testing.TB, prefixes, perPrefix int, seed int64) *Topology {
	t.Helper()
	p := DefaultParams(seed)
	p.Prefixes = prefixes
	p.TargetsPerPrefix = perPrefix
	return NewTopology(p)
}

func TestTargetListShape(t *testing.T) {
	tp := topo(t, 64, 8, 1)
	targets := tp.Targets()
	if len(targets) != 64*8 {
		t.Fatalf("targets=%d", len(targets))
	}
	seen := map[probe6.Addr]bool{}
	for _, a := range targets {
		if seen[a] {
			t.Fatalf("duplicate target %s", a)
		}
		seen[a] = true
		if a[0] != 0x20 || a[1] != 0x01 || a[2] != 0x0d || a[3] != 0xb8 {
			t.Fatalf("target outside 2001:db8::/32: %s", a)
		}
	}
}

func TestRouteStructure6(t *testing.T) {
	tp := topo(t, 256, 4, 2)
	checked := 0
	for _, dst := range tp.Targets() {
		d := tp.DistanceNow(dst)
		if d == 0 || !tp.HostResponds(dst) {
			continue
		}
		for hl := uint8(1); hl < d; hl++ {
			h := tp.Resolve(dst, hl)
			if h.Kind != HopRouter && h.Kind != HopSilentRouter {
				t.Fatalf("hl=%d dist=%d: want router, got %+v", hl, d, h)
			}
		}
		for _, hl := range []uint8{d, 32} {
			h := tp.Resolve(dst, hl)
			if h.Kind != HopDest {
				t.Fatalf("hl=%d dist=%d: want dest, got %+v", hl, d, h)
			}
			if got := hl - h.Residual + 1; got != d {
				t.Fatalf("residual arithmetic: hl=%d residual=%d dist=%d", hl, h.Residual, d)
			}
		}
		checked++
		if checked > 200 {
			break
		}
	}
	if checked < 50 {
		t.Fatalf("checked only %d live targets", checked)
	}
}

func TestGatewayAlwaysResponds(t *testing.T) {
	tp := topo(t, 64, 2, 3)
	for i := 0; i < 64; i++ {
		gw := tp.prefixes[i].gateway
		if !tp.HostResponds(gw) {
			t.Fatalf("gateway %s must respond", gw)
		}
		h := tp.Resolve(gw, 32)
		if h.Kind != HopDest {
			t.Fatalf("gateway probe: %+v", h)
		}
	}
}

func TestUnknownPrefixSilent(t *testing.T) {
	tp := topo(t, 8, 2, 4)
	var foreign probe6.Addr
	foreign[0] = 0xfd
	if h := tp.Resolve(foreign, 16); h.Kind != HopNone {
		t.Fatalf("foreign prefix should be unrouted, got %+v", h)
	}
	if tp.DistanceNow(foreign) != 0 {
		t.Fatal("foreign distance should be 0")
	}
}

func TestConn6EndToEnd(t *testing.T) {
	tp := topo(t, 64, 4, 5)
	clock := simclock.NewVirtual(time.Unix(0, 0))
	n := New(tp, clock)
	conn := n.NewConn()

	dst := tp.prefixes[0].gateway
	dist := tp.DistanceNow(dst)

	var pkt [128]byte
	ln := probe6.BuildProbe(pkt[:], tp.Vantage(), dst, 32, true, 0, 0, probe6.TracerouteDstPort)

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
	resp, err := probe6.ParseResponse(buf[:rn])
	if err != nil {
		t.Fatal(err)
	}
	if !resp.ICMP.IsUnreachable() || resp.Hop != dst {
		t.Fatalf("response %+v", resp)
	}
	fi, err := probe6.ParseQuote(&resp.ICMP)
	if err != nil {
		t.Fatal(err)
	}
	if got := uint8(32) - fi.ResidualHopLimit + 1; got != dist {
		t.Fatalf("measured %d want %d", got, dist)
	}
	conn.Close()
	if _, err := conn.ReadPacket(buf[:]); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestRateLimit6(t *testing.T) {
	p := DefaultParams(6)
	p.Prefixes, p.TargetsPerPrefix = 8, 2
	p.ICMPRateLimitPPS = 5
	tp := NewTopology(p)
	clock := simclock.NewVirtual(time.Unix(0, 0))
	n := New(tp, clock)
	allowed := 0
	for i := 0; i < 12; i++ {
		if n.AllowICMP(tp.core[0], 0) {
			allowed++
		}
	}
	if allowed != 5 {
		t.Fatalf("allowed=%d want 5", allowed)
	}
	if !n.AllowICMP(tp.core[0], time.Second) {
		t.Fatal("budget should refresh")
	}
}

func TestWriteMalformed6(t *testing.T) {
	tp := topo(t, 8, 2, 7)
	clock := simclock.NewVirtual(time.Unix(0, 0))
	n := New(tp, clock)
	conn := n.NewConn()
	if err := conn.WritePacket([]byte{6 << 4}); err == nil {
		t.Fatal("short packet accepted")
	}
	if got := n.Stats.MalformedSends.Load(); got != 1 {
		t.Fatalf("MalformedSends = %d, want 1", got)
	}
}

// TestConn6Accounting: probes to silent destinations are not silent hops,
// and over an unimpaired write of every target at hop limits 1..16 each
// probe is answered, silent at a router, silent at its destination,
// unrouted or rate-limited — the identity TestConnDecoupledSenderReceiver
// checks for IPv4.
func TestConn6Accounting(t *testing.T) {
	tp := topo(t, 64, 4, 8)
	n := New(tp, simclock.NewVirtual(time.Unix(0, 0)))
	conn := n.NewConn()
	var pkt [128]byte
	write := func(dst probe6.Addr, hl uint8) {
		ln := probe6.BuildProbe(pkt[:], tp.Vantage(), dst, hl, true, 0, 0, probe6.TracerouteDstPort)
		if err := conn.WritePacket(pkt[:ln]); err != nil {
			t.Fatal(err)
		}
	}

	silent := 0
	for _, dst := range tp.Targets() {
		if !tp.HostResponds(dst) {
			write(dst, 32)
			silent++
		}
	}
	if silent == 0 {
		t.Fatal("no silent candidate targets")
	}
	if got := n.Stats.SilentHops.Load(); got != 0 {
		t.Fatalf("SilentHops = %d after probing only silent destinations, want 0", got)
	}

	for _, dst := range tp.Targets() {
		for hl := uint8(1); hl <= 16; hl++ {
			write(dst, hl)
		}
	}
	st := &n.Stats
	if st.SilentHops.Load() == 0 || st.Responses.Load() == 0 {
		t.Fatalf("degenerate run: %d silent hops, %d responses", st.SilentHops.Load(), st.Responses.Load())
	}
	acc := st.Responses.Load() + st.SilentHops.Load() + st.DestSilent.Load() +
		st.NoRoute.Load() + st.RateLimited.Load()
	if sent := st.ProbesSent.Load(); acc != sent {
		t.Fatalf("accounting mismatch: %d classified vs %d sent", acc, sent)
	}
}
