package core6

import (
	"bytes"
	"io"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/flashroute/flashroute/internal/core"
	"github.com/flashroute/flashroute/internal/netsim6"
	"github.com/flashroute/flashroute/internal/probe6"
	"github.com/flashroute/flashroute/internal/simclock"
	"github.com/flashroute/flashroute/internal/trace"
)

type env struct {
	topo    *netsim6.Topology
	clock   *simclock.Virtual
	net     *netsim6.Net
	targets []probe6.Addr
	cfg     core.ConfigOf[probe6.Addr]
}

// result wraps the engine's IPv6 result with the read helpers the tests
// share.
type result struct{ *core.ResultOf[probe6.Addr] }

func (r result) InterfaceCount() int { return r.Store.Interfaces().Len() }

// Interfaces returns the discovered router interfaces in ascending
// address order.
func (r result) Interfaces() []probe6.Addr {
	set := r.Store.Interfaces()
	out := make([]probe6.Addr, 0, set.Len())
	for a := range set.All() {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i][:], out[j][:]) < 0
	})
	return out
}

func (r result) Route(a probe6.Addr) *trace.RouteOf[probe6.Addr] { return r.Store.Route(a) }

func (r result) ReachedCount() int {
	n := 0
	r.Store.ForEachRoute(func(rt *trace.RouteOf[probe6.Addr]) {
		if rt.Reached {
			n++
		}
	})
	return n
}

// runScanner runs sc to completion.
func runScanner(t testing.TB, sc *core.ScannerOf[probe6.Addr], err error) result {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	return result{res}
}

func newEnv(t testing.TB, prefixes, perPrefix int, seed int64) *env {
	t.Helper()
	p := netsim6.DefaultParams(seed)
	p.Prefixes = prefixes
	p.TargetsPerPrefix = perPrefix
	topo := netsim6.NewTopology(p)
	clock := simclock.NewVirtual(time.Unix(0, 0))
	n := netsim6.New(topo, clock)
	targets := topo.Targets()
	cfg := DefaultConfig(targets)
	cfg.Source = topo.Vantage()
	cfg.Seed = seed
	cfg.PPS = 50_000
	return &env{topo: topo, clock: clock, net: n, targets: targets, cfg: cfg}
}

func (e *env) run(t testing.TB) result {
	t.Helper()
	sc, err := core.NewScannerOf(Family(), e.cfg, e.net.NewConn(), e.clock)
	return runScanner(t, sc, err)
}

func TestScan6Completes(t *testing.T) {
	e := newEnv(t, 128, 8, 1)
	res := e.run(t)
	if res.ProbesSent == 0 || res.InterfaceCount() == 0 {
		t.Fatalf("empty scan: %d probes %d ifaces", res.ProbesSent, res.InterfaceCount())
	}
	if res.ReachedCount() == 0 {
		t.Fatal("no targets reached")
	}
	// Candidate lists are pre-filtered; most targets should answer.
	frac := float64(res.ReachedCount()) / float64(len(e.targets))
	if frac < 0.3 {
		t.Fatalf("reached fraction %.2f too low for a candidate list", frac)
	}
	t.Logf("ipv6: %d targets, %d probes, %d ifaces, %d reached, %v",
		len(e.targets), res.ProbesSent, res.InterfaceCount(), res.ReachedCount(), res.ScanTime)
}

// TestPreprobe6MeasuresDistances: the one-probe distance measurement must
// carry over to IPv6 and match ground truth.
func TestPreprobe6MeasuresDistances(t *testing.T) {
	e := newEnv(t, 256, 8, 2)
	res := e.run(t)
	if res.DistancesMeasured == 0 {
		t.Fatal("no distances measured")
	}
	if res.DistancesPredicted == 0 {
		t.Fatal("same-prefix prediction produced nothing")
	}
	t.Logf("measured=%d predicted=%d of %d targets",
		res.DistancesMeasured, res.DistancesPredicted, len(e.targets))
}

// TestRedundancyElimination6: the stop set must save probes in IPv6 too.
func TestRedundancyElimination6(t *testing.T) {
	on := newEnv(t, 256, 8, 3)
	resOn := on.run(t)

	off := newEnv(t, 256, 8, 3)
	off.cfg.NoRedundancyElimination = true
	resOff := off.run(t)

	if resOff.ProbesSent < resOn.ProbesSent*3/2 {
		t.Fatalf("elimination saved too little: on=%d off=%d", resOn.ProbesSent, resOff.ProbesSent)
	}
	if float64(resOn.InterfaceCount()) < 0.9*float64(resOff.InterfaceCount()) {
		t.Fatalf("elimination lost interfaces: %d vs %d",
			resOn.InterfaceCount(), resOff.InterfaceCount())
	}
	t.Logf("on: %d probes/%d ifaces; off: %d probes/%d ifaces",
		resOn.ProbesSent, resOn.InterfaceCount(), resOff.ProbesSent, resOff.InterfaceCount())
}

// TestRoutes6AreCoherent: collected routes match the simulator's ground
// truth distances.
func TestRoutes6AreCoherent(t *testing.T) {
	e := newEnv(t, 128, 4, 4)
	e.cfg.CollectRoutes = true
	res := e.run(t)
	checked := 0
	for _, dst := range e.targets {
		r := res.Route(dst)
		if r == nil || !r.Reached {
			continue
		}
		truth := e.topo.DistanceNow(dst)
		if truth == 0 {
			continue
		}
		if r.Length != truth {
			t.Fatalf("route length %d != ground truth %d for %s", r.Length, truth, dst)
		}
		for _, h := range r.Hops {
			if h.TTL > r.Length {
				t.Fatalf("hop beyond route end: %+v", h)
			}
		}
		checked++
	}
	if checked < 50 {
		t.Fatalf("too few routes checked: %d", checked)
	}
}

func TestScanner6Validation(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	if _, err := core.NewScannerOf(Family(), DefaultConfig(nil), nil, clock); err == nil {
		t.Fatal("empty targets accepted")
	}
	cfg := DefaultConfig([]probe6.Addr{{0x20}})
	cfg.SplitTTL = 99
	if _, err := core.NewScannerOf(Family(), cfg, nil, clock); err == nil {
		t.Fatal("bad split accepted")
	}
}

// stubConn serves a fixed set of response packets, then EOF; writes are
// discarded. It lets tests inject hand-crafted responses into a full
// scanner run.
type stubConn struct {
	mu   sync.Mutex
	pkts [][]byte
}

func (c *stubConn) WritePacket(p []byte) error { return nil }

func (c *stubConn) ReadPacket(buf []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pkts) == 0 {
		return 0, io.EOF
	}
	p := c.pkts[0]
	c.pkts = c.pkts[1:]
	return copy(buf, p), nil
}

func (c *stubConn) Close() error { return nil }

func TestSparseIndexIgnoresForeignResponses(t *testing.T) {
	// A response quoting a destination outside the target list must be
	// dropped, not crash or misattribute.
	e := newEnv(t, 8, 4, 5)
	e.cfg.Preprobe = core.PreprobeOff // probe into the void; only the injected reply arrives
	var foreign probe6.Addr
	foreign[0] = 0xfd
	var pkt [probe6.HeaderLen + probe6.ICMPErrorLen]byte
	quote := probe6.Header{NextHeader: probe6.ProtoUDP, HopLimit: 3, Dst: foreign}
	outer := probe6.Header{
		PayloadLength: probe6.ICMPErrorLen,
		NextHeader:    probe6.ProtoICMPv6,
		HopLimit:      64,
		Src:           foreign,
		Dst:           e.topo.Vantage(),
	}
	outer.Marshal(pkt[:])
	var tp [8]byte
	// Source port must satisfy the checksum test for the lookup to even
	// be attempted.
	cs := probe6.AddrChecksum(foreign)
	tp[0], tp[1] = byte(cs>>8), byte(cs)
	tp[4], tp[5] = 0, probe6.UDPHeaderLen
	probe6.MarshalICMPError(pkt[probe6.HeaderLen:], probe6.ICMP6TypeTimeExceeded,
		probe6.ICMP6CodeHopLimit, &quote, tp[:])
	sc, err := core.NewScannerOf(Family(), e.cfg, &stubConn{pkts: [][]byte{pkt[:]}}, e.clock)
	res := runScanner(t, sc, err)
	if res.UnparsedResponses != 1 {
		t.Fatalf("foreign response not dropped: unparsed=%d", res.UnparsedResponses)
	}
	if res.InterfaceCount() != 0 {
		t.Fatalf("foreign response misattributed: %d interfaces", res.InterfaceCount())
	}
}
