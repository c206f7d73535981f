package yarrp

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"github.com/flashroute/flashroute/internal/netsim"
	"github.com/flashroute/flashroute/internal/probe"
	"github.com/flashroute/flashroute/internal/probe6"
	"github.com/flashroute/flashroute/internal/simclock"
	"github.com/flashroute/flashroute/internal/trace"
)

// countReached tallies destinations that answered the scan.
func countReached[A comparable](r *ResultOf[A]) int {
	n := 0
	r.Store.ForEachRoute(func(rt *trace.RouteOf[A]) {
		if rt.Reached {
			n++
		}
	})
	return n
}

// hasReached reports whether dst answered the scan.
func hasReached[A comparable](r *ResultOf[A], dst A) bool {
	rt := r.Store.Route(dst)
	return rt != nil && rt.Reached
}

// sortedInterfaces lists the discovered IPv6 interfaces in ascending
// address order.
func sortedInterfaces(r *Result6) []probe6.Addr {
	return slices.SortedFunc(r.Store.Interfaces().All(), func(a, b probe6.Addr) int {
		return bytes.Compare(a[:], b[:])
	})
}

type env struct {
	topo      *netsim.Topology
	clock     *simclock.Virtual
	net       *netsim.Net
	cfg       Config
	probeType ProbeType
}

func newEnv(t testing.TB, blocks int, seed int64) *env {
	t.Helper()
	u := netsim.NewSyntheticUniverse(blocks)
	topo := netsim.NewTopology(u, netsim.DefaultParams(seed))
	clock := simclock.NewVirtual(time.Unix(0, 0))
	n := netsim.New(topo, clock)
	cfg := DefaultConfig()
	cfg.Blocks = blocks
	cfg.Source = topo.Vantage()
	cfg.Seed = seed
	cfg.PPS = 50_000
	cfg.Targets = func(block int) uint32 {
		z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(block)*0xd6e8feb86659fd93
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		return u.BlockAddr(block) | uint32(1+z%254)
	}
	return &env{topo: topo, clock: clock, net: n, cfg: cfg}
}

func (e *env) run(t testing.TB) (*Result, error) {
	t.Helper()
	sc, err := NewScannerOf(IPv4(e.probeType), e.cfg, e.net.NewConn(), e.clock)
	if err != nil {
		t.Fatal(err)
	}
	return sc.Run()
}

// TestYarrp32ExactProbeCount: the stateless scanner sends exactly
// blocks x 32 probes, by construction.
func TestYarrp32ExactProbeCount(t *testing.T) {
	const blocks = 512
	e := newEnv(t, blocks, 1)
	res, err := e.run(t)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProbesSent != blocks*32 {
		t.Fatalf("probes=%d want %d", res.ProbesSent, blocks*32)
	}
	if res.Store.Interfaces().Len() == 0 {
		t.Fatal("no interfaces")
	}
	t.Logf("yarrp-32 TCP: %d probes, %d interfaces", res.ProbesSent, res.Store.Interfaces().Len())
}

// TestYarrp16FillModeFindsFewerInterfaces reproduces §4.2.1: Yarrp-16's
// fill mode, with its inherent gap limit of one, discovers substantially
// fewer interfaces than Yarrp-32 while not saving proportionally.
func TestYarrp16FillModeFindsFewerInterfaces(t *testing.T) {
	const blocks = 8192
	full := newEnv(t, blocks, 2)
	resFull, err := full.run(t)
	if err != nil {
		t.Fatal(err)
	}

	fill := newEnv(t, blocks, 2)
	fill.cfg.MaxTTL = 16
	fill.cfg.FillMode = true
	fill.cfg.FillMax = 32
	resFill, err := fill.run(t)
	if err != nil {
		t.Fatal(err)
	}

	i32, i16 := resFull.Store.Interfaces().Len(), resFill.Store.Interfaces().Len()
	if i16 >= i32 {
		t.Fatalf("fill mode should find fewer interfaces: 16=%d 32=%d", i16, i32)
	}
	// The paper reports Yarrp-16 finding less than half of Yarrp-32's
	// interfaces at full Internet scale; the deficit shrinks on small
	// universes (infrastructure is a larger share), so require < 88%
	// here and leave the headline ratio to the Table 3 experiment.
	if float64(i16) > 0.88*float64(i32) {
		t.Errorf("fill mode found too many interfaces: 16=%d 32=%d (want < 88%%)", i16, i32)
	}
	if resFill.FillProbes == 0 {
		t.Fatal("fill mode sent no fill probes")
	}
	t.Logf("yarrp-32: %d ifaces; yarrp-16: %d ifaces (%.0f%%), %d fill probes",
		i32, i16, 100*float64(i16)/float64(i32), resFill.FillProbes)
}

// TestYarrpUDPFailsOnLongScans reproduces footnote 2 of §4.2.1: the UDP
// encoding outgrows the MTU and the scan aborts with "message too long".
func TestYarrpUDPFailsOnLongScans(t *testing.T) {
	const blocks = 8192
	e := newEnv(t, blocks, 3)
	e.probeType = UDP
	e.cfg.PPS = 100 // slow scan -> large elapsed encoding -> overflow
	sc, err := NewScannerOf(IPv4(e.probeType), e.cfg, e.net.NewConn(), e.clock)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sc.Run()
	if err != probe.ErrMessageTooLong {
		t.Fatalf("want ErrMessageTooLong, got %v", err)
	}
}

// TestYarrpUDPShortScanFindsMore: over a short scan (no overflow), UDP
// probes elicit strictly more destination responses than TCP-ACK
// (§4.2.1 / [16]); total interface counts are compared on the count of
// reached destinations, which is the signal the probe type controls.
func TestYarrpUDPShortScanFindsMore(t *testing.T) {
	const blocks = 8192
	tcp := newEnv(t, blocks, 4)
	resTCP, err := tcp.run(t)
	if err != nil {
		t.Fatal(err)
	}
	udp := newEnv(t, blocks, 4)
	udp.probeType = UDP
	resUDP, err := udp.run(t)
	if err != nil {
		t.Fatal(err)
	}
	ru, rt := countReached(resUDP), countReached(resTCP)
	if ru <= rt {
		t.Fatalf("UDP should reach more destinations: udp=%d tcp=%d", ru, rt)
	}
	t.Logf("reached destinations: udp=%d tcp=%d; interfaces udp=%d tcp=%d",
		ru, rt, resUDP.Store.Interfaces().Len(), resTCP.Store.Interfaces().Len())
}

// TestNeighborhoodProtection reproduces the §4.2.1 experiment: k-hop
// protection reduces probes at the cost of missing neighborhood
// interfaces.
func TestNeighborhoodProtection(t *testing.T) {
	const blocks = 4096
	base := newEnv(t, blocks, 5)
	base.cfg.PPS = 10_000 // lengthen the scan so the timeout can engage
	resBase, err := base.run(t)
	if err != nil {
		t.Fatal(err)
	}

	prot := newEnv(t, blocks, 5)
	prot.cfg.PPS = 10_000
	prot.cfg.NeighborhoodLimit = 6
	prot.cfg.NeighborhoodTimeout = 2 * time.Second
	resProt, err := prot.run(t)
	if err != nil {
		t.Fatal(err)
	}

	if resProt.SkippedByProtection == 0 {
		t.Fatal("protection never engaged")
	}
	if resProt.ProbesSent >= resBase.ProbesSent {
		t.Fatalf("protection should reduce probes: base=%d prot=%d",
			resBase.ProbesSent, resProt.ProbesSent)
	}
	ib, ip := resBase.Store.Interfaces().Len(), resProt.Store.Interfaces().Len()
	if ip > ib {
		t.Fatalf("protection cannot find more interfaces: base=%d prot=%d", ib, ip)
	}
	t.Logf("base: %d probes/%d ifaces; 6-hop protection: %d probes (%d skipped)/%d ifaces",
		resBase.ProbesSent, ib, resProt.ProbesSent, resProt.SkippedByProtection, ip)
}

func TestYarrpConfigValidation(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	bad := []Config{
		{},
		func() Config {
			c := DefaultConfig()
			c.Blocks = 10
			c.Targets = func(int) uint32 { return 1 }
			c.MinTTL = 20
			c.MaxTTL = 10
			return c
		}(),
		func() Config {
			c := DefaultConfig()
			c.Blocks = 10
			c.Targets = func(int) uint32 { return 1 }
			c.MaxTTL = 16
			c.FillMode = true
			c.FillMax = 8
			return c
		}(),
	}
	for i, cfg := range bad {
		if _, err := NewScannerOf(IPv4(TCPAck), cfg, nil, clock); err == nil {
			t.Fatalf("config %d should be rejected", i)
		}
	}
}
