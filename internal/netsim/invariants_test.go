package netsim

import (
	"testing"
	"time"

	"github.com/flashroute/flashroute/internal/probe"
	"github.com/flashroute/flashroute/internal/simclock"
)

// TestResolveDistanceConsistency is the central topology invariant: for
// any in-universe destination, walking TTLs 1..32 must terminate exactly
// where DistanceNow says the destination lives — no probe may reach the
// destination earlier, and the first terminal TTL must equal the
// distance (excluding TTL-resetting middlebox stubs, which exist to break
// exactly this).
func TestResolveDistanceConsistency(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 99} {
		topo := testTopo(t, 8192, seed)
		for blk := 0; blk < 8192; blk += 7 {
			s := &topo.stubs[topo.blockStub[blk]]
			if s.midReset {
				continue
			}
			for _, oct := range []uint32{1, 77, 252} {
				dst := topo.U.BlockAddr(blk) | oct
				d := topo.DistanceNow(dst, 0)
				if d == 0 {
					continue
				}
				if !topo.HostExists(dst) {
					continue
				}
				firstTerminal := uint8(0)
				for ttl := uint8(1); ttl <= 32; ttl++ {
					h := topo.Resolve(dst, ttl, 3, 0, probe.ProtoUDP)
					if h.Kind.Terminal() {
						if firstTerminal == 0 {
							firstTerminal = ttl
						}
					} else if firstTerminal != 0 {
						t.Fatalf("seed=%d blk=%d oct=%d: non-terminal at ttl %d after terminal at %d",
							seed, blk, oct, ttl, firstTerminal)
					}
				}
				if firstTerminal != d {
					t.Fatalf("seed=%d blk=%d oct=%d: first terminal at %d, DistanceNow says %d",
						seed, blk, oct, firstTerminal, d)
				}
			}
		}
	}
}

// TestResolveResidualInvariant: for every destination response, initial
// TTL minus residual plus one must equal the destination's distance
// (again excluding reset middleboxes).
func TestResolveResidualInvariant(t *testing.T) {
	topo := testTopo(t, 8192, 11)
	checked := 0
	for blk := 0; blk < 8192; blk++ {
		s := &topo.stubs[topo.blockStub[blk]]
		if s.midReset || s.midRewrite {
			continue
		}
		dst := topo.U.BlockAddr(blk) | 1
		d := topo.DistanceNow(dst, 0)
		if d == 0 || !topo.HostExists(dst) {
			continue
		}
		for ttl := d; ttl <= 32; ttl += 5 {
			h := topo.Resolve(dst, ttl, 1, 0, probe.ProtoUDP)
			if !h.Kind.Terminal() {
				t.Fatalf("blk=%d ttl=%d: not terminal beyond distance %d", blk, ttl, d)
			}
			if got := ttl - h.Residual + 1; got != d {
				t.Fatalf("blk=%d ttl=%d: residual %d implies distance %d, want %d",
					blk, ttl, h.Residual, got, d)
			}
		}
		checked++
	}
	if checked < 300 {
		t.Fatalf("checked only %d gateways", checked)
	}
}

// TestQuotedDstAlwaysSameBlock: even rewritten destinations stay within
// the probed /24 (the rewrite flips the low host-octet bit only), so
// BlockOf-based attribution can never cross blocks.
func TestQuotedDstAlwaysSameBlock(t *testing.T) {
	topo := testTopo(t, 32768, 5)
	for blk := 0; blk < 32768; blk += 3 {
		dst := topo.U.BlockAddr(blk) | 130
		for _, ttl := range []uint8{8, 16, 24, 32} {
			h := topo.Resolve(dst, ttl, 7, 0, probe.ProtoUDP)
			if h.QuotedDst == 0 {
				continue
			}
			if h.QuotedDst>>8 != dst>>8 {
				t.Fatalf("blk=%d: quoted dst %#x left the block of %#x", blk, h.QuotedDst, dst)
			}
		}
	}
}

// TestRouterAtMatchesResolve: the Table 4 reference mapper must agree
// with direct resolution under the default flow.
func TestRouterAtMatchesResolve(t *testing.T) {
	topo := testTopo(t, 4096, 8)
	for blk := 0; blk < 4096; blk += 5 {
		dst := topo.U.BlockAddr(blk) | 9
		for ttl := uint8(1); ttl <= 20; ttl += 3 {
			addr, ok := topo.RouterAt(dst, ttl, 0)
			if ok && addr == 0 {
				t.Fatal("RouterAt returned ok with zero addr")
			}
			if ok {
				flow := flowHash(topo.Vantage(), dst, addrChecksumPort(dst), 33434, 17)
				h := topo.Resolve(dst, ttl, flow, 0, probe.ProtoUDP)
				if h.Kind != HopRouter || h.Addr != addr {
					t.Fatalf("RouterAt %#x disagrees with Resolve %+v", addr, h)
				}
			}
		}
	}
}

// TestRateLimitRecoversNextSecond: suppression in one window must not
// leak into the next (fixed-window semantics of the Table 4 model).
func TestRateLimitRecoversNextSecond(t *testing.T) {
	u := NewSyntheticUniverse(16)
	p := DefaultParams(1)
	p.ICMPRateLimitPPS = 3
	topo := NewTopology(u, p)
	n := New(topo, simclock.NewVirtual(time.Unix(0, 0)))
	addr := topo.core[0]
	for sec := 0; sec < 5; sec++ {
		allowed := 0
		for i := 0; i < 10; i++ {
			if n.AllowICMP(addr, time.Duration(sec)*time.Second+time.Millisecond) {
				allowed++
			}
		}
		if allowed != 3 {
			t.Fatalf("second %d: allowed=%d", sec, allowed)
		}
	}
}
