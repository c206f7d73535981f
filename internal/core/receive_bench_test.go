package core

import (
	"testing"

	"github.com/flashroute/flashroute/internal/probe"
)

// buildTTLExceeded builds one valid TTL-exceeded response: hop answering a
// probe from src to dst sent with the given initial TTL.
func buildTTLExceeded(src, dst, hop uint32, initTTL uint8) []byte {
	var pbuf [128]byte
	n := probe.BuildFlashProbe(pbuf[:], src, dst, initTTL, false, 0, 0, probe.TracerouteDstPort)
	var quoted probe.IPv4
	if err := quoted.Unmarshal(pbuf[:n]); err != nil {
		panic(err)
	}
	quoted.TTL = 1
	tp := make([]byte, 8)
	copy(tp, pbuf[probe.IPv4HeaderLen:probe.IPv4HeaderLen+8])
	pkt := make([]byte, probe.IPv4HeaderLen+probe.ICMPErrorLen)
	outer := probe.IPv4{
		TotalLength: uint16(len(pkt)),
		TTL:         64,
		Protocol:    probe.ProtoICMP,
		Src:         hop,
		Dst:         src,
	}
	outer.Marshal(pkt)
	probe.MarshalICMPError(pkt[probe.IPv4HeaderLen:], probe.ICMPTypeTimeExceeded, 0, &quoted, tp)
	return pkt
}

// benchResponseSet builds a cycle of distinct valid responses — every
// block of the env answered at TTLs 1..8 — plus the scanner to feed them
// to.
func benchResponseSet(t testing.TB, blocks int) (*Scanner, [][]byte) {
	t.Helper()
	e := newEnv(t, blocks, 1)
	sc, err := NewScanner(e.cfg, e.net.NewConn(), e.clock)
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([][]byte, 0, blocks*8)
	for block := 0; block < blocks; block++ {
		dst := e.cfg.Targets(block)
		for ttl := uint8(1); ttl <= 8; ttl++ {
			hop := 0xC8000000 | uint32(block)<<8 | uint32(ttl)
			pkts = append(pkts, buildTTLExceeded(e.cfg.Source, dst, hop, ttl))
		}
	}
	return sc, pkts
}

// BenchmarkHandleResponse measures the full single-receiver response path:
// parse, duplicate guard, stop-set lookup and insert, strategy update, and
// store write. The per-DCB duplicate guard is reset each pass so every
// iteration takes the full path rather than the short dup exit. Steady
// state must not allocate — maps are pre-sized and warmed by the first
// pass, parsing stays on the stack.
func BenchmarkHandleResponse(b *testing.B) {
	sc, pkts := benchResponseSet(b, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(pkts)
		if k == 0 {
			for j := range sc.dcbs {
				sc.dcbs[j].respSeen = 0
			}
		}
		sc.handleResponse(pkts[k], 0)
	}
}

// TestReceiverHandleResponseNoAllocs pins the zero-allocation steady
// state of the receive hot path: once the first pass has populated the
// route and interface maps, re-processing the whole response set (with
// the duplicate guard cleared) must not allocate at all.
func TestReceiverHandleResponseNoAllocs(t *testing.T) {
	sc, pkts := benchResponseSet(t, 64)
	// Warm: populate the store's maps and the stop set.
	for _, p := range pkts {
		sc.handleResponse(p, 0)
	}
	avg := testing.AllocsPerRun(10, func() {
		for j := range sc.dcbs {
			sc.dcbs[j].respSeen = 0
		}
		for _, p := range pkts {
			sc.handleResponse(p, 0)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state receive path allocates: %.1f allocs per %d responses", avg, len(pkts))
	}
}
