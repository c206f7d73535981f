// Package core6 implements FlashRoute6 — the IPv6 extension of FlashRoute
// the paper plans in §5.4.
//
// The probing engine is the generic internal/core engine instantiated at
// the 16-byte IPv6 address type: rounds, sharded multi-sender probing,
// pacing, Doubletree stop-set termination, the forward gap limit,
// duplicate-reply dedup, and the loss-tolerance retries all come from the
// shared implementation. This package contributes only what §5.4 says
// must differ:
//
//   - the control state is indexed by *candidate-list position* — IPv6
//     targets are sparse lists, not a dense prefix lattice — with the
//     receiving thread locating DCBs through a hash index keyed by
//     address (one map lookup, the price of 2^128 sparsity);
//   - proximity-span prediction does not carry over: numerically adjacent
//     IPv6 candidates share nothing. Instead, measured distances of
//     targets within the same /48 predict their list-mates' distances
//     (same-prefix prediction), supplied to the engine as a Predict hook;
//   - the IPv6 wire formats (internal/probe6) behind the engine's Family
//     interface.
package core6

import (
	"bytes"
	"time"

	"github.com/flashroute/flashroute/internal/core"
	"github.com/flashroute/flashroute/internal/probe6"
)

// DefaultConfig returns the FlashRoute6 engine configuration over a
// candidate list (Yarrp6-style): list position is the block index,
// recovered from quoted destinations through a hash index; random
// preprobing with same-/48 prediction as the Predict hook; split hop
// limit 16, gap limit 5, 100 Kpps. The list is captured, so set it here
// rather than through Blocks/Targets. Callers set Source and Seed, and
// may set Predict to nil (no prediction) or Preprobe to core.PreprobeOff.
// Run it with core.NewScannerOf(Family(), ...) or core.Resume.
func DefaultConfig(targets []probe6.Addr) core.ConfigOf[probe6.Addr] {
	index := make(map[probe6.Addr]uint32, len(targets))
	for i, a := range targets {
		index[a] = uint32(i)
	}
	return core.ConfigOf[probe6.Addr]{
		Blocks:  len(targets),
		Targets: func(block int) probe6.Addr { return targets[block] },
		BlockOf: func(a probe6.Addr) (int, bool) {
			i, ok := index[a]
			return int(i), ok
		},
		SplitTTL:     16,
		GapLimit:     5,
		MaxTTL:       probe6.MaxHopLimit,
		PPS:          100_000,
		Preprobe:     core.PreprobeRandom,
		Predict:      samePrefixPredict(targets),
		DrainWait:    2 * time.Second,
		MinRoundTime: time.Second,
	}
}

// Family returns the probe6.Addr wire family for the generic engine.
func Family() core.Family[probe6.Addr] { return family6{} }

// family6 supplies the IPv6 wire formats and bounds to the generic
// engine.
type family6 struct{}

func (family6) MaxTTL() uint8    { return probe6.MaxHopLimit }
func (family6) PermSalt() uint64 { return 0x6b7a5c3d }

func (family6) BuildProbe(buf []byte, src, dst probe6.Addr, ttl uint8, preprobe bool,
	elapsed time.Duration, srcPortOffset uint16) int {
	return probe6.BuildProbe(buf, src, dst, ttl, preprobe, elapsed,
		srcPortOffset, probe6.TracerouteDstPort)
}

func (family6) ParseReply(pkt []byte, scanOffset uint16, now time.Duration) core.Reply[probe6.Addr] {
	resp, err := probe6.ParseResponse(pkt)
	if err != nil {
		return core.Reply[probe6.Addr]{Kind: core.ReplyUnparsed}
	}
	fi, err := probe6.ParseQuote(&resp.ICMP)
	if err != nil {
		return core.Reply[probe6.Addr]{Kind: core.ReplyUnparsed}
	}
	if !fi.ChecksumMatches(scanOffset) {
		return core.Reply[probe6.Addr]{Kind: core.ReplyMismatch}
	}
	r := core.Reply[probe6.Addr]{
		Dst:      fi.Dst,
		Hop:      resp.Hop,
		InitTTL:  fi.InitHopLimit,
		Preprobe: fi.Preprobe,
		RTT:      fi.RTT(now),
	}
	switch {
	case resp.ICMP.IsHopLimitExceeded():
		r.Kind = core.ReplyTTLExceeded
	case resp.ICMP.IsUnreachable():
		r.Kind = core.ReplyUnreachable
		r.Dist = distance6(fi)
	default:
		r.Kind = core.ReplyOther
	}
	return r
}

func (family6) FormatAddr(a probe6.Addr) string { return a.String() }
func (family6) AddrLess(a, b probe6.Addr) bool  { return bytes.Compare(a[:], b[:]) < 0 }

func (family6) HashAddr(a probe6.Addr) uint64 {
	// Fold the 16 address bytes into two big-endian words, combine, and
	// run the splitmix64 finalizer for avalanche across the shard pick.
	var hi, lo uint64
	for i := 0; i < 8; i++ {
		hi = hi<<8 | uint64(a[i])
		lo = lo<<8 | uint64(a[8+i])
	}
	z := (hi ^ lo) * 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	return z ^ (z >> 31)
}

func (family6) AddrSize() int { return 16 }

func (family6) PutAddr(b []byte, a probe6.Addr) { copy(b, a[:]) }

func (family6) GetAddr(b []byte) probe6.Addr {
	var a probe6.Addr
	copy(a[:], b)
	return a
}

// distance6 recovers the target's hop distance from a
// destination-unreachable response.
func distance6(fi probe6.Info) uint8 {
	d := int(fi.InitHopLimit) - int(fi.ResidualHopLimit) + 1
	if d < 1 {
		return 1
	}
	if d > probe6.MaxHopLimit {
		return probe6.MaxHopLimit
	}
	return uint8(d)
}

// samePrefixPredict builds the engine Predict hook implementing §5.4's
// same-/48 prediction: the measured distance of any target in a /48
// predicts its unmeasured list-mates (ascending list order, last
// measurement wins — matching the pre-unification scanner).
func samePrefixPredict(targets []probe6.Addr) func(measured, predicted []uint8) {
	return func(measured, predicted []uint8) {
		prefixDist := make(map[[6]byte]uint8)
		for i := range targets {
			if m := measured[i]; m != 0 {
				var key [6]byte
				copy(key[:], targets[i][:6])
				prefixDist[key] = m
			}
		}
		for i := range targets {
			if measured[i] != 0 {
				continue
			}
			var key [6]byte
			copy(key[:], targets[i][:6])
			if p, ok := prefixDist[key]; ok {
				predicted[i] = p
			}
		}
	}
}
