package simnet

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/flashroute/flashroute/internal/simclock"
)

// TestImpairStateLossRate: the independent-loss draw must track LossProb
// closely over a long stream (binomial stddev ≈ 0.13% at n=100k).
func TestImpairStateLossRate(t *testing.T) {
	im := &Impairments{LossProb: 0.20}
	st := NewImpairState(42)
	const n = 100_000
	lost := 0
	for i := 0; i < n; i++ {
		if st.step(im) {
			lost++
		}
	}
	rate := float64(lost) / n
	if rate < 0.19 || rate > 0.21 {
		t.Errorf("loss rate %.4f, want ≈ 0.20", rate)
	}
}

// TestImpairStateGEBursts: with loss exactly in the bad state, the chain's
// stationary loss fraction must be p/(p+r) and the mean run of consecutive
// losses ≈ 1/r — the burstiness independent loss cannot produce.
func TestImpairStateGEBursts(t *testing.T) {
	im := &Impairments{GEGoodToBad: 0.02, GEBadToGood: 0.25, GEBadLoss: 1}
	st := NewImpairState(7)
	const n = 200_000
	lost, bursts, run := 0, 0, 0
	var runs []int
	for i := 0; i < n; i++ {
		if st.step(im) {
			lost++
			run++
		} else if run > 0 {
			bursts++
			runs = append(runs, run)
			run = 0
		}
	}
	frac := float64(lost) / n
	want := 0.02 / (0.02 + 0.25) // ≈ 0.074
	if frac < want-0.02 || frac > want+0.02 {
		t.Errorf("stationary loss fraction %.4f, want ≈ %.4f", frac, want)
	}
	var sum int
	for _, r := range runs {
		sum += r
	}
	mean := float64(sum) / float64(bursts)
	if mean < 3.0 || mean > 5.0 {
		t.Errorf("mean burst length %.2f, want ≈ 4 (1/GEBadToGood)", mean)
	}
}

// TestImpairStateDeterminism: equal seeds produce identical fate streams.
func TestImpairStateDeterminism(t *testing.T) {
	im := &Impairments{
		LossProb: 0.1, GEGoodToBad: 0.01, GEBadToGood: 0.2, GEBadLoss: 0.5,
		DupProb: 0.05, ReorderProb: 0.1, ReorderWindow: 10 * time.Millisecond,
		ExtraJitter: 5 * time.Millisecond,
	}
	a, b := NewImpairState(99), NewImpairState(99)
	for i := 0; i < 10_000; i++ {
		if i%2 == 0 {
			if ca, cb := a.ProbeFate(im), b.ProbeFate(im); ca != cb {
				t.Fatalf("probe fate diverged at %d: %d vs %d", i, ca, cb)
			}
			continue
		}
		ca, da, ra := a.ResponseFate(im)
		cb, db, rb := b.ResponseFate(im)
		if ca != cb || da != db || ra != rb {
			t.Fatalf("response fate diverged at %d: (%d,%v,%d) vs (%d,%v,%d)",
				i, ca, da, ra, cb, db, rb)
		}
	}
}

// TestInboxHeapOrdering: the hand-rolled value-typed inbox heap must pop
// in (DeliverAt, Seq) order for arbitrary push sequences — the property
// the replaced container/heap implementations guaranteed.
func TestInboxHeapOrdering(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	check := func(keys []uint16) bool {
		in := NewInbox[int](clock, clock.Now())
		for i, k := range keys {
			in.push(Item[int]{DeliverAt: time.Duration(k % 97), Seq: uint64(i)})
		}
		var prev Item[int]
		for i := 0; len(in.heap) > 0; i++ {
			r := in.pop()
			if i > 0 && (r.DeliverAt < prev.DeliverAt ||
				(r.DeliverAt == prev.DeliverAt && r.Seq < prev.Seq)) {
				return false
			}
			prev = r
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestInboxCloseSemantics: scheduling after Close fails, already
// scheduled items drain, then take reports eof.
func TestInboxCloseSemantics(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	clock.AddActor()
	defer clock.DoneActor()
	in := NewInbox[string](clock, clock.Now())
	if !in.ScheduleAll([]Pending[string]{{Payload: "a", Copies: 1}}) {
		t.Fatal("schedule on open inbox failed")
	}
	in.Close()
	if in.ScheduleAll([]Pending[string]{{Payload: "b", Copies: 1}}) {
		t.Fatal("schedule on closed inbox succeeded")
	}
	out := make([]string, 2)
	if n, eof := in.take(in.parker, out, false); n != 1 || eof || out[0] != "a" {
		t.Fatalf("drain got (%d, %q, eof=%v), want (1, a, false)", n, out[0], eof)
	}
	if _, eof := in.take(in.parker, out, false); !eof {
		t.Fatal("take after drain should report eof")
	}
}

// TestBucketsFixedWindow: per-address budget is enforced within a second
// and refreshed at the next window, independently per address.
func TestBucketsFixedWindow(t *testing.T) {
	bk := NewBuckets[uint32](func(a uint32) uint32 { return a })
	allowed := 0
	for i := 0; i < 12; i++ {
		if bk.Allow(42, 5, 0) {
			allowed++
		}
	}
	if allowed != 5 {
		t.Errorf("allowed %d of 12 in one window, want 5", allowed)
	}
	if !bk.Allow(7, 5, 0) {
		t.Error("distinct address throttled by another's budget")
	}
	if !bk.Allow(42, 5, time.Second) {
		t.Error("budget not refreshed at the next window")
	}
	for i := 0; i < 20; i++ {
		if !bk.Allow(42, 0, 0) {
			t.Fatal("limit<=0 must disable throttling")
		}
	}
}
