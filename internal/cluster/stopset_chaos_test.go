package cluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/flashroute/flashroute/internal/core"
	"github.com/flashroute/flashroute/internal/simclock"
)

// newTestWorkerSet builds a worker view with a tiny publish batch so
// tests can force publications without hundreds of adds.
func newTestWorkerSet(hub *Hub[uint32], w, batch int) *WorkerSet[uint32] {
	return NewWorkerSet[uint32](hub, w, core.NewLocalStopSet(core.IPv4Family(), 1, 0), batch)
}

// TestWorkerSetDegradedFrozenPrefix pins the determinism property that
// makes local-only Doubletree mode safe (DESIGN.md §15): a degraded
// worker's membership answers are a pure function of its own local adds
// plus the merge-log prefix it observed before degrading. Entries peers
// publish during the outage must be invisible — the worker behaves
// exactly like one attached to a hub whose log ends at that prefix.
func TestWorkerSetDegradedFrozenPrefix(t *testing.T) {
	hubDown := errors.New("injected hub outage")

	// Live hub: peer (worker 1) publishes a prefix, worker 0 observes it,
	// then the hub "goes down" for worker 0 and the peer keeps publishing.
	hub := NewHub[uint32]()
	w0 := newTestWorkerSet(hub, 0, 4)
	peer := newTestWorkerSet(hub, 1, 4)
	prefix := []uint32{100, 101, 102}
	suffix := []uint32{200, 201, 202, 203}
	for _, a := range prefix {
		peer.Add(a)
	}
	peer.Flush()
	if w0.Has(999) { // local+remote miss, but drains the published prefix
		t.Fatal("phantom membership")
	}

	var down bool
	hub.SetFaultHook(func(op string, worker int) error {
		if down && worker == 0 {
			return hubDown
		}
		return nil
	})
	down = true
	for _, a := range suffix {
		peer.Add(a)
	}
	peer.Flush()
	if !w0.Has(prefix[0]) {
		// gen moved, drain fails, worker 0 degrades — but the already
		// observed prefix must keep answering.
		t.Fatal("degraded worker lost its observed prefix")
	}
	if !w0.Degraded() {
		t.Fatal("worker not degraded after a failed drain")
	}
	if got := w0.DegradedEpisodes(); got != 1 {
		t.Fatalf("DegradedEpisodes = %d, want 1", got)
	}

	// Control: a worker over a hub whose log IS the observed prefix.
	ctlHub := NewHub[uint32]()
	ctl := newTestWorkerSet(ctlHub, 0, 4)
	ctlPeer := newTestWorkerSet(ctlHub, 1, 4)
	for _, a := range prefix {
		ctlPeer.Add(a)
	}
	ctlPeer.Flush()

	// Identical local discovery on both, then compare every answer over
	// the whole universe of addresses in play.
	locals := []uint32{7, 8, 100} // 100 also arrives locally: tiers overlap
	for _, a := range locals {
		w0.Add(a)
		ctl.Add(a)
	}
	probeSet := append(append(append([]uint32{}, prefix...), suffix...), 7, 8, 9, 999)
	for _, a := range probeSet {
		if got, want := w0.Has(a), ctl.Has(a); got != want {
			t.Errorf("Has(%d) = %v under degradation, control says %v", a, got, want)
		}
	}
	for _, a := range suffix {
		if w0.Has(a) {
			t.Errorf("degraded worker sees %d, published during the outage", a)
		}
	}

	// Recovery: the hub heals, and the next publish point (a Flush probe)
	// re-publishes the backlog and catches up on the whole missed suffix.
	down = false
	w0.Flush()
	if w0.Degraded() {
		t.Fatal("worker still degraded after the hub healed")
	}
	if got := w0.DegradedEpisodes(); got != 1 {
		t.Fatalf("DegradedEpisodes after recovery = %d, want 1", got)
	}
	for _, a := range suffix {
		if !w0.Has(a) {
			t.Errorf("catch-up drain missed %d", a)
		}
	}
	// The backlog accumulated while degraded (locals minus the overlap
	// entry the peer already published) must have reached the log.
	if got := hub.Published(); got != uint64(len(prefix)+len(suffix)+2) {
		t.Errorf("hub log has %d entries, want %d (prefix+suffix+recovered backlog)",
			got, len(prefix)+len(suffix)+2)
	}
}

// TestWorkerSetDegradedPublishPath degrades via the other entry point —
// a failed batch publication — and checks the pending batch survives the
// outage instead of being dropped.
func TestWorkerSetDegradedPublishPath(t *testing.T) {
	hubDown := errors.New("injected hub outage")
	hub := NewHub[uint32]()
	var down bool
	hub.SetFaultHook(func(op string, worker int) error {
		if down && worker == 0 {
			return hubDown
		}
		return nil
	})
	w0 := newTestWorkerSet(hub, 0, 2)

	down = true
	w0.Add(10)
	w0.Add(11) // batch of 2 full -> publish fails -> degraded
	if !w0.Degraded() {
		t.Fatal("worker not degraded after a failed publish")
	}
	w0.Add(12)
	if got := hub.Published(); got != 0 {
		t.Fatalf("hub log has %d entries during the outage, want 0", got)
	}

	down = false
	w0.Flush()
	if w0.Degraded() {
		t.Fatal("worker still degraded after the hub healed")
	}
	if got := hub.Published(); got != 3 {
		t.Fatalf("hub log has %d entries after recovery, want the full backlog of 3", got)
	}
	if got := w0.DegradedEpisodes(); got != 1 {
		t.Fatalf("DegradedEpisodes = %d, want 1", got)
	}
}

// TestWorkerSetDegradedEpisodesCount pins the episode counter: one per
// degrade/recover cycle, not one per failed operation.
func TestWorkerSetDegradedEpisodesCount(t *testing.T) {
	hub := NewHub[uint32]()
	var failing bool
	hub.SetFaultHook(func(op string, worker int) error {
		if failing {
			return fmt.Errorf("injected %s outage", op)
		}
		return nil
	})
	w0 := newTestWorkerSet(hub, 0, 2)
	for cycle := 1; cycle <= 3; cycle++ {
		failing = true
		w0.Add(uint32(100 * cycle))
		w0.Add(uint32(100*cycle + 1))
		w0.Flush() // repeated failing ops within one episode
		if got := w0.DegradedEpisodes(); got != uint64(cycle) {
			t.Fatalf("cycle %d: DegradedEpisodes = %d", cycle, got)
		}
		failing = false
		w0.Flush()
		if w0.Degraded() {
			t.Fatalf("cycle %d: not recovered", cycle)
		}
	}
}

// TestHubHidesSameInstant pins the clocked hub's visibility rule: a drain
// adopts only entries published before its own instant, so workers
// running in parallel at one virtual instant never race on each other's
// publications of that instant.
func TestHubHidesSameInstant(t *testing.T) {
	clock := simclock.NewVirtual(time.Unix(0, 0))
	clock.AddActor()
	defer clock.DoneActor()
	hub := &Hub[uint32]{clock: clock}
	pub := newTestWorkerSet(hub, 0, 1)
	sub := newTestWorkerSet(hub, 1, 1)

	pub.Add(7)
	if sub.Has(7) {
		t.Fatal("entry visible at the instant it was published")
	}
	clock.Sleep(time.Millisecond)
	pub.Add(8)
	if !sub.Has(7) {
		t.Fatal("entry of an earlier instant not adopted")
	}
	if sub.Has(8) {
		t.Fatal("entry visible at the instant it was published")
	}
	clock.Sleep(time.Millisecond)
	if !sub.Has(8) {
		t.Fatal("entry of an earlier instant not adopted")
	}
	if got := sub.Received(); got != 2 {
		t.Fatalf("Received = %d, want 2", got)
	}
	if got := hub.Published(); got != 2 {
		t.Fatalf("Published = %d, want 2", got)
	}
}
