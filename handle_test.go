package flashroute

import (
	"context"
	"fmt"
	"maps"
	"sort"
	"testing"
	"time"
)

// ifaceSet collects the discovered interface set in sorted order — the
// public-API fingerprint used by the handle tests.
func ifaceSet(r *Result) []uint32 {
	var out []uint32
	r.ForEachInterface(func(a uint32) { out = append(out, a) })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalSets(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ifacesOf collects a result's interface set, for either family.
func ifacesOf[A comparable](r interface{ ForEachInterface(func(A)) }) map[A]bool {
	out := make(map[A]bool)
	r.ForEachInterface(func(a A) { out[a] = true })
	return out
}

// TestScanHandleLifecycle: for both families at one and two senders, a
// handle with no Observer reports monotone progress that ends at the
// result's probe count, a caller's Observer still sees every probe, and
// at one sender (the deterministic configuration) the handle's result is
// the synchronous scan's.
func TestScanHandleLifecycle(t *testing.T) {
	for _, senders := range []int{1, 2} {
		t.Run(fmt.Sprintf("v4-senders%d", senders), func(t *testing.T) {
			mk := func() *Simulation { return NewSimulation(SimConfig{Blocks: 512, Seed: 7}) }
			cfg := DefaultConfig()
			cfg.Senders = senders
			checkLifecycle(t, senders == 1,
				func() (*Result, error) { return mk().Scan(cfg) },
				func(obs func(uint32, uint8, time.Duration)) (*ScanHandle, error) {
					c := cfg
					c.Observer = obs
					return mk().StartScan(context.Background(), c)
				})
		})
		t.Run(fmt.Sprintf("v6-senders%d", senders), func(t *testing.T) {
			mk := func() *Simulation6 {
				return NewSimulation6(Sim6Config{Prefixes: 64, TargetsPerPrefix: 16, Seed: 5})
			}
			cfg := Config6{Senders: senders}
			checkLifecycle(t, senders == 1,
				func() (*Result6, error) { return mk().Scan(cfg) },
				func(obs func(Addr6, uint8, time.Duration)) (*ScanHandle6, error) {
					c := cfg
					c.Observer = obs
					return mk().StartScan(context.Background(), c)
				})
		})
	}
}

func checkLifecycle[A comparable](t *testing.T, deterministic bool,
	direct func() (*ResultOf[A], error),
	start func(observer func(A, uint8, time.Duration)) (*ScanHandleOf[A], error)) {
	t.Helper()
	h, err := start(nil)
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for {
		n := h.Probes()
		if n < last {
			t.Fatalf("progress went backwards: %d after %d", n, last)
		}
		last = n
		select {
		case <-h.Done():
		default:
			continue
		}
		break
	}
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupted() {
		t.Fatal("uncancelled scan marked Interrupted")
	}
	if h.Probes() != res.Probes() {
		t.Fatalf("handle counted %d probes, result has %d", h.Probes(), res.Probes())
	}
	if deterministic {
		want, err := direct()
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(ifacesOf[A](res), ifacesOf[A](want)) || res.Probes() != want.Probes() ||
			res.ReachedCount() != want.ReachedCount() {
			t.Fatalf("handle scan: %d interfaces / %d probes / %d reached, direct scan: %d / %d / %d",
				res.InterfaceCount(), res.Probes(), res.ReachedCount(),
				want.InterfaceCount(), want.Probes(), want.ReachedCount())
		}
	}

	var observed uint64 // Observer calls are serialized across senders
	h, err = start(func(A, uint8, time.Duration) { observed++ })
	if err != nil {
		t.Fatal(err)
	}
	res, err = h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if observed != res.Probes() || h.Probes() != res.Probes() {
		t.Fatalf("observer saw %d probes, handle counted %d, result has %d",
			observed, h.Probes(), res.Probes())
	}
}

// TestSetRateUnchangedIsNoop: retargeting a running scan to the rate it
// already runs at must not retime it. On the default topology (ICMP rate
// limiting and RTT jitter make discovery timing-dependent) a scan whose
// Observer calls SetRate(PPS) at a fixed probe must discover exactly
// what the same scan without the call does, for both families.
func TestSetRateUnchangedIsNoop(t *testing.T) {
	t.Run("v4", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.PPS = 20_000
		checkSetRateNoop(t, cfg.PPS, func(obs func(uint32, uint8, time.Duration)) (*ScanHandle, error) {
			c := cfg
			c.Observer = obs
			return NewSimulation(SimConfig{Blocks: 512, Seed: 7}).StartScan(context.Background(), c)
		})
	})
	t.Run("v6", func(t *testing.T) {
		cfg := Config6{PPS: 20_000}
		checkSetRateNoop(t, cfg.PPS, func(obs func(Addr6, uint8, time.Duration)) (*ScanHandle6, error) {
			c := cfg
			c.Observer = obs
			sim := NewSimulation6(Sim6Config{Prefixes: 64, TargetsPerPrefix: 16, Seed: 5})
			return sim.StartScan(context.Background(), c)
		})
	})
}

func checkSetRateNoop[A comparable](t *testing.T, pps int,
	start func(observer func(A, uint8, time.Duration)) (*ScanHandleOf[A], error)) {
	t.Helper()
	// At 20 Kpps the pacing quantum is 100 probes: probe 777 lands
	// mid-quantum, inside the main rounds.
	const at = 777
	h, err := start(nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// The Observer runs on the sender goroutine, which holds virtual time
	// while it waits for the handle, so the call lands at probe `at`.
	handles := make(chan *ScanHandleOf[A], 1)
	n := 0
	h, err = start(func(A, uint8, time.Duration) {
		if n++; n == at {
			(<-handles).SetRate(pps)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	handles <- h
	got, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if n < at {
		t.Fatalf("scan sent only %d probes; SetRate never ran", n)
	}
	if !maps.Equal(ifacesOf[A](got), ifacesOf[A](want)) || got.Probes() != want.Probes() ||
		got.ScanTime() != want.ScanTime() {
		t.Fatalf("SetRate(%d) at probe %d changed the scan: %d interfaces / %d probes / %v, want %d / %d / %v",
			pps, at, got.InterfaceCount(), got.Probes(), got.ScanTime(),
			want.InterfaceCount(), want.Probes(), want.ScanTime())
	}
}

// TestScanHandleCancel: cancelling a handle mid-scan yields a valid
// partial result with Interrupted set.
func TestScanHandleCancel(t *testing.T) {
	sim := NewSimulation(SimConfig{Blocks: 2048, Seed: 3, RealTime: true})
	cfg := DefaultConfig()
	cfg.PPS = 2_000 // slow enough that cancellation lands mid-scan
	cfg.CancelGrace = 50 * time.Millisecond
	h, err := sim.StartScan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for h.Probes() < 500 {
		time.Sleep(time.Millisecond)
	}
	h.Cancel()
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted() {
		t.Fatal("cancelled scan not marked Interrupted")
	}
	if res.Probes() == 0 {
		t.Fatal("partial result has no probes")
	}
}

// TestScanHandleSetRate: retargeting the rate through a handle mid-scan
// must not change what a lockstep-environment scan discovers.
func TestScanHandleSetRate(t *testing.T) {
	const blocks, seed = 512, 7
	mk := func() *Simulation {
		return NewSimulation(SimConfig{Blocks: blocks, Seed: seed, Lockstep: true})
	}
	cfg := DefaultConfig()
	cfg.NoRedundancyElimination = true
	direct, err := mk().Scan(cfg)
	if err != nil {
		t.Fatal(err)
	}

	h, err := mk().StartScan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for h.Probes() < direct.Probes()/4 {
		select {
		case <-h.Done():
		default:
			continue
		}
		break
	}
	h.SetRate(cfg.PPS / 100)
	h.SetRate(100_000)
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !equalSets(ifaceSet(res), ifaceSet(direct)) {
		t.Fatalf("rate retarget changed discovery: %d interfaces, want %d",
			res.InterfaceCount(), direct.InterfaceCount())
	}
}

// TestNewSimulationCIDRs: user-supplied ranges must surface parse errors
// as errors (NewSimulation keeps its documented panic).
func TestNewSimulationCIDRs(t *testing.T) {
	sim, err := NewSimulationCIDRs(SimConfig{CIDRs: []string{"10.0.0.0/16", "10.1.0.0/16"}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Blocks() != 512 {
		t.Fatalf("blocks=%d want 512", sim.Blocks())
	}
	for _, bad := range []string{"10.0.0.0/8x", "bogus", "10.0.0.0/28"} {
		if _, err := NewSimulationCIDRs(SimConfig{CIDRs: []string{bad}}); err == nil {
			t.Errorf("NewSimulationCIDRs(%q) accepted, want error", bad)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewSimulation with a bad CIDR must panic")
		}
	}()
	NewSimulation(SimConfig{CIDRs: []string{"10.0.0.0/8x"}})
}

// TestScanHandle6Cancel: Wait after Cancel on the IPv6 handle returns a
// valid partial result with Interrupted set, mirroring the IPv4 contract
// pinned by TestScanHandleCancel.
func TestScanHandle6Cancel(t *testing.T) {
	sim := NewSimulation6(Sim6Config{Prefixes: 512, TargetsPerPrefix: 16, Seed: 3, RealTime: true})
	cfg := Config6{PPS: 2_000, CancelGrace: 50 * time.Millisecond}
	h, err := sim.StartScan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for h.Probes() < 500 {
		time.Sleep(time.Millisecond)
	}
	h.Cancel()
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res == nil {
		t.Fatal("Wait after Cancel returned nil result")
	}
	if !res.Interrupted() {
		t.Fatal("cancelled scan not marked Interrupted")
	}
	if res.Probes() == 0 {
		t.Fatal("partial result has no probes")
	}
}
