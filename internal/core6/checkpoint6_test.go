package core6

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/flashroute/flashroute/internal/core"
	"github.com/flashroute/flashroute/internal/netsim6"
)

// TestResume6Equivalence: the crash-safety property holds through the
// IPv6 instantiation — kill a scan at its first checkpoint, resume the
// snapshot in a fresh environment, and the union of the two runs matches
// the uninterrupted topology exactly (lockstep environment).
func TestResume6Equivalence(t *testing.T) {
	const prefixes, perPrefix, seed = 256, 8, 9
	base := newLockstepEnv6(t, prefixes, perPrefix, seed)
	baseline := base.run(t)
	baseFP := fpOf6(baseline, base.targets)
	if baseline.InterfaceCount() == 0 {
		t.Fatal("degenerate baseline")
	}

	e := newLockstepEnv6(t, prefixes, perPrefix, seed)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	var snap []byte
	e.cfg.CheckpointEvery = int(baseline.ProbesSent / 2)
	e.cfg.CheckpointSink = func(b []byte) error {
		mu.Lock()
		defer mu.Unlock()
		if snap == nil {
			snap = append([]byte(nil), b...)
			cancel()
		}
		return nil
	}
	e.cfg.CancelGrace = 100 * time.Millisecond
	sc, err := core.NewScannerOf(Family(), e.cfg, e.net.NewConn(), e.clock)
	if err != nil {
		t.Fatal(err)
	}
	part, err := sc.RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !part.Interrupted {
		t.Fatal("killed scan not marked Interrupted")
	}
	mu.Lock()
	data := snap
	mu.Unlock()
	if data == nil {
		t.Fatal("no checkpoint captured")
	}

	e2 := newLockstepEnv6(t, prefixes, perPrefix, seed)
	sc, err = core.Resume(Family(), e2.cfg, e2.net.NewConn(), e2.clock, data)
	resumed := runScanner(t, sc, err)
	if fp := fpOf6(resumed, e2.targets); fp != baseFP {
		t.Errorf("resumed fingerprint %#x, want %#x (interfaces %d vs %d, reached %d vs %d)",
			fp, baseFP, resumed.InterfaceCount(), baseline.InterfaceCount(),
			len(reachedSet6(resumed, e2.targets)), len(reachedSet6(baseline, base.targets)))
	}
}

// TestFaultWindow6WriteErrorSurvived: the deterministic write-error
// window is survivable by send retries on the IPv6 transport too — the
// lockstep topology comes out bit-identical to a clean run.
func TestFaultWindow6WriteErrorSurvived(t *testing.T) {
	const prefixes, perPrefix, seed = 256, 8, 4
	base := newLockstepEnv6(t, prefixes, perPrefix, seed)
	clean := base.run(t)

	e := newLockstepEnv6(t, prefixes, perPrefix, seed)
	e.topo.P.Impair.Faults = []netsim6.FaultWindow{
		// Inside the first main-round burst: the 2048-probe preprobe sweep
		// takes ~41 ms, then the 2 s drain puts round 1 at ~2.04 s.
		{Start: 2050 * time.Millisecond, Duration: 30 * time.Millisecond, Kind: netsim6.FaultWriteError},
	}
	e.cfg.SendRetries = 10
	res := e.run(t)
	if fp, want := fpOf6(res, e.targets), fpOf6(clean, base.targets); fp != want {
		t.Errorf("write-error window changed the topology: fingerprint %#x, want %#x", fp, want)
	}
	if res.SendRetries == 0 {
		t.Error("window produced no retries")
	}
	if res.SendErrors != 0 {
		t.Errorf("survivable window still abandoned %d probes", res.SendErrors)
	}
	if e.net.Stats.WriteFaults.Load() == 0 {
		t.Error("WriteFaults not counted")
	}
}
