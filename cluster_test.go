package flashroute

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/flashroute/flashroute/internal/netsim"
)

// clusterGridSim builds the lockstep environment of the cluster
// equivalence grid: every timing- and flow-dependent topology feature is
// disabled, so the discovered set is a pure function of the probe set
// and the Doubletree closure argument of DESIGN.md §13 applies exactly.
func clusterGridSim(seed int64) *Simulation {
	return NewSimulation(SimConfig{
		Blocks:   2048,
		Seed:     seed,
		Lockstep: true,
		Mutate: func(p *netsim.Params) {
			p.DiamondProb = 0
			p.RegionDiamondProb = 0
			p.LoopStubProb = 0
			p.MiddleboxTTLResetProb = 0
			p.AddrRewriteStubProb = 0
			p.ApplianceProb = 0
			p.BalancedHopProb = 0
		},
	})
}

// clusterGridConfig disables preprobing: proximity-span prediction
// couples a block's split point to its neighbors' measurements, which
// straddle shard boundaries — the one engine feature whose outcome
// depends on which other destinations share the process.
func clusterGridConfig() Config {
	cfg := DefaultConfig()
	cfg.Preprobe = PreprobeOff
	cfg.CollectRoutes = true
	return cfg
}

// deepInterfaces collects the router interfaces seen at depth ≥ 2.
// TTL-1 hops are each vantage's private attachment link — workers
// 1..K-1 see their synthetic ingress and only vantage 0 can see the
// real first hop — so depth-1 interfaces are legitimately
// vantage-dependent and excluded from the cross-K invariant.
func deepInterfaces(fn func(func(*Route))) map[uint32]bool {
	set := make(map[uint32]bool)
	fn(func(r *Route) {
		for _, h := range r.Hops {
			if h.TTL >= 2 && h.Addr != r.Dst {
				set[h.Addr] = true
			}
		}
	})
	return set
}

func reachedSetCluster(res *ClusterResult) map[uint32]bool {
	set := make(map[uint32]bool)
	res.ForEachRoute(func(r *Route) {
		if r.Reached {
			set[r.Dst] = true
		}
	})
	return set
}

func sameAddrSet(t *testing.T, what string, got, want map[uint32]bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for a := range want {
		if !got[a] {
			t.Errorf("%s: missing %s", what, FormatAddr(a))
			return
		}
	}
	for a := range got {
		if !want[a] {
			t.Errorf("%s: extra %s", what, FormatAddr(a))
			return
		}
	}
}

// TestClusterWorker1BitIdentical pins worker-count-1 against the plain
// single-process scan: same probes, byte-identical routes.
func TestClusterWorker1BitIdentical(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		cfg := clusterGridConfig()

		base, err := clusterGridSim(seed).Scan(cfg)
		if err != nil {
			t.Fatalf("seed %d: plain scan: %v", seed, err)
		}
		cl, err := clusterGridSim(seed).ScanCluster(cfg, ClusterOptions{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: cluster scan: %v", seed, err)
		}

		if cl.Probes() != base.Probes() {
			t.Errorf("seed %d: cluster probes %d, plain %d", seed, cl.Probes(), base.Probes())
		}
		if cl.InterfaceCount() != base.InterfaceCount() {
			t.Errorf("seed %d: cluster interfaces %d, plain %d",
				seed, cl.InterfaceCount(), base.InterfaceCount())
		}
		var bj, cj bytes.Buffer
		if err := base.WriteJSONL(&bj); err != nil {
			t.Fatal(err)
		}
		if err := cl.WriteJSONL(&cj); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bj.Bytes(), cj.Bytes()) {
			t.Errorf("seed %d: cluster K=1 routes differ from the plain scan", seed)
		}
	}
}

// TestClusterHandleProbesMonotone: the cluster handle counts probes from
// the engines' live counters plus a total folded in as each loop
// finishes, with no per-probe callback. Polled throughout a K=3 scan it
// never goes backwards, and on an undisturbed scan it settles on the
// merged result's probe count.
func TestClusterHandleProbesMonotone(t *testing.T) {
	h, err := clusterGridSim(3).StartClusterScan(context.Background(), clusterGridConfig(),
		ClusterOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	polled := make(chan error, 1)
	go func() {
		var last uint64
		for {
			n := h.Probes()
			if n < last {
				polled <- fmt.Errorf("Probes went backwards: %d after %d", n, last)
				return
			}
			last = n
			select {
			case <-stop:
				polled <- nil
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	res, err := h.Wait()
	close(stop)
	if perr := <-polled; perr != nil {
		t.Fatal(perr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations() != 0 || res.Interrupted() {
		t.Fatalf("undisturbed scan: %d migrations, interrupted=%v", res.Migrations(), res.Interrupted())
	}
	if h.Probes() != res.Probes() {
		t.Fatalf("handle counted %d probes, merged result has %d", h.Probes(), res.Probes())
	}
}

// TestClusterGridInvariant pins the tentpole's merge guarantee: across
// worker counts {1,2,4}, the merged reached set is identical and the
// merged interface set is identical modulo each worker's private
// first-hop ingress interface.
func TestClusterGridInvariant(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		cfg := clusterGridConfig()

		var wantReached, wantIfaces map[uint32]bool
		var baseProbes uint64
		for _, workers := range []int{1, 2, 4} {
			res, err := clusterGridSim(seed).ScanCluster(cfg, ClusterOptions{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if res.Interrupted() {
				t.Fatalf("seed %d workers %d: unexpectedly interrupted", seed, workers)
			}
			if got := len(res.Workers()); got != workers {
				t.Fatalf("seed %d workers %d: %d worker loops reported", seed, workers, got)
			}
			reached := reachedSetCluster(res)
			ifaces := deepInterfaces(res.ForEachRoute)
			if workers == 1 {
				wantReached, wantIfaces, baseProbes = reached, ifaces, res.Probes()
				continue
			}
			sameAddrSet(t, "reached", reached, wantReached)
			sameAddrSet(t, "interfaces", ifaces, wantIfaces)
			if res.StopPublished() == 0 || res.StopReceived() == 0 {
				t.Errorf("seed %d workers %d: no stop-set exchange (published %d, received %d)",
					seed, workers, res.StopPublished(), res.StopReceived())
			}
			t.Logf("seed %d workers %d: probes %d (K=1: %d), published %d, received %d, multipaths %d",
				seed, workers, res.Probes(), baseProbes,
				res.StopPublished(), res.StopReceived(), len(res.MultiPaths()))
		}
	}
}

// TestClusterGridInvariant6 is the IPv6 half of the grid: the v6
// topology is purely tiered (no diamonds, loops or middleboxes), so
// lockstep plus preprobe-off is the whole environment.
func TestClusterGridInvariant6(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		cfg := Config6{PreprobeOff: true, CollectRoutes: true}

		newSim := func() *Simulation6 {
			return NewSimulation6(Sim6Config{
				Prefixes: 300, TargetsPerPrefix: 4, Seed: seed, Lockstep: true,
			})
		}

		var wantReached, wantIfaces map[Addr6]bool
		for _, workers := range []int{1, 2, 4} {
			res, err := newSim().ScanCluster(cfg, ClusterOptions{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			reached := make(map[Addr6]bool)
			res.ForEachRoute(func(r *Route6) {
				if r.Reached {
					reached[r.Dst] = true
				}
			})
			// Same depth ≥ 2 rule as v4: TTL-1 hops are the
			// vantage-private attachment links.
			ifaces := make(map[Addr6]bool)
			res.ForEachRoute(func(r *Route6) {
				for _, h := range r.Hops {
					if h.TTL >= 2 && h.Addr != r.Dst {
						ifaces[h.Addr] = true
					}
				}
			})
			if workers == 1 {
				if len(reached) == 0 {
					t.Fatalf("seed %d: baseline reached nothing", seed)
				}
				wantReached, wantIfaces = reached, ifaces
				continue
			}
			if len(reached) != len(wantReached) {
				t.Errorf("seed %d workers %d: reached %d targets, want %d",
					seed, workers, len(reached), len(wantReached))
			}
			for a := range wantReached {
				if !reached[a] {
					t.Errorf("seed %d workers %d: target %v not reached", seed, workers, a)
					break
				}
			}
			if len(ifaces) != len(wantIfaces) {
				t.Errorf("seed %d workers %d: %d route interfaces, want %d",
					seed, workers, len(ifaces), len(wantIfaces))
			}
		}
	}
}

// TestClusterLockstepDeterministic pins the cluster's determinism on
// real cores (DESIGN.md §13): the workers of a lockstep scan run in
// parallel, yet repeated scans must agree on every per-loop count, the
// stop-set exchange and the scan time — not just on the merged sets.
// Every loop starts at the scan's first instant, completions are handled
// at the instant they happen, and the hub hides a publication from
// drains at its own instant, so none of these depend on scheduling.
func TestClusterLockstepDeterministic(t *testing.T) {
	cfg := clusterGridConfig()
	var want string
	for run := 0; run < 4; run++ {
		res, err := clusterGridSim(5).ScanCluster(cfg, ClusterOptions{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("probes=%d published=%d received=%d scan=%v",
			res.Probes(), res.StopPublished(), res.StopReceived(), res.ScanTime())
		for _, w := range res.Workers() {
			got += fmt.Sprintf(" | shard %d @ %d: %d probes, %d remote",
				w.Shard, w.Vantage, w.ProbesSent, w.StopReceived)
		}
		if run == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("run %d differs:\n got %s\nwant %s", run, got, want)
		}
	}
}

// TestClusterWorkerKillMigratesShard pins the work-handoff path: a
// killed worker's shard resumes on a peer vantage via its final
// checkpoint, and the merged discovery still matches an undisturbed run.
func TestClusterWorkerKillMigratesShard(t *testing.T) {
	const seed = 5
	cfg := clusterGridConfig()

	base, err := clusterGridSim(seed).ScanCluster(cfg, ClusterOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	// The kill fires from inside the Observer: under the virtual clock a
	// plain goroutine may not get scheduled until the scan is already
	// over, but the probe stream itself is guaranteed to still be live.
	var hptr atomic.Pointer[ClusterHandle]
	var probes atomic.Uint64
	var tried, killOK atomic.Bool
	cfg.Observer = func(dst uint32, ttl uint8, _ time.Duration) {
		if probes.Add(1) < 500 {
			return
		}
		if h := hptr.Load(); h != nil && tried.CompareAndSwap(false, true) {
			killOK.Store(h.KillWorker(1))
		}
	}
	h, err := clusterGridSim(seed).StartClusterScan(context.Background(), cfg,
		ClusterOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	hptr.Store(h)
	res, err := h.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !tried.Load() || !killOK.Load() {
		t.Fatalf("kill not delivered (tried=%v ok=%v)", tried.Load(), killOK.Load())
	}
	if res.Migrations() != 1 {
		t.Fatalf("Migrations = %d, want 1", res.Migrations())
	}
	if res.Interrupted() {
		t.Fatal("migrated scan reported Interrupted")
	}
	var resumed bool
	for _, w := range res.Workers() {
		if w.Resumed {
			if w.Shard != 1 {
				t.Errorf("resumed loop probed shard %d, want 1", w.Shard)
			}
			if w.Vantage == 1 {
				t.Error("resumed loop kept the killed vantage")
			}
			resumed = true
		}
	}
	if !resumed {
		t.Fatal("no worker loop marked Resumed")
	}
	sameAddrSet(t, "reached after migration", reachedSetCluster(res), reachedSetCluster(base))
	sameAddrSet(t, "interfaces after migration",
		deepInterfaces(res.ForEachRoute),
		deepInterfaces(base.ForEachRoute))
}
