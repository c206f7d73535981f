package main

import (
	"testing"

	flashroute "github.com/flashroute/flashroute"
	"github.com/flashroute/flashroute/internal/core"
)

// The engine finds batch I/O by interface assertion; a wrapper that hid
// it would send the traced scan down the per-packet path.
func TestTracedConnKeepsBatchCapabilities(t *testing.T) {
	sim := flashroute.NewSimulation(flashroute.SimConfig{Blocks: 64, Seed: 1})
	tc, err := newTracedConn(sim.Conn(), &connStats{})
	if err != nil {
		t.Fatal(err)
	}
	var conn flashroute.PacketConn = tc
	if _, ok := conn.(core.BatchWriter); !ok {
		t.Error("traced conn is not a core.BatchWriter")
	}
	if _, ok := conn.(core.BatchReader); !ok {
		t.Error("traced conn is not a core.BatchReader")
	}
}

type plainConn struct{ flashroute.PacketConn }

func TestTracedConnNeedsBatchTransport(t *testing.T) {
	sim := flashroute.NewSimulation(flashroute.SimConfig{Blocks: 64, Seed: 1})
	if _, err := newTracedConn(plainConn{sim.Conn()}, &connStats{}); err == nil {
		t.Fatal("wrapped a transport without batch I/O")
	}
}

// A traced operation must run the same program as an untraced one: on
// the virtual clock the two produce byte-identical results, and the
// wrappers see every layer's calls.
func TestTracedOpMatchesUntraced(t *testing.T) {
	w := sweepWorkload(3)
	w.sim.Blocks = 1024
	plain, err := w.runOp(false)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := w.runOp(true)
	if err != nil {
		t.Fatal(err)
	}
	if plain.digest != traced.digest || plain.res.Probes() != traced.res.Probes() {
		t.Fatalf("traced scan differs: %d probes %s vs %d probes %s",
			traced.res.Probes(), traced.digest, plain.res.Probes(), plain.digest)
	}
	if fails := w.checkOp(traced, &expectations{}, true); len(fails) > 0 {
		t.Fatal(fails)
	}
	lm := w.layerMetrics(traced)
	if lm["netsim.write_pkts"] != float64(traced.res.Probes()) {
		t.Errorf("wrapped conn saw %v packets written, scan sent %d probes",
			lm["netsim.write_pkts"], traced.res.Probes())
	}
	for _, name := range []string{"netsim.read_calls", "simclock.now_calls", "simclock.sleep_calls",
		"core.targets_calls", "core.blockof_calls", "core.probing_span_s", "output.jsonl_bytes"} {
		if lm[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, lm[name])
		}
	}
}

// The batched maxrate configuration keeps its batching through the
// wrappers, which the traced run's own check asserts.
func TestTracedMaxrateBatches(t *testing.T) {
	w := maxrateWorkload(2)
	w.sim.Blocks = 4096
	op, err := w.runOp(true)
	if err != nil {
		t.Fatal(err)
	}
	if lm := w.layerMetrics(op); lm["netsim.pkts_per_write_call"] <= 1 {
		t.Errorf("pkts_per_write_call = %v, want > 1", lm["netsim.pkts_per_write_call"])
	}
}
