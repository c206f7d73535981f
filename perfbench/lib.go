package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	flashroute "github.com/flashroute/flashroute"
	"github.com/flashroute/flashroute/internal/netsim"
)

// libWorkload is a workload that drives the library in process: each
// operation builds a fresh Simulation from the seed, runs one scan on it
// and, for sweep, writes the results as JSONL into a hashing sink.
type libWorkload struct {
	name string
	sim  flashroute.SimConfig
	scan flashroute.Config
	emit bool
	// maxFixedWait is the traced run's bound on the share of scan time
	// spent before the first probe and after the last (0: unchecked).
	maxFixedWait float64
}

// libWorkloadFor returns the library workload of that name.
func libWorkloadFor(name string, seed int64) *libWorkload {
	if name == "maxrate" {
		return maxrateWorkload(seed)
	}
	return sweepWorkload(seed)
}

// sweepWorkload is the paper's workload: one FlashRoute-16 scan at the
// default 100 Kpps on the virtual clock, then its results as JSONL.
func sweepWorkload(seed int64) *libWorkload {
	cfg := flashroute.DefaultConfig()
	cfg.CollectRoutes = true
	cfg.Senders, cfg.Receivers = 1, 1
	return &libWorkload{
		name: "sweep",
		sim:  flashroute.SimConfig{Blocks: 1 << 18, Seed: seed},
		scan: cfg,
		emit: true,
	}
}

// maxrateWorkload is the paper's Table 5 maximum send rate: an
// unthrottled, batched two-sender scan on the real clock against a
// zero-latency, unlimited simulator, with drain and round floors shrunk
// so fixed waits stay a small share of the scan.
func maxrateWorkload(seed int64) *libWorkload {
	cfg := flashroute.DefaultConfig()
	cfg.Unthrottled = true
	cfg.Senders, cfg.Receivers, cfg.Batch = 2, 1, 32
	cfg.DrainWait = 10 * time.Millisecond
	cfg.MinRoundTime = time.Millisecond
	return &libWorkload{
		name: "maxrate",
		sim: flashroute.SimConfig{
			Blocks: 1 << 19, Seed: seed, RealTime: true,
			Mutate: func(p *netsim.Params) {
				p.BaseRTT, p.PerHopRTT, p.JitterRTT = 0, 0, 0
				p.ICMPRateLimitPPS = 0
			},
		},
		scan:         cfg,
		maxFixedWait: 0.10,
	}
}

// opWait bounds one operation, some 25 times its usual length.
const opWait = 100 * time.Second

// libTrace holds one traced operation's layer counters.
type libTrace struct {
	conn     connStats
	clock    clockStats
	targets  atomic.Int64
	blockOf  atomic.Int64
	win      probeWindow
	ms0, ms1 runtime.MemStats
}

// libOp is one measured operation.
type libOp struct {
	traced    bool
	start     time.Time
	setup     time.Duration // NewSimulation and the scan inputs
	run       time.Duration // NewScanner and Run
	emit      time.Duration // WriteJSONL
	cpu       time.Duration // process CPU over run and emit
	res       *flashroute.Result
	digest    string
	jsonBytes int64
	tr        *libTrace
}

func (op *libOp) wall() time.Duration { return op.run + op.emit }

// setupSim builds the simulation and completes the scan configuration
// the way Simulation.Scan would.
func (w *libWorkload) setupSim() (*flashroute.Simulation, flashroute.Config) {
	sim := flashroute.NewSimulation(w.sim)
	cfg := w.scan
	cfg.Blocks = sim.Blocks()
	cfg.Targets = sim.RandomTargets()
	cfg.BlockOf = sim.BlockOf
	cfg.Source = sim.Vantage()
	cfg.Seed = w.sim.Seed
	return sim, cfg
}

// runOp performs one operation; traced operations run the same scan
// through the wrapped transport, clock and callbacks.
func (w *libWorkload) runOp(traced bool) (*libOp, error) {
	runtime.GC() // start every operation from a collected heap
	op := &libOp{traced: traced, start: time.Now()}
	sim, cfg := w.setupSim()
	op.setup = time.Since(op.start)

	var conn flashroute.PacketConn = sim.Conn()
	var clock flashroute.Clock = sim.Clock()
	if traced {
		tr := &libTrace{}
		op.tr = tr
		tc, err := newTracedConn(conn, &tr.conn)
		if err != nil {
			return nil, err
		}
		conn = tc
		clock = &tracedClock{inner: clock, st: &tr.clock}
		targets, blockOf := cfg.Targets, cfg.BlockOf
		cfg.Targets = func(b int) uint32 { tr.targets.Add(1); return targets(b) }
		cfg.BlockOf = func(a uint32) (int, bool) { tr.blockOf.Add(1); return blockOf(a) }
		cfg.Observer = tr.win.observe
		runtime.ReadMemStats(&tr.ms0)
	}

	cpu0 := processCPU()
	t0 := time.Now()
	sc, err := flashroute.NewScanner(cfg, conn, clock)
	if err != nil {
		return nil, fmt.Errorf("NewScanner: %w", err)
	}
	// A scan that hangs is cut off, and fails its check as interrupted.
	ctx, cancel := context.WithTimeout(context.Background(), opWait)
	defer cancel()
	res, err := sc.RunContext(ctx)
	op.run = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("Run: %w", err)
	}
	if traced {
		runtime.ReadMemStats(&op.tr.ms1)
	}
	op.res = res
	if w.emit {
		h := sha256.New()
		cw := &countWriter{w: h}
		t1 := time.Now()
		err := res.WriteJSONL(cw)
		op.emit = time.Since(t1)
		if err != nil {
			return nil, fmt.Errorf("WriteJSONL: %w", err)
		}
		op.digest = hex.EncodeToString(h.Sum(nil))
		op.jsonBytes = cw.n
	}
	op.cpu = processCPU() - cpu0
	return op, nil
}

// checkOp returns the output checks op fails against the recorded
// expectations; structural adds the checks that walk every route.
func (w *libWorkload) checkOp(op *libOp, exp *expectations, structural bool) []string {
	var fails []string
	res := op.res
	if res.Interrupted() {
		fails = append(fails, "scan interrupted")
	}
	if res.SendErrors() != 0 || res.ReadErrors() != 0 {
		fails = append(fails, fmt.Sprintf("send errors %d, read errors %d", res.SendErrors(), res.ReadErrors()))
	}
	seed := strconv.FormatInt(w.sim.Seed, 10)
	switch w.name {
	case "sweep":
		if e, ok := exp.Sweep[seed]; ok {
			got := sweepExpect{Probes: res.Probes(), Interfaces: res.InterfaceCount(),
				VirtualScanNs: int64(res.ScanTime()), JSONLSHA256: op.digest}
			if got != e {
				fails = append(fails, fmt.Sprintf("sweep seed %s: got %+v, recorded %+v", seed, got, e))
			}
		}
		if structural {
			fails = append(fails, checkRoutes(res, w.sim.Blocks)...)
		}
	case "maxrate":
		if want, ok := exp.Maxrate[seed]; ok {
			if !within(float64(res.InterfaceCount()), float64(want), exp.MaxrateInterfaceFrac) {
				fails = append(fails, fmt.Sprintf("maxrate seed %s: %d interfaces, recorded %d ±%g",
					seed, res.InterfaceCount(), want, exp.MaxrateInterfaceFrac))
			}
		}
	}
	if op.traced {
		lm := w.layerMetrics(op)
		if w.maxFixedWait > 0 && lm["core.fixed_wait_frac"] > w.maxFixedWait {
			fails = append(fails, fmt.Sprintf("fixed waits are %.3f of scan time (limit %g)",
				lm["core.fixed_wait_frac"], w.maxFixedWait))
		}
		// A batched scan that writes one packet per call has lost its
		// batching somewhere between the engine and the wrapped conn.
		if w.scan.Batch > 1 && lm["netsim.pkts_per_write_call"] <= 1 {
			fails = append(fails, fmt.Sprintf("traced scan wrote %.2f packets per call: batching lost",
				lm["netsim.pkts_per_write_call"]))
		}
	}
	return fails
}

// checkRoutes checks what holds for any seed: no more routes than
// blocks, and hop TTLs within 1..32 that never decrease along a route.
// Equal TTLs are legal: a duplicate response, or a TTL-exceeded and an
// unreachable from the same hop, are both stored.
func checkRoutes(res *flashroute.Result, blocks int) []string {
	var fails []string
	if n := res.NumRoutes(); n > blocks {
		fails = append(fails, fmt.Sprintf("%d routes for %d blocks", n, blocks))
	}
	bad := 0
	res.ForEachRoute(func(r *flashroute.Route) {
		for i, h := range r.Hops {
			if h.TTL < 1 || h.TTL > 32 || (i > 0 && h.TTL < r.Hops[i-1].TTL) {
				bad++
				return
			}
		}
	})
	if bad > 0 {
		fails = append(fails, fmt.Sprintf("%d routes with out-of-order or out-of-range TTLs", bad))
	}
	return fails
}

func within(got, want, frac float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= frac*want
}

// selfTime is the engine's share of a traced scan: the actor-seconds
// its sender and receiver goroutines spend outside the transport and
// clock calls, taking every actor as alive for the whole of NewScanner
// and Run. The single receiver blocks inside ReadPacket while it waits,
// so that wait counts as the transport's, not the engine's.
func (w *libWorkload) selfTime(op *libOp) float64 {
	actors := float64(max(w.scan.Senders, 1) + max(w.scan.Receivers, 1))
	st := &op.tr.conn
	child := st.writeNs.Load() + st.readNs.Load() + op.tr.clock.sleepNs.Load() + op.tr.clock.parkNs.Load()
	return max(actors*op.run.Seconds()-float64(child)/1e9, 0)
}

// layerMetrics derives the per-layer metrics of a traced operation.
func (w *libWorkload) layerMetrics(op *libOp) map[string]float64 {
	tr, res := op.tr, op.res
	probes := float64(res.Probes())
	wc, wp, wns := float64(tr.conn.writeCalls.Load()), float64(tr.conn.writePkts.Load()), float64(tr.conn.writeNs.Load())
	rc, rp, rns := float64(tr.conn.readCalls.Load()), float64(tr.conn.readPkts.Load()), float64(tr.conn.readNs.Load())
	scan := res.ScanTime()
	m := map[string]float64{
		"netsim.write_calls":         wc,
		"netsim.write_pkts":          wp,
		"netsim.write_busy_s":        wns / 1e9,
		"netsim.write_ns_per_pkt":    ratio(wns, wp),
		"netsim.pkts_per_write_call": ratio(wp, wc),
		"netsim.read_calls":          rc,
		"netsim.read_busy_s":         rns / 1e9,
		"netsim.pkts_per_read_call":  ratio(rp, rc),
		"netsim.reply_ratio":         ratio(rp, wp),

		"simclock.now_calls":     float64(tr.clock.nowCalls.Load()),
		"simclock.now_per_probe": ratio(float64(tr.clock.nowCalls.Load()), probes),
		"simclock.sleep_calls":   float64(tr.clock.sleepCalls.Load()),
		"simclock.sleep_s":       float64(tr.clock.sleepNs.Load()) / 1e9,
		"simclock.park_calls":    float64(tr.clock.parkCalls.Load()),
		"simclock.park_wait_s":   float64(tr.clock.parkNs.Load()) / 1e9,

		"core.self_s":                w.selfTime(op),
		"core.preprobe_probes":       float64(res.PreprobeProbes()),
		"core.rounds":                float64(res.Rounds()),
		"core.distances_measured":    float64(res.DistancesMeasured()),
		"core.distances_predicted":   float64(res.DistancesPredicted()),
		"core.retransmitted":         float64(res.RetransmittedProbes()),
		"core.duplicate_replies":     float64(res.DuplicateResponses()),
		"core.mismatched_replies":    float64(res.MismatchedResponses()),
		"core.targets_calls":         float64(tr.targets.Load()),
		"core.blockof_calls":         float64(tr.blockOf.Load()),
		"core.first_probe_s":         tr.win.first.Seconds(),
		"core.probing_span_s":        (tr.win.last - tr.win.first).Seconds(),
		"core.tail_wait_s":           (scan - tr.win.last).Seconds(),
		"core.fixed_wait_frac":       ratio((tr.win.first + scan - tr.win.last).Seconds(), scan.Seconds()),
		"core.alloc_bytes_per_probe": ratio(float64(tr.ms1.TotalAlloc-tr.ms0.TotalAlloc), probes),
		"core.gc_cycles":             float64(tr.ms1.NumGC - tr.ms0.NumGC),
		"core.gc_pause_s":            float64(tr.ms1.PauseTotalNs-tr.ms0.PauseTotalNs) / 1e9,
	}
	if op.digest != "" {
		routes := float64(res.NumRoutes())
		m["output.jsonl_s"] = op.emit.Seconds()
		m["output.jsonl_bytes"] = float64(op.jsonBytes)
		m["output.bytes_per_route"] = ratio(float64(op.jsonBytes), routes)
		m["trace.routes"] = routes
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
