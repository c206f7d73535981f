package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// measureLib runs a library workload for o.seconds: set-up alone
// setupReps times, then operations back to back. A traced run
// alternates untraced and traced operations, so trace_overhead_frac
// compares the two under the same conditions.
func measureLib(w *libWorkload, o *options, exp *expectations) (*outcome, error) {
	oc := &outcome{report: newMetricSet()}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t := time.Now()
		w.setupSim()
		setups = append(setups, time.Since(t).Seconds())
	}

	var wall, kpps, cpuPerProbe, probes, ifaces, scan, tracedWall []float64
	layers := map[string][]float64{}
	var failed []bool  // per operation
	var plainOps []int // operation index of each untraced sample
	var firstDigest string
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	var end time.Time
	for i := 0; ; i++ {
		traced := o.trace && i%2 == 1
		if i > 0 && time.Now().After(deadline) && (!o.trace || i >= 2) {
			break
		}
		op, err := w.runOp(traced)
		end = time.Now()
		if err != nil {
			failed = append(failed, true)
			oc.fail("op %d: %v", i, err)
			continue
		}
		setups = append(setups, op.setup.Seconds())
		fails := w.checkOp(op, exp, i == 0)
		if w.emit {
			if firstDigest == "" {
				firstDigest = op.digest
			} else if op.digest != firstDigest {
				fails = append(fails, "JSONL differs from the run's first operation")
			}
		}
		res := op.res
		if traced {
			for k, v := range w.layerMetrics(op) {
				layers[k] = append(layers[k], v)
			}
			tracedWall = append(tracedWall, op.wall().Seconds())
		} else {
			p := float64(res.Probes())
			plainOps = append(plainOps, i)
			wall = append(wall, op.wall().Seconds())
			kpps = append(kpps, p/op.run.Seconds()/1e3)
			cpuPerProbe = append(cpuPerProbe, float64(op.cpu)/p)
			probes = append(probes, p)
			ifaces = append(ifaces, float64(res.InterfaceCount()))
			scan = append(scan, res.ScanTime().Seconds())
		}
		fmt.Printf("op %d traced=%t setup %.4fs run %.3fs emit %.3fs cpu %.3fs probes %d interfaces %d scan_time %s\n",
			i, traced, op.setup.Seconds(), op.run.Seconds(), op.emit.Seconds(), op.cpu.Seconds(),
			res.Probes(), res.InterfaceCount(), res.ScanTime())
		op.res = nil // drop the result store before the next operation
		failed = append(failed, len(fails) > 0)
		for _, f := range fails {
			oc.fail("op %d: %s", i, f)
		}
	}
	// Unrecorded maxrate seeds: every untraced scan must agree with the
	// run's median within the recorded tolerance.
	if _, ok := exp.Maxrate[strconv.FormatInt(w.sim.Seed, 10)]; w.name == "maxrate" && !ok {
		m := median(ifaces)
		for k, v := range ifaces {
			if !within(v, m, exp.MaxrateInterfaceFrac) {
				failed[plainOps[k]] = true
				oc.fail("op %d: %.0f interfaces, run median %.0f", plainOps[k], v, m)
			}
		}
	}
	oc.attempted = len(failed)
	for _, f := range failed {
		if f {
			oc.failed++
		}
	}

	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	oc.e2e = map[string]float64{
		"setup_s":          median(setups),
		"wall_s":           median(wall),
		"ops_per_s":        float64(len(failed)) / end.Sub(start).Seconds(),
		"probe_kpps":       median(kpps),
		"cpu_ns_per_probe": median(cpuPerProbe),
		"probes":           median(probes),
		"interfaces":       median(ifaces),
		"peak_rss_mb":      rss,
	}
	oc.layer = map[string]float64{}
	for k, v := range layers {
		oc.layer[k] = median(v)
	}
	if o.trace {
		oc.layer["trace_overhead_frac"] = median(tracedWall)/median(wall) - 1
	}
	if w.emit {
		oc.report.set(w.name+".virtual_scan_s", median(scan), "s")
	}
	oc.report.set(w.name+".ops", float64(len(wall)+len(tracedWall)), "count")
	return oc, nil
}

// kindStats gathers the successful jobs of one kind.
type kindStats struct {
	latency, run []float64
}

// cell is one job kind on one job seed; its jobs discover alike.
type cell struct {
	kind string
	seed int64
}

// measureService runs the service workload and derives its metrics.
func measureService(o *options, exp *expectations) (*outcome, error) {
	stateRoot := filepath.Join(o.out, fmt.Sprintf("service-%d", os.Getpid()))
	defer os.RemoveAll(stateRoot)
	sr, err := runService(o.frserved, stateRoot, o.seed, time.Duration(o.seconds)*time.Second, o.trace)
	if err != nil {
		return nil, err
	}
	oc := &outcome{report: newMetricSet()}
	first6 := map[int64]string{}
	kinds := map[string]*kindStats{}
	cellProbes, cellIfaces := map[cell][]float64{}, map[cell][]float64{}
	var latency, tracedLatency, submit, status, results, queue, polls []float64
	var totalProbes, resultBytes, resultSecs float64
	var refused, migrations, degraded int
	for i, j := range sr.jobs {
		oc.attempted++
		if j.refused {
			refused++
		}
		migrations += j.st.Migrations
		degraded += int(j.st.StopSetDegraded)
		fail := j.fail
		if fail == "" && j.kind == "scan6" {
			want, recorded := exp.Scan6[strconv.FormatInt(j.seed, 10)]
			switch {
			case recorded && j.digest != want:
				fail = "IPv6 results differ from the recorded digest"
			case first6[j.seed] == "":
				first6[j.seed] = j.digest
			case j.digest != first6[j.seed]:
				fail = "IPv6 results differ between identical jobs"
			}
		}
		if fail != "" {
			oc.failed++
			oc.fail("job %d (%s): %s", i, j.kind, fail)
			continue
		}
		k := kinds[j.kind]
		if k == nil {
			k = &kindStats{}
			kinds[j.kind] = k
		}
		totalProbes += float64(j.st.Probes)
		c := cell{j.kind, j.seed}
		cellProbes[c] = append(cellProbes[c], float64(j.st.Probes))
		cellIfaces[c] = append(cellIfaces[c], float64(j.st.Interfaces))
		ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
		if !j.traced {
			latency = append(latency, j.latency.Seconds())
			k.latency = append(k.latency, ms(j.latency))
			continue
		}
		tracedLatency = append(tracedLatency, j.latency.Seconds())
		submit = append(submit, ms(j.submit))
		for _, d := range j.status {
			status = append(status, ms(d))
		}
		results = append(results, ms(j.results))
		resultBytes += float64(j.bytes)
		resultSecs += j.results.Seconds()
		polls = append(polls, float64(j.polls))
		if j.sawRunning {
			queue = append(queue, ms(j.queueWait))
			k.run = append(k.run, ms(j.run))
		}
	}

	// probes and interfaces are those of one pass over the job matrix
	// (every kind on every topology), each cell a median over its jobs.
	var probes, ifaces float64
	for c, v := range cellProbes {
		probes += median(v)
		ifaces += median(cellIfaces[c])
	}
	window := sr.window.Seconds()
	var setups []float64
	for _, d := range sr.setups {
		setups = append(setups, d.Seconds())
	}
	fmt.Printf("daemon starts (s): %.4f\n", setups)
	oc.e2e = map[string]float64{
		"setup_s":          median(setups),
		"wall_s":           median(latency),
		"ops_per_s":        float64(len(sr.jobs)) / window,
		"probe_kpps":       totalProbes / window / 1e3,
		"cpu_ns_per_probe": ratio(float64(sr.daemonCPU), totalProbes),
		"probes":           probes,
		"interfaces":       ifaces,
		"peak_rss_mb":      sr.peakRSS,
	}
	oc.layer = map[string]float64{
		"served.submit_ms":         median(submit),
		"served.status_ms":         median(status),
		"served.results_ms":        median(results),
		"served.results_mb_per_s":  ratio(resultBytes/(1<<20), resultSecs),
		"served.queue_wait_ms":     median(queue),
		"served.polls_per_job":     median(polls),
		"served.refused":           float64(refused),
		"cluster.migrations":       float64(migrations),
		"cluster.stopset_degraded": float64(degraded),
	}
	if o.trace {
		oc.layer["trace_overhead_frac"] = median(tracedLatency)/median(latency) - 1
	}
	var all []float64
	for _, name := range []string{"scan4", "scan6", "cluster"} {
		k := kinds[name]
		if k == nil {
			k = &kindStats{}
		}
		oc.layer["served.run_ms."+name] = median(k.run)
		oc.report.set("service.job_p50_ms."+name, median(k.latency), "ms")
		all = append(all, k.latency...)
	}
	oc.report.set("service.jobs_per_s", float64(len(sr.jobs))/window, "1/s")
	if v, pct, ok := tail(all); ok {
		oc.report.set("service.job_tail_ms", v, "ms")
		oc.report.set("service.job_tail_pct", pct, "%")
		oc.report.set("service.job_tail_n", float64(len(all)), "count")
	}
	return oc, nil
}
