// Command perfbench is the repository's benchmark. It runs one of three
// workloads against the flashroute library and the frserved daemon,
// checks their outputs, and prints every metric by name and unit,
// ending with one JSON result line. See README.md.
//
//	perfbench --workload sweep --seed 1 --seconds 20 --trace 0 \
//	    --root .. --frserved /path/to/frserved --out /tmp/perfbench
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run sets its workload up, for a median
// set-up time.
const setupReps = 15

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload from untraced operations (see README.md for each workload's
// reading).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"ops_per_s", "1/s"},
	{"probe_kpps", "kpps"},
	{"cpu_ns_per_probe", "ns"},
	{"probes", "count"},
	{"interfaces", "count"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer the workload does not
// reach from the benchmark's side reads 0.
var perLayer = []metricDef{
	{"netsim.write_calls", "count"},
	{"netsim.write_pkts", "count"},
	{"netsim.write_busy_s", "s"},
	{"netsim.write_ns_per_pkt", "ns"},
	{"netsim.pkts_per_write_call", "pkts/call"},
	{"netsim.read_calls", "count"},
	{"netsim.read_busy_s", "s"},
	{"netsim.pkts_per_read_call", "pkts/call"},
	{"netsim.reply_ratio", "replies/probe"},
	{"simclock.now_calls", "count"},
	{"simclock.now_per_probe", "calls/probe"},
	{"simclock.sleep_calls", "count"},
	{"simclock.sleep_s", "s"},
	{"simclock.park_calls", "count"},
	{"simclock.park_wait_s", "s"},
	{"core.self_s", "s"},
	{"core.preprobe_probes", "count"},
	{"core.rounds", "count"},
	{"core.distances_measured", "count"},
	{"core.distances_predicted", "count"},
	{"core.retransmitted", "count"},
	{"core.duplicate_replies", "count"},
	{"core.mismatched_replies", "count"},
	{"core.targets_calls", "count"},
	{"core.blockof_calls", "count"},
	{"core.first_probe_s", "s"},
	{"core.probing_span_s", "s"},
	{"core.tail_wait_s", "s"},
	{"core.fixed_wait_frac", "frac"},
	{"core.alloc_bytes_per_probe", "B/probe"},
	{"core.gc_cycles", "count"},
	{"core.gc_pause_s", "s"},
	{"output.jsonl_s", "s"},
	{"output.jsonl_bytes", "B"},
	{"output.bytes_per_route", "B/route"},
	{"trace.routes", "count"},
	{"served.submit_ms", "ms"},
	{"served.status_ms", "ms"},
	{"served.results_ms", "ms"},
	{"served.results_mb_per_s", "MB/s"},
	{"served.queue_wait_ms", "ms"},
	{"served.polls_per_job", "polls/job"},
	{"served.refused", "count"},
	{"served.run_ms.scan4", "ms"},
	{"served.run_ms.scan6", "ms"},
	{"served.run_ms.cluster", "ms"},
	{"cluster.migrations", "count"},
	{"cluster.stopset_degraded", "count"},
	{"trace_overhead_frac", "frac"},
}

var workloads = []string{"sweep", "maxrate", "service"}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // repository root
	frserved string // frserved binary (service workload)
	out      string // directory for result records and service state
}

// outcome is one run's verdict and figures.
type outcome struct {
	attempted, failed int
	fails             []string
	e2e               map[string]float64
	layer             map[string]float64
	// report holds figures printed for people beside the contract
	// metrics: the workload's own names for them, fail_frac, and the
	// service's per-kind medians and tail.
	report *metricSet
}

func (oc *outcome) fail(format string, args ...any) {
	oc.fails = append(oc.fails, fmt.Sprintf(format, args...))
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	var o options
	var traceN int
	var record string
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 20, "how long to measure")
	fs.IntVar(&traceN, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "repository root")
	fs.StringVar(&o.frserved, "frserved", "", "frserved binary for the service workload")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for result records and daemon state")
	fs.StringVar(&record, "record", "", "record expectations for the seeds lo-hi instead of measuring")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if !slices.Contains(workloads, o.workload) {
		return 2, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloads, ", "))
	}
	if o.seconds < 1 || traceN < 0 || traceN > 1 {
		return 2, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	o.trace = traceN == 1
	if o.workload == "service" && o.frserved == "" {
		return 2, errors.New("the service workload needs --frserved")
	}
	expPath := filepath.Join(o.root, "perfbench", "expected.json")
	exp, err := loadExpectations(expPath)
	if err != nil {
		return 2, err
	}
	if record != "" {
		lo, hi, err := parseSeedRange(record)
		if err != nil {
			return 2, err
		}
		if err := recordExpectations(exp, &o, lo, hi); err != nil {
			return 1, err
		}
		return 0, exp.save(expPath)
	}

	ctx := newRunContext(o.root, o.workload, o.seed, o.trace, o.seconds)
	var oc *outcome
	switch o.workload {
	case "service":
		oc, err = measureService(&o, exp)
	default:
		oc, err = measureLib(libWorkloadFor(o.workload, o.seed), &o, exp)
	}
	if err != nil {
		return 1, err
	}
	ctx.LoadAfter = loadAvg()

	defs, vals := endToEnd, oc.e2e
	if o.trace {
		defs, vals = perLayer, oc.layer
	}
	res := Result{
		Correct:   oc.failed == 0 && len(oc.fails) == 0,
		Attempted: oc.attempted,
		Failed:    oc.failed,
		Metrics:   make(map[string]Metric, len(defs)),
	}
	ms := newMetricSet()
	for _, d := range defs {
		ms.set(d.name, vals[d.name], d.unit)
	}
	if ms.err != nil {
		return 1, ms.err
	}
	for n, m := range ms.m {
		res.Metrics[n] = m
	}

	oc.report.set(o.workload+".fail_frac", float64(oc.failed)/float64(oc.attempted), "frac")
	c, _ := json.Marshal(ctx)
	fmt.Printf("context %s\n", c)
	oc.report.writeLines(os.Stdout)
	ms.writeLines(os.Stdout)
	for _, f := range oc.fails {
		fmt.Println("FAIL", f)
	}
	if err := writeRecord(o.out, ctx, res, oc); err != nil {
		return 1, err
	}
	if err := writeResult(os.Stdout, res); err != nil {
		return 1, err
	}
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// record is the file kept for each run: the result line plus what it
// was measured on and everything printed beside it.
type record struct {
	Context  *runContext       `json:"context"`
	Result   Result            `json:"result"`
	Report   map[string]Metric `json:"report"`
	Failures []string          `json:"failures"`
}

func writeRecord(dir string, ctx *runContext, res Result, oc *outcome) error {
	dir = filepath.Join(dir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(record{Context: ctx, Result: res, Report: oc.report.m, Failures: oc.fails}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%t-%s.json", ctx.Workload, ctx.Seed, ctx.Trace,
		time.Now().UTC().Format("20060102T150405.000"))
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

func parseSeedRange(s string) (lo, hi int64, err error) {
	a, b, ok := strings.Cut(s, "-")
	if !ok {
		b = a
	}
	lo, err1 := strconv.ParseInt(a, 10, 64)
	hi, err2 := strconv.ParseInt(b, 10, 64)
	if err1 != nil || err2 != nil || hi < lo {
		return 0, 0, fmt.Errorf("bad seed range %q (want lo-hi)", s)
	}
	return lo, hi, nil
}
