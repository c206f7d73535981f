package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

func TestTailSelection(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	if _, _, ok := tail(seq(10)); ok {
		t.Fatal("10 samples: no percentile has 10 samples beyond it")
	}
	cases := []struct {
		n          int
		value, pct float64
	}{
		{n: 11, value: 1, pct: 100.0 / 11},
		{n: 20, value: 10, pct: 50},
		{n: 100, value: 90, pct: 90},
		{n: 1000, value: 990, pct: 99},
	}
	for _, c := range cases {
		v, pct, ok := tail(seq(c.n))
		if !ok || v != c.value || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("n=%d: tail = %v at p%v (ok %v), want %v at p%v", c.n, v, pct, ok, c.value, c.pct)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond != tailSamples {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", c.n, beyond, tailSamples)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMetricNames(t *testing.T) {
	good := []string{"wall_s", "job_p50_ms.scan4", "netsim.write-calls", "9lives", strings.Repeat("a", 64)}
	bad := []string{"", "_x", ".x", "-x", "a b", "a/b", "p50%", "ünicode", strings.Repeat("a", 65)}
	for _, n := range good {
		if !validName(n) {
			t.Errorf("validName(%q) = false", n)
		}
	}
	for _, n := range bad {
		if validName(n) {
			t.Errorf("validName(%q) = true", n)
		}
	}
	for _, u := range []string{"ms", "s", "1/s", "count", "%", "B/probe", "MB/s"} {
		if !validUnit(u) {
			t.Errorf("validUnit(%q) = false", u)
		}
	}
	for _, u := range []string{"", "m s", "kilobytes/seconds", "µs"} {
		if validUnit(u) {
			t.Errorf("validUnit(%q) = true", u)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !validName(d.name) || !validUnit(d.unit) {
			t.Errorf("metric %s (%s) is not a valid name and unit", d.name, d.unit)
		}
	}
}

func TestMetricSetRejects(t *testing.T) {
	for _, c := range []struct {
		name, unit string
		v          float64
	}{
		{"bad name", "s", 1}, {"x", "bad unit", 1}, {"x", "s", math.NaN()}, {"x", "s", math.Inf(1)},
	} {
		ms := newMetricSet()
		ms.set(c.name, c.v, c.unit)
		if ms.err == nil {
			t.Errorf("set(%q, %v, %q) accepted", c.name, c.v, c.unit)
		}
	}
	ms := newMetricSet()
	ms.set("x", 1, "s")
	ms.set("x", 2, "s")
	if ms.err == nil {
		t.Error("duplicate metric accepted")
	}
}

func TestWriteResult(t *testing.T) {
	var buf bytes.Buffer
	r := Result{Correct: true, Attempted: 3, Failed: 0, Metrics: map[string]Metric{
		"wall_s":  {Value: 1.2345678901234, Unit: "s"},
		"setup_s": {Value: 0.000123456789, Unit: "s"},
	}}
	if err := writeResult(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "\n") != 1 || !strings.HasSuffix(out, "\n") {
		t.Fatalf("result is not one line: %q", out)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("result lacks %q", k)
		}
	}
	if len(keys) != 4 {
		t.Errorf("result has %d keys, want 4", len(keys))
	}
	var back Result
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Metrics["wall_s"] != r.Metrics["wall_s"] || back.Metrics["setup_s"] != r.Metrics["setup_s"] {
		t.Errorf("values lost digits: %+v", back.Metrics)
	}

	for _, bad := range []Result{
		{Attempted: 0},
		{Attempted: 1, Failed: 2},
		{Attempted: 1, Metrics: map[string]Metric{"x": {Value: math.NaN(), Unit: "s"}}},
		{Attempted: 1, Metrics: map[string]Metric{"a b": {Value: 1, Unit: "s"}}},
	} {
		if err := writeResult(&bytes.Buffer{}, bad); err == nil {
			t.Errorf("writeResult accepted %+v", bad)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step:
// a result line must carry exactly the metrics the file lists.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
