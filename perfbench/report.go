package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// Metric is one reported figure with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's verdict: the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s is a legal metric or workload name: a
// letter or digit first, then at most 63 more letters, digits, '_', '.'
// or '-'.
func validName(s string) bool { return nameRE.MatchString(s) }

// validUnit reports whether s is a legal unit such as "ms", "1/s" or "%".
func validUnit(s string) bool { return unitRE.MatchString(s) }

// metricSet collects metrics in insertion order and remembers the first
// invalid entry, so callers can set many metrics and check once.
type metricSet struct {
	order []string
	m     map[string]Metric
	err   error
}

func newMetricSet() *metricSet { return &metricSet{m: make(map[string]Metric)} }

func (ms *metricSet) set(name string, v float64, unit string) {
	var err error
	switch {
	case !validName(name):
		err = fmt.Errorf("invalid metric name %q", name)
	case !validUnit(unit):
		err = fmt.Errorf("metric %s: invalid unit %q", name, unit)
	case math.IsNaN(v) || math.IsInf(v, 0):
		err = fmt.Errorf("metric %s: non-finite value %v", name, v)
	case ms.m[name] != Metric{}:
		err = fmt.Errorf("metric %s set twice", name)
	}
	if err != nil {
		if ms.err == nil {
			ms.err = err
		}
		return
	}
	ms.order = append(ms.order, name)
	ms.m[name] = Metric{Value: v, Unit: unit}
}

// writeLines prints one "name value unit" line per metric, in the order
// they were set: the human-readable report above the result line.
func (ms *metricSet) writeLines(w io.Writer) {
	for _, n := range ms.order {
		m := ms.m[n]
		fmt.Fprintf(w, "%-32s %16.6g %s\n", n, m.Value, m.Unit)
	}
}

// writeResult writes r as one line of JSON. It refuses a result that
// breaks the output contract: no attempts, more failures than attempts,
// or an invalid or non-finite metric.
func writeResult(w io.Writer, r Result) error {
	if r.Attempted < 1 || r.Failed < 0 || r.Failed > r.Attempted {
		return fmt.Errorf("result: attempted %d, failed %d", r.Attempted, r.Failed)
	}
	for n, m := range r.Metrics {
		if !validName(n) || !validUnit(m.Unit) || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("result: bad metric %q = %v %q", n, m.Value, m.Unit)
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailSamples is how many samples must lie beyond a reported tail.
const tailSamples = 10

// tail returns the highest percentile of xs that has at least ten
// samples beyond it: the value of rank n-11 (0-based) in ascending
// order, and that rank's percentile 100·(n-10)/n. ok is false with
// fewer than eleven samples, where no such percentile exists.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n < tailSamples+1 {
		return 0, 0, false
	}
	s := sorted(xs)
	k := n - tailSamples - 1
	return s[k], 100 * float64(k+1) / float64(n), true
}
