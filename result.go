package flashroute

import (
	"io"
	"time"

	"github.com/flashroute/flashroute/internal/core"
	"github.com/flashroute/flashroute/internal/output"
	"github.com/flashroute/flashroute/internal/trace"
)

// Hop is one discovered interface on a route; Route is the discovered
// path to one destination, hops sorted by TTL. Hop6 and Route6 are the
// IPv6 forms. Every route a result hands out is a fresh copy the caller
// may keep.
type (
	Hop    = trace.Hop
	Route  = trace.Route
	Hop6   = trace.HopOf[Addr6]
	Route6 = trace.RouteOf[Addr6]
)

// routeSet is the read side every result shares: the discovered
// interfaces and routes of one trace store, and their emit.
type routeSet[A comparable] struct {
	store *trace.StoreOf[A]
}

// InterfaceCount returns the number of unique responding interfaces.
func (r routeSet[A]) InterfaceCount() int { return r.store.Interfaces().Len() }

// HasInterface reports whether the given address was discovered.
func (r routeSet[A]) HasInterface(addr A) bool { return r.store.Interfaces().Has(addr) }

// ForEachInterface visits every discovered interface address.
func (r routeSet[A]) ForEachInterface(fn func(addr A)) { r.store.Interfaces().ForEach(fn) }

// Route returns the discovered route to dst (nil if nothing about dst was
// observed). Hop lists are only populated when the scan collected routes.
func (r routeSet[A]) Route(dst A) *trace.RouteOf[A] { return r.store.Route(dst) }

// NumRoutes returns the number of destinations with at least one
// response.
func (r routeSet[A]) NumRoutes() int { return r.store.NumRoutes() }

// ForEachRoute visits every route with responses, in no particular
// order.
func (r routeSet[A]) ForEachRoute(fn func(*trace.RouteOf[A])) { r.store.ForEachRoute(fn) }

// ReachedCount returns how many destinations answered themselves.
func (r routeSet[A]) ReachedCount() int {
	n := 0
	r.store.ForEachRoute(func(rt *trace.RouteOf[A]) {
		if rt.Reached {
			n++
		}
	})
	return n
}

// WriteCSV writes collected routes as CSV rows (destination,ttl,hop,
// rtt_us,reached) in ascending destination order.
func (r routeSet[A]) WriteCSV(w io.Writer) error { return r.store.WriteCSV(w) }

// WriteJSONL writes collected routes as one JSON object per line, in
// ascending destination order.
func (r routeSet[A]) WriteJSONL(w io.Writer) error { return r.store.WriteJSONL(w) }

// ResultOf is what a scan over address type A produced: Result for
// IPv4, Result6 for IPv6.
type ResultOf[A comparable] struct {
	routeSet[A]
	inner *core.ResultOf[A]
}

// Result is an IPv4 scan result; Result6 an IPv6 one.
type (
	Result  = ResultOf[uint32]
	Result6 = ResultOf[Addr6]
)

func newResult[A comparable](res *core.ResultOf[A]) *ResultOf[A] {
	return &ResultOf[A]{routeSet: routeSet[A]{res.Store}, inner: res}
}

// Probes returns the total probe count (preprobing and extra scans
// included).
func (r *ResultOf[A]) Probes() uint64 { return r.inner.ProbesSent }

// PreprobeProbes returns the probes spent in the preprobing phase.
func (r *ResultOf[A]) PreprobeProbes() uint64 { return r.inner.PreprobeProbes }

// ScanTime returns the scan's total duration on its clock.
func (r *ResultOf[A]) ScanTime() time.Duration { return r.inner.ScanTime }

// Rounds returns the number of main probing rounds.
func (r *ResultOf[A]) Rounds() int { return r.inner.Rounds }

// MeasuredDistance returns the preprobe-measured hop distance of a block
// (an IPv4 /24 or an IPv6 candidate-list position; 0 when unmeasured)
// and whether it came from a direct measurement or a prediction.
func (r *ResultOf[A]) MeasuredDistance(block int) (distance uint8, predicted bool) {
	if r.inner.Measured != nil && r.inner.Measured[block] != 0 {
		return r.inner.Measured[block], false
	}
	if r.inner.Predicted != nil && r.inner.Predicted[block] != 0 {
		return r.inner.Predicted[block], true
	}
	return 0, false
}

// DistancesMeasured and DistancesPredicted count preprobing outcomes.
func (r *ResultOf[A]) DistancesMeasured() int  { return r.inner.DistancesMeasured }
func (r *ResultOf[A]) DistancesPredicted() int { return r.inner.DistancesPredicted }

// MismatchedResponses counts responses discarded because their quoted
// destination failed the source-port checksum test (in-flight destination
// modification, paper §5.3).
func (r *ResultOf[A]) MismatchedResponses() uint64 { return r.inner.MismatchedResponses }

// RetransmittedProbes counts probes re-issued by the loss-tolerance knobs
// (PreprobeRetries and ForwardRetries); always zero with both at their
// zero defaults.
func (r *ResultOf[A]) RetransmittedProbes() uint64 { return r.inner.RetransmittedProbes }

// DuplicateResponses counts replies discarded because their (destination,
// TTL) had already been processed — duplicated packets on the network, or
// re-answers elicited by retransmitted probes.
func (r *ResultOf[A]) DuplicateResponses() uint64 { return r.inner.DuplicateResponses }

// ReadErrors counts receive-path read errors (transport failures distinct
// from unparseable packets).
func (r *ResultOf[A]) ReadErrors() uint64 { return r.inner.ReadErrors }

// SendErrors counts probes abandoned because the transport's WritePacket
// failed permanently or exhausted SendRetries.
func (r *ResultOf[A]) SendErrors() uint64 { return r.inner.SendErrors }

// SendRetries counts write attempts re-issued after transient
// (Temporary()) transport failures.
func (r *ResultOf[A]) SendRetries() uint64 { return r.inner.SendRetries }

// CheckpointErrors counts snapshots the CheckpointSink failed to persist
// (the scan continues regardless).
func (r *ResultOf[A]) CheckpointErrors() uint64 { return r.inner.CheckpointErrors }

// Interrupted reports that the scan was cancelled before completion; the
// result is the valid partial state at cancellation plus the CancelGrace
// drain.
func (r *ResultOf[A]) Interrupted() bool { return r.inner.Interrupted }

// WriteBinary writes an IPv4 result's collected routes in the compact
// binary record format (read back with cmd/frreport or
// internal/output.Reader) and returns the number of records.
func WriteBinary(w io.Writer, r *Result) (uint64, error) {
	return output.WriteStore(w, r.store)
}
