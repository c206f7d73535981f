// Package simnet is the address-family-independent simulated link shared
// by the IPv4 (netsim) and IPv6 (netsim6) network simulators: the
// connection, its write and read paths (single-packet, batched and
// per-worker), the deterministic impairment model and fault windows, the
// value-typed delivery inbox, the sharded ICMP rate-limit buckets, and
// one set of network statistics.
//
// Everything here is generic over the address A and the scheduled-reply
// payload P; a family supplies only a Wire — decode and resolve one probe,
// materialize one reply — plus its RTT model and bucket shard function.
// Keeping the link in one place means a delivery, impairment or
// scheduling fix lands once and both families inherit it — the same
// argument the engine makes for a single generic scanner core.
package simnet

import "sync/atomic"

// DeliveryStats counts delivery-side events; Stats embeds it so the
// counters promote to the familiar field names. All fields are updated
// atomically and may be read during a scan.
type DeliveryStats struct {
	Responses atomic.Uint64 // responses delivered to the inbox

	// Impairment-layer counters (all zero on a perfect network).
	ProbesLost  atomic.Uint64 // outbound probes dropped before any hop
	RepliesLost atomic.Uint64 // responses dropped after the responder sent them
	Duplicates  atomic.Uint64 // packets (either direction) delivered twice
	Reordered   atomic.Uint64 // response copies delayed by the reordering window

	// Fault-window counters (all zero without configured Faults).
	WriteFaults  atomic.Uint64 // writes rejected with a transient error
	FaultDropped atomic.Uint64 // responses lost to a connection flap window
	FaultStalled atomic.Uint64 // responses delayed by a read-stall window
}
