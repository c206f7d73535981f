package simclock

import "time"

// Pacer throttles one sender to a fixed packet rate. Probes are accounted
// in batches of a ~5 ms quantum (as in the paper's sender loop); when a
// batch completes the pacer sleeps until an absolute next-deadline rather
// than for a fixed interval, so sleep overshoot on the real clock is
// absorbed by the following batch instead of accumulating as rate drift.
// On the virtual clock, where a running sender never lets time pass, the
// deadline sleep equals a fixed per-batch sleep.
//
// A Pacer belongs to one sender goroutine. Every engine paces through it:
// the FlashRoute engine gives each sender shard its own, so aggregate
// throughput honors the configured rate with no shared pacing lock.
type Pacer struct {
	clock    Clock
	batch    int           // probes per pacing quantum; 0 = unthrottled
	interval time.Duration // time budget of one full batch
	count    int           // probes accounted in the current batch
	next     time.Time     // absolute deadline of the current batch; zero = unanchored
}

// NewPacer builds a pacer for the given rate; pps <= 0 disables pacing.
func NewPacer(clock Clock, pps int) Pacer {
	p := Pacer{clock: clock}
	if pps <= 0 {
		return p
	}
	p.batch = pps / 200 // ~5 ms pacing quantum
	if p.batch < 1 {
		p.batch = 1
	}
	p.interval = time.Duration(int64(time.Second) * int64(p.batch) / int64(pps))
	return p
}

// Rate reports the rate the pacer enforces, in packets per second (0 when
// unthrottled). Integer batching makes it differ slightly from the pps
// the pacer was built with.
func (p *Pacer) Rate() float64 {
	if p.batch == 0 {
		return 0
	}
	return float64(p.batch) * float64(time.Second) / float64(p.interval)
}

// SetRate retargets the pacer to a new rate mid-scan: batch size and
// interval are recomputed exactly as NewPacer would, the in-batch count
// is cleared and the deadline anchor dropped, so the next batch paces at
// the new rate with no sending debt (or credit) carried across the
// change.
func (p *Pacer) SetRate(pps int) {
	*p = NewPacer(p.clock, pps)
}

// Reset drops the deadline anchor (the in-batch probe count is kept).
// Call it at phase starts and after non-pacing sleeps — round gaps, drain
// waits — so idle time is not treated as banked sending budget that would
// otherwise be repaid as an unpaced burst.
func (p *Pacer) Reset() { p.next = time.Time{} }

// Pace accounts one sent probe and, when the batch is full, sleeps until
// the batch's absolute deadline.
func (p *Pacer) Pace() { p.PaceFlush(nil) }

// PaceFlush is Pace with a pre-sleep hook: flush (if non-nil) runs after
// the sleep decision but before the sleep itself, so a batching sender
// can write out its arena before blocking. The deadline is computed
// before flush runs and the sleep targets that absolute instant, so time
// spent flushing is absorbed by the sleep — batch boundaries do not
// distort pacing.
func (p *Pacer) PaceFlush(flush func()) {
	if p.batch == 0 {
		return
	}
	p.count++
	if p.count < p.batch {
		return
	}
	p.count = 0
	now := p.clock.Now()
	if p.next.IsZero() {
		p.next = now
	}
	p.next = p.next.Add(p.interval)
	if d := p.next.Sub(now); d > 0 {
		if flush != nil {
			flush()
		}
		p.clock.Sleep(d)
	} else {
		// The sender cannot keep up with the target rate; re-anchor at the
		// present instead of accumulating debt that would burst later.
		p.next = now
	}
}
