package core

import (
	"math"
	"testing"
	"time"

	"github.com/flashroute/flashroute/internal/simclock"
)

// TestPacerSetRate: after a mid-stream setRate the achieved rate must
// track the new target within 1%, with no debt or credit carried across
// the change.
func TestPacerSetRate(t *testing.T) {
	v := simclock.NewVirtual(time.Unix(0, 0))
	v.AddActor()
	defer v.DoneActor()
	p := simclock.NewPacer(v, 50_000)
	if rate := pacedRate(v, &p, 100_000); math.Abs(rate-50_000)/50_000 > 0.01 {
		t.Fatalf("before setRate: %.1f pps, want 50000 ±1%%", rate)
	}
	p.SetRate(5_000)
	if rate := pacedRate(v, &p, 10_000); math.Abs(rate-5_000)/5_000 > 0.01 {
		t.Errorf("after setRate(5000): %.1f pps, want 5000 ±1%%", rate)
	}
	p.SetRate(200_000)
	if rate := pacedRate(v, &p, 400_000); math.Abs(rate-200_000)/200_000 > 0.01 {
		t.Errorf("after setRate(200000): %.1f pps, want 200000 ±1%%", rate)
	}
}

// TestSetRateMidScan: retargeting the aggregate rate mid-scan must slow
// (or speed) the scan without changing what it discovers — the
// fingerprint is rate-invariant in the lockstep environment — and the
// same holds when the re-split spans several sender shards.
func TestSetRateMidScan(t *testing.T) {
	const blocks, seed = 512, 7
	for _, senders := range []int{1, 4} {
		base := newLockstepEnv(t, blocks, seed)
		base.cfg.Senders = senders
		baseline := base.run(t)
		baseFP := fpOf(baseline)

		e := newLockstepEnv(t, blocks, seed)
		e.cfg.Senders = senders
		// Drop the rate a hundredfold at the quarter mark (deep enough to
		// dominate the 1s minimum round time), restore at the half: the
		// scan must take longer than the fixed-rate baseline but find
		// exactly the same topology. The observer is serialized across
		// senders, so the counter needs no synchronization.
		var sc *Scanner
		var n uint64
		quarter, half := baseline.ProbesSent/4, baseline.ProbesSent/2
		e.cfg.Observer = func(dst uint32, ttl uint8, at time.Duration) {
			n++
			switch n {
			case quarter:
				sc.SetRate(e.cfg.PPS / 100)
			case half:
				sc.SetRate(e.cfg.PPS)
			}
		}
		sc, err := NewScanner(e.cfg, e.net.NewConn(), e.clock)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sc.Run()
		if err != nil {
			t.Fatal(err)
		}
		if fp := fpOf(res); fp != baseFP {
			t.Errorf("senders=%d: rate change altered discovery: fingerprint %#x, want %#x", senders, fp, baseFP)
		}
		if res.ScanTime <= baseline.ScanTime {
			t.Errorf("senders=%d: scan with a rate dip took %v, fixed-rate baseline %v", senders, res.ScanTime, baseline.ScanTime)
		}
	}
}

// TestSetRateBeforeRun: a rate set before Run starts replaces Config.PPS
// for the whole scan.
func TestSetRateBeforeRun(t *testing.T) {
	const blocks, seed = 256, 3
	slow := newLockstepEnv(t, blocks, seed)
	slow.cfg.PPS = 5_000
	slowRes := slow.run(t)

	e := newLockstepEnv(t, blocks, seed)
	e.cfg.PPS = 50_000
	sc, err := NewScanner(e.cfg, e.net.NewConn(), e.clock)
	if err != nil {
		t.Fatal(err)
	}
	sc.SetRate(5_000)
	res, err := sc.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fp, want := fpOf(res), fpOf(slowRes); fp != want {
		t.Errorf("fingerprint %#x, want %#x", fp, want)
	}
	// Same rate, same single-sender lockstep environment: the paced
	// timeline must match a scan configured at that rate from the start.
	if res.ScanTime != slowRes.ScanTime {
		t.Errorf("SetRate-before-Run scan took %v, PPS-configured scan %v", res.ScanTime, slowRes.ScanTime)
	}
}
