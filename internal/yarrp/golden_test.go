package yarrp

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"
)

// yarrpFingerprint is what a golden row pins: the counters both families
// report, plus the sha256 of the JSONL route dump when routes are kept.
type yarrpFingerprint struct {
	probes, fill, skipped uint64
	ifaces, reached       int
	scanTime              time.Duration
	jsonlSHA              string
}

func fingerprintOf[A comparable](t *testing.T, res *ResultOf[A], routes bool) yarrpFingerprint {
	t.Helper()
	fp := yarrpFingerprint{
		probes:   res.ProbesSent,
		fill:     res.FillProbes,
		skipped:  res.SkippedByProtection,
		ifaces:   res.Store.Interfaces().Len(),
		reached:  countReached(res),
		scanTime: res.ScanTime,
	}
	if routes {
		var b bytes.Buffer
		if err := res.Store.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		fp.jsonlSHA = fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))
	}
	return fp
}

// TestYarrpGoldenFingerprint pins both families' baseline scans on the
// virtual clock: probe bytes, permutation salts and the order of store
// writes all feed these numbers. Every row is unimpaired, so each repeats
// exactly at any GOMAXPROCS (impaired fill-mode runs do not; see the
// package doc).
func TestYarrpGoldenFingerprint(t *testing.T) {
	v4 := func(seed int64, probeType ProbeType, mutate func(*Config)) func(*testing.T) yarrpFingerprint {
		return func(t *testing.T) yarrpFingerprint {
			e := newEnv(t, 2048, seed)
			e.probeType = probeType
			if mutate != nil {
				mutate(&e.cfg)
			}
			res, err := e.run(t)
			if err != nil {
				t.Fatal(err)
			}
			return fingerprintOf(t, res, e.cfg.CollectRoutes)
		}
	}
	rows := []struct {
		name string
		run  func(*testing.T) yarrpFingerprint
		want yarrpFingerprint
	}{
		{"v4 yarrp-32 tcp", v4(11, TCPAck, nil),
			yarrpFingerprint{65536, 0, 0, 231, 59, 3310 * time.Millisecond, ""}},
		{"v4 yarrp-16 fill", v4(12, TCPAck, func(c *Config) {
			c.MaxTTL = 16
			c.FillMode = true
			c.FillMax = 32
		}), yarrpFingerprint{34330, 1562, 0, 238, 40, 2655 * time.Millisecond, ""}},
		{"v4 udp short scan", v4(13, UDP, nil),
			yarrpFingerprint{65536, 0, 0, 253, 79, 3310 * time.Millisecond, ""}},
		{"v4 6-hop protection with routes", v4(14, TCPAck, func(c *Config) {
			c.PPS = 10_000
			c.NeighborhoodLimit = 6
			c.NeighborhoodTimeout = 2 * time.Second
			c.CollectRoutes = true
		}), yarrpFingerprint{57005, 0, 8531, 267, 68, 7700 * time.Millisecond,
			"48e6c3ab73ab253b18d541fb2fd1839d0c7b923f93992d73998aacc0298b0180"}},
		{"v6 default fill", func(t *testing.T) yarrpFingerprint {
			topo, n, clock := sim(t, 128, 8, 15)
			cfg := DefaultConfig6()
			cfg.Blocks, cfg.Targets = targetList(topo.Targets())
			cfg.Source = topo.Vantage()
			cfg.Seed = 15
			cfg.PPS = 50_000
			sc, err := NewScannerOf(IPv6(), cfg, n.NewConn(), clock)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			return fingerprintOf(t, res, false)
		}, yarrpFingerprint{16904, 520, 0, 465, 540, 2325 * time.Millisecond, ""}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if got := row.run(t); got != row.want {
				t.Errorf("fingerprint\n got %+v\nwant %+v", got, row.want)
			}
		})
	}
}
