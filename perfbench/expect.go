package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// expectations are the recorded outputs the output checks compare
// against, keyed by seed. Seeds not recorded get the structural checks
// only.
type expectations struct {
	// Sweep is the exact outcome of the sweep scan per seed.
	Sweep map[string]sweepExpect `json:"sweep"`
	// Maxrate is the interface count of the maxrate scan per seed, and
	// MaxrateInterfaceFrac the share by which a run may differ from it:
	// real-clock scans discover almost, not exactly, the same.
	Maxrate              map[string]int `json:"maxrate_interfaces"`
	MaxrateInterfaceFrac float64        `json:"maxrate_interface_frac"`
	// Scan6 is the sha256 of the service IPv6 job's NDJSON per job seed
	// (see jobSeed).
	Scan6 map[string]string `json:"service_scan6_sha256"`
}

type sweepExpect struct {
	Probes        uint64 `json:"probes"`
	Interfaces    int    `json:"interfaces"`
	VirtualScanNs int64  `json:"virtual_scan_ns"`
	JSONLSHA256   string `json:"jsonl_sha256"`
}

func loadExpectations(path string) (*expectations, error) {
	exp := &expectations{}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("expectations: %w", err)
	}
	if err := json.Unmarshal(b, exp); err != nil {
		return nil, fmt.Errorf("expectations %s: %w", path, err)
	}
	if exp.Sweep == nil {
		exp.Sweep = map[string]sweepExpect{}
	}
	if exp.Maxrate == nil {
		exp.Maxrate = map[string]int{}
	}
	if exp.Scan6 == nil {
		exp.Scan6 = map[string]string{}
	}
	return exp, nil
}

func (exp *expectations) save(path string) error {
	b, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// recordExpectations runs the workload once per seed in lo..hi and
// stores what it produced. Only a run whose structural checks pass is
// recorded.
func recordExpectations(exp *expectations, o *options, lo, hi int64) error {
	if o.workload == "service" {
		return recordScan6(exp, o, lo, hi)
	}
	for seed := lo; seed <= hi; seed++ {
		w := libWorkloadFor(o.workload, seed)
		op, err := w.runOp(false)
		if err != nil {
			return err
		}
		if fails := w.checkOp(op, &expectations{}, true); len(fails) > 0 {
			return fmt.Errorf("seed %d: %v", seed, fails)
		}
		key := strconv.FormatInt(seed, 10)
		res := op.res
		if o.workload == "maxrate" {
			exp.Maxrate[key] = res.InterfaceCount()
		} else {
			exp.Sweep[key] = sweepExpect{Probes: res.Probes(), Interfaces: res.InterfaceCount(),
				VirtualScanNs: int64(res.ScanTime()), JSONLSHA256: op.digest}
		}
		fmt.Printf("%s seed %d: %d probes, %d interfaces\n", o.workload, seed, res.Probes(), res.InterfaceCount())
	}
	return nil
}

// recordScan6 runs the service's IPv6 job once per topology of each
// seed, through the daemon, and records the digest of its results.
func recordScan6(exp *expectations, o *options, lo, hi int64) error {
	state := filepath.Join(o.out, fmt.Sprintf("record-%d", os.Getpid()))
	defer os.RemoveAll(state)
	if err := os.MkdirAll(state, 0o755); err != nil {
		return err
	}
	client := newServiceHTTP()
	defer client.CloseIdleConnections()
	d, _, err := startDaemon(o.frserved, state, client)
	if err != nil {
		return err
	}
	c := &serviceClient{http: client, base: d.base}
	for seed := jobSeed(lo, 0); seed < jobSeed(hi+1, 0); seed++ {
		rec := c.runJob(serviceKinds(seed)[1], false)
		if rec.fail != "" {
			err = fmt.Errorf("job seed %d: %s", seed, rec.fail)
			break
		}
		exp.Scan6[strconv.FormatInt(seed, 10)] = rec.digest
		fmt.Printf("scan6 job seed %d: %d probes, %d interfaces\n", seed, rec.st.Probes, rec.st.Interfaces)
	}
	return errors.Join(err, d.stop())
}
