package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runContext is what every result records about where it was measured.
type runContext struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Trace        bool   `json:"trace"`
	Seconds      int    `json:"seconds"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	CPUModel     string `json:"cpu_model"`
	LoadBefore   string `json:"load_before"`
	LoadAfter    string `json:"load_after"`
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
	Started      string `json:"started"`
}

func newRunContext(root, workload string, seed int64, trace bool, seconds int) *runContext {
	return &runContext{
		Workload:     workload,
		Seed:         seed,
		Trace:        trace,
		Seconds:      seconds,
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		LoadBefore:   loadAvg(),
		Commit:       commitOf(root),
		SourceSHA256: sourceDigest(root),
		Started:      time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// loadAvg returns the 1, 5 and 15 minute load averages.
func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// commitOf names the commit under test when root is a git work tree.
// Benchmark checkouts usually are not, so the source digest is what
// identifies the code in general.
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes the path and contents of every .go and go.mod file
// under root, skipping hidden and build directories, in sorted order.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00", rel)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// processCPU is this process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every mainstream Linux build.
const clockTicks = 100

// childCPU is another process's user+system CPU time so far, read from
// /proc/<pid>/stat at 1/clockTicks resolution.
func childCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after ") " are fixed.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSMB returns a process's peak resident set (VmHWM) in MiB;
// "self" reads this process.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}
