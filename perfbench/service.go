package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/flashroute/flashroute/internal/served"
)

// Service workload: the frserved binary on loopback, driven by a closed
// loop of serviceClients clients. Each client models a measurement
// pipeline that submits a job, polls it to a final state, fetches its
// NDJSON results, and only then submits the next, cycling through the
// job kinds below.

const (
	serviceClients = 2
	// servicePPS is requested by every job. It is at most the per-job
	// share of the daemon's default 100 Kpps ceiling at -max-active 2, so
	// grants never change mid-scan.
	servicePPS = 50_000
	// pollEvery is the clients' status polling interval: a pipeline's
	// pace, and light enough that the clients do not crowd the daemon off
	// the CPU the way millisecond polling would on a small machine.
	pollEvery = 10 * time.Millisecond
	// serviceTopologies is how many topologies, derived from the run's
	// seed, the jobs of a run spread over, so a run's figures do not rest
	// on the luck of one small universe.
	serviceTopologies = 4
	// rssJobs is the job count at which the daemon's peak RSS is read:
	// frserved keeps every finished job's handle, so its memory grows
	// with jobs run, and a fixed count keeps a faster daemon from
	// reading as a fatter one.
	rssJobs = 100
	// daemonWait bounds daemon start-up and shutdown, and jobWait how
	// long a job may take to reach a final state.
	daemonWait = 30 * time.Second
	jobWait    = 60 * time.Second
)

// jobKind is one entry of the clients' job mix.
type jobKind struct {
	name string
	spec served.JobSpec
}

// jobSeed is the seed of the jobs on topology t of a run with the given
// seed.
func jobSeed(seed int64, t int) int64 { return seed*serviceTopologies + int64(t) }

// serviceKinds is the job mix on one topology. The IPv6 job, whose
// results digest is checked exactly, runs on the lockstep topology: the
// one whose discovery the program documents as independent of pacing.
// frserved retargets a running job's rate at a moment set by the wall
// clock (see README.md), and on the default topology that may change
// what a virtual-clock scan discovers.
func serviceKinds(seed int64) []jobKind {
	return []jobKind{
		{"scan4", served.JobSpec{Blocks: 8192, Seed: seed, Senders: 2, PPS: servicePPS}},
		{"scan6", served.JobSpec{Family: served.FamilyV6, Prefixes: 512, TargetsPerPrefix: 16, Seed: seed, PPS: servicePPS, Lockstep: true}},
		{"cluster", served.JobSpec{Type: "cluster", Blocks: 8192, Workers: 2, Seed: seed, PPS: servicePPS}},
	}
}

// daemon is one running frserved process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	logMu  sync.Mutex
	log    []string
	closed chan struct{} // stderr reached EOF
}

// startDaemon starts frserved over a fresh state directory and returns
// once /readyz answers 200, with the time that took.
func startDaemon(bin, state string, client *http.Client) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-state", state, "-max-active", "2")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, closed: make(chan struct{})}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start frserved: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(d.closed)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok {
				a, _, _ := strings.Cut(rest, ",")
				select {
				case addr <- a:
				default:
				}
			}
			d.logMu.Lock()
			d.log = append(d.log, line)
			d.logMu.Unlock()
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.closed:
		d.stop()
		return nil, 0, fmt.Errorf("frserved exited at start: %s", d.stderr())
	case <-time.After(daemonWait):
		d.stop()
		return nil, 0, errors.New("frserved did not report its address")
	}
	for deadline := t0.Add(daemonWait); ; time.Sleep(time.Millisecond) {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, errors.New("frserved never became ready")
		}
	}
}

func (d *daemon) stderr() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return strings.Join(d.log, "; ")
}

// stop shuts the daemon down gracefully, killing it if it overstays
// daemonWait, and waits for the process to end.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.closed:
	case <-time.After(daemonWait):
		_ = d.cmd.Process.Kill()
		<-d.closed
	}
	err := d.cmd.Wait()
	var ee *exec.ExitError
	if errors.As(err, &ee) && !ee.Exited() {
		return fmt.Errorf("frserved killed: %v", err)
	}
	return err
}

// jobRec is one job's round trip as a client saw it.
type jobRec struct {
	kind       string
	seed       int64
	traced     bool
	latency    time.Duration // submit to results fetched
	end        time.Time
	submit     time.Duration
	status     []time.Duration
	results    time.Duration
	queueWait  time.Duration // submit answered to first poll seeing "running"
	run        time.Duration // first poll seeing "running" to first seeing it final
	sawRunning bool
	polls      int
	refused    bool
	st         served.JobStatus
	bytes      int
	digest     string
	fail       string
}

func newServiceHTTP() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serviceClients},
	}
}

type serviceClient struct {
	http *http.Client
	base string
}

func (c *serviceClient) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// runJob submits one job, polls it to a final state and fetches its
// results, recording the timings; rec.fail names the first thing that
// went wrong.
func (c *serviceClient) runJob(k jobKind, traced bool) *jobRec {
	rec := &jobRec{kind: k.name, seed: k.spec.Seed, traced: traced}
	spec, err := json.Marshal(k.spec)
	if err != nil {
		rec.fail = err.Error()
		return rec
	}
	t0 := time.Now()
	defer func() {
		rec.end = time.Now()
		rec.latency = rec.end.Sub(t0)
	}()
	code, data, err := c.do(http.MethodPost, "/v1/jobs", spec)
	submitted := time.Now()
	rec.submit = submitted.Sub(t0)
	switch {
	case err != nil:
		rec.fail = "submit: " + err.Error()
		return rec
	case code == http.StatusTooManyRequests:
		rec.refused, rec.fail = true, "submit refused (429)"
		return rec
	case code != http.StatusAccepted:
		rec.fail = fmt.Sprintf("submit: HTTP %d: %s", code, bytes.TrimSpace(data))
		return rec
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &acc); err != nil || acc.ID == "" {
		rec.fail = fmt.Sprintf("submit: bad reply %q", data)
		return rec
	}

	var runStart time.Time
	for {
		p0 := time.Now()
		code, data, err := c.do(http.MethodGet, "/v1/jobs/"+acc.ID, nil)
		p1 := time.Now()
		rec.polls++
		if traced {
			rec.status = append(rec.status, p1.Sub(p0))
		}
		if err != nil || code != http.StatusOK {
			rec.fail = fmt.Sprintf("status: HTTP %d %v", code, err)
			return rec
		}
		rec.st = served.JobStatus{}
		if err := json.Unmarshal(data, &rec.st); err != nil {
			rec.fail = "status: " + err.Error()
			return rec
		}
		final := rec.st.State == served.StateDone || rec.st.State == served.StateFailed ||
			rec.st.State == served.StateCanceled
		if rec.st.State == served.StateRunning && !rec.sawRunning {
			rec.sawRunning, runStart = true, p1
			rec.queueWait = p1.Sub(submitted)
		}
		if final {
			if rec.sawRunning {
				rec.run = p1.Sub(runStart)
			}
			break
		}
		if p1.Sub(submitted) > jobWait {
			rec.fail = fmt.Sprintf("job %s still %s after %s", acc.ID, rec.st.State, jobWait)
			return rec
		}
		time.Sleep(pollEvery)
	}
	if rec.st.State != served.StateDone {
		rec.fail = fmt.Sprintf("job %s ended %s: %s", acc.ID, rec.st.State, rec.st.Error)
		return rec
	}

	r0 := time.Now()
	code, data, err = c.do(http.MethodGet, "/v1/jobs/"+acc.ID+"/results", nil)
	rec.results = time.Since(r0)
	if err != nil || code != http.StatusOK {
		rec.fail = fmt.Sprintf("results: HTTP %d %v", code, err)
		return rec
	}
	rec.bytes = len(data)
	sum := sha256.Sum256(data)
	rec.digest = hex.EncodeToString(sum[:])
	rec.fail = checkNDJSON(data)
	if rec.fail == "" && (rec.st.Migrations != 0 || rec.st.StopSetDegraded != 0) {
		rec.fail = fmt.Sprintf("cluster job healed: %d migrations, %d degraded episodes",
			rec.st.Migrations, rec.st.StopSetDegraded)
	}
	return rec
}

// checkNDJSON returns why data is not a non-empty stream of JSON
// objects, one per line, or "" if it is.
func checkNDJSON(data []byte) string {
	if len(data) == 0 {
		return "empty results"
	}
	for i, l := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		if len(l) == 0 || l[0] != '{' || !json.Valid(l) {
			return fmt.Sprintf("results line %d does not parse", i+1)
		}
	}
	return ""
}

// serviceRun is the outcome of one service measurement.
type serviceRun struct {
	setups    []time.Duration
	jobs      []*jobRec
	window    time.Duration // measurement start to the last job's end
	daemonCPU time.Duration
	peakRSS   float64
}

// runService starts the daemon setupReps times, keeps the last one,
// and drives it with the closed loop for the given duration. In traced
// mode every other cycle of the job mix is traced.
func runService(bin, stateRoot string, seed int64, seconds time.Duration, trace bool) (*serviceRun, error) {
	client := newServiceHTTP()
	defer client.CloseIdleConnections()
	out := &serviceRun{}
	var d *daemon
	for i := 0; i < setupReps; i++ {
		state := fmt.Sprintf("%s/state-%d", stateRoot, i)
		if err := os.MkdirAll(state, 0o755); err != nil {
			return nil, err
		}
		nd, took, err := startDaemon(bin, state, client)
		if err != nil {
			return nil, err
		}
		out.setups = append(out.setups, took)
		if i < setupReps-1 {
			if err := nd.stop(); err != nil {
				return nil, fmt.Errorf("stop frserved: %w", err)
			}
			continue
		}
		d = nd
	}
	pid := d.cmd.Process.Pid
	cpu0, err := childCPU(pid)
	if err != nil {
		d.stop()
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(seconds)
	var mu sync.Mutex
	var rssErr error
	var wg sync.WaitGroup
	for ci := 0; ci < serviceClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := &serviceClient{http: client, base: d.base}
			for i := 0; i == 0 || time.Now().Before(deadline); i++ {
				cycle := i / 3
				kinds := serviceKinds(jobSeed(seed, cycle%serviceTopologies))
				rec := c.runJob(kinds[(ci+i)%len(kinds)], trace && cycle%2 == 1)
				mu.Lock()
				out.jobs = append(out.jobs, rec)
				if len(out.jobs) == rssJobs {
					out.peakRSS, rssErr = peakRSSMB(strconv.Itoa(pid))
				}
				mu.Unlock()
				if rec.fail != "" {
					time.Sleep(pollEvery) // a failing daemon must not be hammered
				}
			}
		}(ci)
	}
	wg.Wait()
	for _, j := range out.jobs {
		if w := j.end.Sub(start); w > out.window {
			out.window = w
		}
	}
	cpu1, err := childCPU(pid)
	if len(out.jobs) < rssJobs {
		out.peakRSS, rssErr = peakRSSMB(strconv.Itoa(pid))
	}
	if err := errors.Join(err, rssErr, d.stop()); err != nil {
		return nil, err
	}
	out.daemonCPU = cpu1 - cpu0
	return out, nil
}
