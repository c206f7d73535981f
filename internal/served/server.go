package served

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	flashroute "github.com/flashroute/flashroute"
)

// Config parameterizes the daemon.
type Config struct {
	// StateDir is where the job table, checkpoints and results persist.
	StateDir string
	// GlobalPPS is the probing-rate ceiling divided across running jobs
	// (default 100,000).
	GlobalPPS int
	// MaxActive bounds concurrently running jobs (default 4); MaxQueued
	// bounds jobs waiting behind them (default 64) — submissions beyond
	// it are rejected with 429.
	MaxActive int
	MaxQueued int
	// CheckpointEvery is the default per-job snapshot cadence in probes
	// (default 10,000); a job spec may override it.
	CheckpointEvery int
	// WatchdogTimeout arms the cluster coordinator's per-worker progress
	// watchdog for cluster jobs (see ClusterOptions.WatchdogTimeout).
	// Zero (the default) leaves it disabled.
	WatchdogTimeout time.Duration
	// MaxMigrations bounds per-shard handoffs for cluster jobs (0 =
	// coordinator default; negative disables migration).
	MaxMigrations int
	// Now supplies record timestamps (default time.Now); tests pin it.
	Now func() time.Time
}

// liveScan is the face of a running job the status and budget paths
// use; the scan and cluster handles of both families satisfy it.
type liveScan interface {
	Probes() uint64
	SetRate(pps int)
}

// Job is one submitted scan. Mutable fields are guarded by the server
// lock except the atomics, which the HTTP handlers read live.
type Job struct {
	ID        string
	Tenant    string
	Spec      JobSpec
	Submitted time.Time

	state      string
	errMsg     string
	probes     uint64 // final count once terminal
	interfaces int    // final count once terminal

	resume     bool           // restart path: continue from snapshot
	snapshot   []byte         // loaded checkpoint (nil: start fresh)
	shardSnaps map[int][]byte // cluster restart path: per-shard checkpoints

	migrations   int    // final shard-handoff count once terminal
	degraded     uint64 // final stop-set degradation episodes once terminal
	userCanceled atomic.Bool
	cancel       context.CancelFunc
	rate         atomic.Int64
	handle       atomic.Pointer[liveScan]
	done         chan struct{}
}

// liveHandle returns the running scan handle, nil before the scan
// starts and once the job has stopped running (finishJob and
// releaseInterrupted clear it, so a finished job pins no scanner).
func (j *Job) liveHandle() liveScan {
	if h := j.handle.Load(); h != nil {
		return *h
	}
	return nil
}

// applyRate is the budget's push callback: remember the grant and, when
// the scan is already running, retarget its pacers immediately.
func (j *Job) applyRate(pps int) {
	j.rate.Store(int64(pps))
	if h := j.liveHandle(); h != nil {
		h.SetRate(pps)
	}
}

// Server is the scan-as-a-service daemon core: admission, scheduling,
// budget division, persistence and restart-resume. The HTTP layer in
// http.go is a thin translation over it.
type Server struct {
	cfg    Config
	store  *Store
	budget *Budget

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // submission order, for listing
	queue   []*Job
	active  int
	nextID  int
	stopped bool

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup
}

// New opens (or re-opens) a server over a state directory. Re-opening
// re-lists the persisted job table: terminal jobs are kept for listing,
// queued jobs re-enter the queue, and jobs that were running when the
// previous daemon stopped are re-queued to resume from their latest
// checkpoint — fingerprint-identical to an uninterrupted run.
func New(cfg Config) (*Server, error) {
	if cfg.GlobalPPS == 0 {
		cfg.GlobalPPS = 100_000
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 4
	}
	if cfg.MaxQueued <= 0 {
		cfg.MaxQueued = 64
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 10_000
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	store, err := OpenStore(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		store:   store,
		budget:  NewBudget(cfg.GlobalPPS),
		jobs:    make(map[string]*Job),
		baseCtx: ctx,
		stop:    stop,
	}
	recs, err := store.LoadAll()
	if err != nil {
		stop()
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, rec := range recs {
		j := &Job{
			ID:         rec.ID,
			Tenant:     rec.Tenant,
			Spec:       rec.Spec,
			Submitted:  rec.Submitted,
			state:      rec.State,
			errMsg:     rec.Error,
			probes:     rec.Probes,
			interfaces: rec.Interfaces,
			migrations: rec.Migrations,
			degraded:   rec.StopSetDegraded,
			done:       make(chan struct{}),
		}
		// Parse the full numeric suffix: a width-limited Sscanf of
		// "job-%06d" silently truncates seven-digit IDs, letting the
		// counter collide with (and overwrite) a reloaded job.
		if rest, ok := strings.CutPrefix(rec.ID, "job-"); ok {
			if n, err := strconv.Atoi(rest); err == nil && n >= s.nextID {
				s.nextID = n + 1
			}
		}
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		switch rec.State {
		case StateQueued:
			s.queue = append(s.queue, j)
		case StateRunning:
			// In flight when the previous daemon stopped: resume from the
			// latest snapshot (none yet means the scan barely started —
			// re-run it fresh, which in sim mode is the same scan).
			// Cluster jobs checkpoint per shard; every shard with a
			// persisted snapshot resumes where it left off.
			if rec.Spec.Type == "cluster" {
				snaps, err := store.ShardCheckpoints(j.ID)
				if err != nil {
					stop()
					return nil, err
				}
				if len(snaps) > 0 {
					j.resume = true
					j.shardSnaps = snaps
				}
			} else {
				snap, ok, err := store.Checkpoint(j.ID)
				if err != nil {
					stop()
					return nil, err
				}
				j.resume = ok
				j.snapshot = snap
			}
			j.state = StateQueued
			s.queue = append(s.queue, j)
		default:
			close(j.done) // terminal: listing only
		}
	}
	s.admitLocked()
	return s, nil
}

// Submit validates and enqueues a job, returning its ID. Admission
// errors are structured: bad specs map to 4xx, a full queue to 429.
func (s *Server) Submit(spec JobSpec) (string, *APIError) {
	if apiErr := spec.Validate(); apiErr != nil {
		return "", apiErr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return "", &APIError{Code: "shutting_down", Message: "server is shutting down"}
	}
	if len(s.queue) >= s.cfg.MaxQueued {
		return "", &APIError{Code: "queue_full",
			Message: fmt.Sprintf("job queue is full (%d queued)", len(s.queue))}
	}
	id := fmt.Sprintf("job-%06d", s.nextID)
	s.nextID++
	j := &Job{
		ID:        id,
		Tenant:    spec.Tenant,
		Spec:      spec,
		Submitted: s.cfg.Now(),
		state:     StateQueued,
		done:      make(chan struct{}),
	}
	if err := s.store.PutRecord(s.recordLocked(j)); err != nil {
		return "", &APIError{Code: "store_error", Message: err.Error()}
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.queue = append(s.queue, j)
	s.admitLocked()
	return id, nil
}

// recordLocked snapshots a job into its durable record form. Caller
// holds s.mu.
func (s *Server) recordLocked(j *Job) *JobRecord {
	return &JobRecord{
		ID:         j.ID,
		Tenant:     j.Tenant,
		State:      j.state,
		Spec:       j.Spec,
		Submitted:  j.Submitted,
		Error:      j.errMsg,
		Probes:     j.probes,
		Interfaces: j.interfaces,

		Migrations:      j.migrations,
		StopSetDegraded: j.degraded,
	}
}

// admitLocked starts queued jobs while the active bound allows. Caller
// holds s.mu.
func (s *Server) admitLocked() {
	for s.active < s.cfg.MaxActive && len(s.queue) > 0 && !s.stopped {
		j := s.queue[0]
		s.queue = s.queue[1:]
		j.state = StateRunning
		// Persist the transition before probing starts: if the daemon
		// dies any time after this line, the restart sees "running" and
		// resumes (or re-runs) the job.
		if err := s.store.PutRecord(s.recordLocked(j)); err != nil {
			j.state = StateFailed
			j.errMsg = err.Error()
			close(j.done)
			continue
		}
		s.active++
		s.wg.Add(1)
		go s.runJob(j)
	}
}

// runJob owns one job from start to terminal state (or to the daemon's
// stop, which leaves it resumable).
func (s *Server) runJob(j *Job) {
	defer s.wg.Done()
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	s.mu.Lock()
	j.cancel = cancel
	canceledEarly := j.userCanceled.Load()
	s.mu.Unlock()
	if canceledEarly {
		// Cancel raced admission: finish without probing.
		s.finishJob(j, StateCanceled, "", nil)
		return
	}

	rate := s.budget.Add(j.ID, j.Tenant, j.Spec.PPS, j.applyRate)
	defer s.budget.Remove(j.ID)

	every := j.Spec.CheckpointEvery
	if every == 0 {
		every = s.cfg.CheckpointEvery
	}
	sink := func(snapshot []byte) error { return s.store.PutCheckpoint(j.ID, snapshot) }

	// Checkpointing is set for every job; a cluster job's coordinator
	// replaces the sink with its per-shard one (see runCluster).
	if j.Spec.Family == FamilyV6 {
		cfg := j.Spec.Scan6Config()
		cfg.PPS, cfg.CheckpointEvery, cfg.CheckpointSink = rate, every, sink
		runOn(s, ctx, j, flashroute.NewSimulation6(j.Spec.Sim6Config()), cfg, every)
		return
	}
	sim, err := flashroute.NewSimulationCIDRs(j.Spec.SimConfig())
	if err != nil {
		s.finishJob(j, StateFailed, err.Error(), nil)
		return
	}
	cfg := j.Spec.ScanConfig()
	cfg.PPS, cfg.CheckpointEvery, cfg.CheckpointSink = rate, every, sink
	runOn(s, ctx, j, sim, cfg, every)
}

// simulation is what a job probes: a flashroute.Simulation (address A =
// uint32, config C = Config) or a Simulation6.
type simulation[A comparable, C any] interface {
	StartScan(ctx context.Context, cfg C) (*flashroute.ScanHandleOf[A], error)
	StartResumeScan(ctx context.Context, cfg C, snapshot []byte) (*flashroute.ScanHandleOf[A], error)
	StartClusterScan(ctx context.Context, cfg C, opt flashroute.ClusterOptions) (*flashroute.ClusterHandleOf[A], error)
}

// outcome is what finishing a job needs of its result; scan and
// cluster results of both families provide it.
type outcome interface {
	Interrupted() bool
	Probes() uint64
	InterfaceCount() int
	WriteJSONL(w io.Writer) error
}

// runOn runs a job against its simulation.
func runOn[A comparable, C any](s *Server, ctx context.Context, j *Job, sim simulation[A, C], cfg C, every int) {
	if j.Spec.Type == "cluster" {
		runCluster(s, ctx, j, sim, cfg, every)
	} else {
		runScan(s, ctx, j, sim, cfg)
	}
}

// runScan runs a single-vantage scan job, resuming it from its
// checkpoint on the restart path.
func runScan[A comparable, C any](s *Server, ctx context.Context, j *Job, sim simulation[A, C], cfg C) {
	var h *flashroute.ScanHandleOf[A]
	var err error
	if j.resume {
		h, err = sim.StartResumeScan(ctx, cfg, j.snapshot)
		if errors.Is(err, flashroute.ErrCheckpointComplete) {
			// The previous daemon died between the scan's final snapshot
			// and its results write: the scan is done but its output was
			// lost, so run it again. The rerun regenerates the identical
			// result when the scan is reproducible: one sender, and
			// either the same rate grants as the lost run (a changed
			// tenant mix retimes its probes) or a lockstep topology,
			// where timing does not shape discovery.
			h, err = sim.StartScan(ctx, cfg)
		}
	} else {
		h, err = sim.StartScan(ctx, cfg)
	}
	if err != nil {
		s.finishJob(j, StateFailed, err.Error(), nil)
		return
	}
	await(s, j, h, h.Wait, nil)
}

// runCluster runs a "cluster" job: the multi-vantage coordinator of
// DESIGN.md §13, with the spec's Workers loops sharing one global stop
// set and the self-healing supervisor of §15 on top (armed only when
// the daemon configures WatchdogTimeout). Every worker persists a
// per-shard checkpoint each `every` probes, so a daemon restart resumes
// every shard from its snapshot; shard handoff inside the coordinator
// covers worker loss while the daemon is up. At one worker with no
// faults the resumed/re-run output is bit-identical; at K>1 the merged
// output is deterministic given the stop-set merge log, whose
// interleaving varies run to run (DESIGN.md §13).
func runCluster[A comparable, C any](s *Server, ctx context.Context, j *Job, sim simulation[A, C], cfg C, every int) {
	opt := flashroute.ClusterOptions{
		Workers:         j.Spec.Workers,
		WatchdogTimeout: s.cfg.WatchdogTimeout,
		MaxMigrations:   s.cfg.MaxMigrations,
		CheckpointEvery: every,
		CheckpointSink: func(shard int, snapshot []byte) error {
			return s.store.PutShardCheckpoint(j.ID, shard, snapshot)
		},
		ResumeSnapshots: j.shardSnaps,
	}
	if opt.Workers == 0 {
		opt.Workers = 2
	}
	h, err := sim.StartClusterScan(ctx, cfg, opt)
	if err != nil {
		s.finishJob(j, StateFailed, err.Error(), nil)
		return
	}
	await(s, j, h, h.Wait, func(res *flashroute.ClusterResultOf[A], sum *scanSummary) {
		// The shard snapshots only matter while the job can still resume.
		_ = s.store.RemoveShardCheckpoints(j.ID)
		sum.migrations, sum.degraded = res.Migrations(), res.StopSetDegraded()
	})
}

// await publishes a started scan's handle and waits for its result. A
// user cancel or completion moves the job to its terminal state, with
// amend (when set) adding to the summary; the daemon's own stop leaves
// it resumable.
func await[R outcome](s *Server, j *Job, h liveScan, wait func() (R, error), amend func(R, *scanSummary)) {
	j.handle.Store(&h)
	h.SetRate(int(j.rate.Load())) // adopt any grant change that raced the start
	res, err := wait()
	if err != nil {
		s.finishJob(j, StateFailed, err.Error(), nil)
		return
	}
	final := func(state string) {
		sum := &scanSummary{probes: res.Probes(), interfaces: res.InterfaceCount(), writeNDJSON: res.WriteJSONL}
		if amend != nil {
			amend(res, sum)
		}
		s.finishJob(j, state, "", sum)
	}
	switch {
	case res.Interrupted() && j.userCanceled.Load():
		final(StateCanceled) // valid partial result
	case res.Interrupted():
		s.releaseInterrupted(j) // daemon stop: stays resumable
	default:
		final(StateDone)
	}
}

type scanSummary struct {
	probes     uint64
	interfaces int
	migrations int    // cluster jobs: shard handoffs
	degraded   uint64 // cluster jobs: stop-set degradation episodes
	// writeNDJSON streams the job's NDJSON results — the store's sorted
	// emit path — so finishing a job never holds the full output in
	// memory alongside the result store.
	writeNDJSON func(io.Writer) error
}

// finishJob moves a job to a terminal state, persists its record (and
// results, when it produced any) and frees its scheduler slot.
func (s *Server) finishJob(j *Job, state, errMsg string, sum *scanSummary) {
	if sum != nil {
		if err := s.store.PutResultsStream(j.ID, sum.writeNDJSON); err != nil && state != StateFailed {
			state, errMsg = StateFailed, err.Error()
		}
	}
	s.mu.Lock()
	j.handle.Store(nil)
	j.state = state
	j.errMsg = errMsg
	if sum != nil {
		j.probes = sum.probes
		j.interfaces = sum.interfaces
		j.migrations = sum.migrations
		j.degraded = sum.degraded
	}
	rec := s.recordLocked(j)
	s.active--
	close(j.done)
	s.admitLocked()
	s.mu.Unlock()
	// Persisting outside the lock: the in-memory transition is already
	// visible; a write failure here only costs durability of a terminal
	// state, which a restart re-derives by re-running the job.
	_ = s.store.PutRecord(rec)
}

// releaseInterrupted ends the goroutine of a job the daemon's own stop
// interrupted: its record stays "running" on disk (the restart cue to
// resume it) and its final checkpoint — written by the engine on the way
// out — carries the exact probing state.
func (s *Server) releaseInterrupted(j *Job) {
	s.mu.Lock()
	if h := j.liveHandle(); h != nil {
		j.probes = h.Probes()
	}
	j.handle.Store(nil)
	s.active--
	close(j.done)
	s.mu.Unlock()
}

// Cancel requests cancellation: queued jobs are dropped immediately,
// running jobs stop gracefully and keep their partial results.
func (s *Server) Cancel(id string) *APIError {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return &APIError{Code: "not_found", Message: "no such job"}
	}
	switch j.state {
	case StateQueued:
		for i, q := range s.queue {
			if q == j {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				break
			}
		}
		j.state = StateCanceled
		j.userCanceled.Store(true)
		rec := s.recordLocked(j)
		close(j.done)
		s.mu.Unlock()
		_ = s.store.PutRecord(rec)
		return nil
	case StateRunning:
		j.userCanceled.Store(true)
		cancel := j.cancel
		s.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return nil
	default:
		s.mu.Unlock()
		return &APIError{Code: "finished", Message: "job already " + j.state}
	}
}

// JobStatus is the live view of one job.
type JobStatus struct {
	ID         string    `json:"id"`
	Tenant     string    `json:"tenant,omitempty"`
	State      string    `json:"state"`
	Probes     uint64    `json:"probes"`
	RatePPS    int       `json:"rate_pps,omitempty"`
	Interfaces int       `json:"interfaces,omitempty"`
	Submitted  time.Time `json:"submitted"`
	Error      string    `json:"error,omitempty"`

	// Migrations and StopSetDegraded surface the self-healing
	// supervisor's counters for cluster jobs: live while the job runs,
	// final once terminal.
	Migrations      int    `json:"migrations,omitempty"`
	StopSetDegraded uint64 `json:"stopset_degraded,omitempty"`
}

// clusterLive is the extra face a running cluster handle exposes.
type clusterLive interface {
	Migrations() int
	StopSetDegraded() uint64
}

// Status reports a job's live state; running jobs expose their monotone
// probe counter and currently granted rate.
func (s *Server) Status(id string) (*JobStatus, *APIError) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, &APIError{Code: "not_found", Message: "no such job"}
	}
	st := s.statusLocked(j)
	s.mu.Unlock()
	return st, nil
}

func (s *Server) statusLocked(j *Job) *JobStatus {
	st := &JobStatus{
		ID:         j.ID,
		Tenant:     j.Tenant,
		State:      j.state,
		Probes:     j.probes,
		Interfaces: j.interfaces,
		Submitted:  j.Submitted,
		Error:      j.errMsg,
	}
	st.Migrations = j.migrations
	st.StopSetDegraded = j.degraded
	if j.state == StateRunning {
		if h := j.liveHandle(); h != nil {
			st.Probes = h.Probes()
			if cl, ok := h.(clusterLive); ok {
				st.Migrations = cl.Migrations()
				st.StopSetDegraded = cl.StopSetDegraded()
			}
		}
		st.RatePPS = int(j.rate.Load())
	}
	return st
}

// List returns every known job in deterministic submission order:
// creation time first, ID as the tie-break. The in-memory order slice is
// already chronological for jobs submitted to this process, but jobs
// reloaded after a restart carry older timestamps, so the sort is what
// makes GET /v1/jobs stable across daemon generations.
func (s *Server) List() []*JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Submitted.Equal(out[j].Submitted) {
			return out[i].Submitted.Before(out[j].Submitted)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Results returns the NDJSON results of a finished job.
func (s *Server) Results(id string) ([]byte, *APIError) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	var state string
	if ok {
		state = j.state
	}
	s.mu.Unlock()
	if !ok {
		return nil, &APIError{Code: "not_found", Message: "no such job"}
	}
	switch state {
	case StateDone, StateCanceled:
		data, err := s.store.ReadResults(id)
		if err != nil {
			return nil, &APIError{Code: "no_results", Message: err.Error()}
		}
		return data, nil
	case StateFailed:
		return nil, &APIError{Code: "failed", Message: "job failed; no results"}
	default:
		return nil, &APIError{Code: "not_finished", Message: "job is " + state}
	}
}

// Readiness is the /readyz payload: whether the daemon can usefully
// accept a new submission, plus the scheduler depth and rate headroom
// behind that verdict.
type Readiness struct {
	Ready          bool `json:"ready"`
	QueueDepth     int  `json:"queue_depth"`
	QueueCapacity  int  `json:"queue_capacity"`
	ActiveJobs     int  `json:"active_jobs"`
	MaxActive      int  `json:"max_active"`
	BudgetHeadroom int  `json:"budget_headroom_pps"`
}

// Readiness reports admission capacity: not ready while shutting down
// or with a full queue (a submission would get 429 anyway).
func (s *Server) Readiness() Readiness {
	s.mu.Lock()
	r := Readiness{
		QueueDepth:    len(s.queue),
		QueueCapacity: s.cfg.MaxQueued,
		ActiveJobs:    s.active,
		MaxActive:     s.cfg.MaxActive,
	}
	stopped := s.stopped
	s.mu.Unlock()
	r.BudgetHeadroom = s.budget.Headroom()
	r.Ready = !stopped && r.QueueDepth < r.QueueCapacity
	return r
}

// Stop shuts the server down gracefully: no new submissions, every
// running job is interrupted (writing its final checkpoint on the way
// out) and left resumable, queued jobs stay queued. Returns when all
// job goroutines have exited.
func (s *Server) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	s.stop()
	s.wg.Wait()
}

// Wait blocks until the job reaches a terminal state or the daemon's
// stop releases it; test helper.
func (j *Job) Wait() { <-j.done }

// JobForTest exposes a job by ID for the test suites.
func (s *Server) JobForTest(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}
