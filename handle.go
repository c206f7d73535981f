package flashroute

import (
	"context"

	"github.com/flashroute/flashroute/internal/core"
	"github.com/flashroute/flashroute/internal/core6"
)

// ScanHandleOf is a running scan started with StartScan or
// StartResumeScan on a Simulation (ScanHandle) or a Simulation6
// (ScanHandle6): poll Probes for live progress, retarget the rate with
// SetRate, Cancel for a graceful partial result, and Wait (or select on
// Done) for completion.
type ScanHandleOf[A comparable] struct {
	sc     *core.ScannerOf[A]
	cancel context.CancelFunc
	done   chan struct{}
	res    *ResultOf[A]
	err    error // written before done closes, read after
}

// ScanHandle is a running IPv4 scan; ScanHandle6 an IPv6 one.
type (
	ScanHandle  = ScanHandleOf[uint32]
	ScanHandle6 = ScanHandleOf[Addr6]
)

// startScan runs sc on its own goroutine under a cancellable ctx.
func startScan[A comparable](ctx context.Context, sc *core.ScannerOf[A]) *ScanHandleOf[A] {
	ctx, cancel := context.WithCancel(ctx)
	h := &ScanHandleOf[A]{sc: sc, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer cancel()
		h.res, h.err = run(ctx, sc)
		close(h.done)
	}()
	return h
}

// waitScan is Wait on a handle that may have failed to start.
func waitScan[A comparable](h *ScanHandleOf[A], err error) (*ResultOf[A], error) {
	if err != nil {
		return nil, err
	}
	return h.Wait()
}

// Probes returns the number of probes this run has written so far — a
// monotone live progress counter read from the engine's own atomics,
// safe from any goroutine while the scan runs. After Wait it equals the
// result's Probes for a fresh scan; a resumed scan counts only the
// probes sent since the resume.
func (h *ScanHandleOf[A]) Probes() uint64 {
	probes, _ := h.sc.LiveCounters()
	return probes
}

// SetRate retargets the scan's aggregate probing rate (see
// Scanner.SetRate). Safe from any goroutine while the scan runs; calls
// after completion are harmless no-ops on the finished scanner.
func (h *ScanHandleOf[A]) SetRate(pps int) { h.sc.SetRate(pps) }

// Cancel requests graceful cancellation: the scan stops sending, drains
// in-flight replies, writes a final checkpoint when checkpointing is
// armed, and completes with a valid partial result (Interrupted set).
func (h *ScanHandleOf[A]) Cancel() { h.cancel() }

// Done is closed when the scan has completed and its result is ready.
func (h *ScanHandleOf[A]) Done() <-chan struct{} { return h.done }

// Wait blocks until the scan completes and returns its result.
func (h *ScanHandleOf[A]) Wait() (*ResultOf[A], error) {
	<-h.done
	return h.res, h.err
}

// StartScan begins a scan asynchronously and returns a handle to it.
// Configuration errors are returned synchronously (the handle is nil);
// once a handle is returned the scan is running and will complete.
// Config.Observer is left as given: the handle counts probes without
// one.
func (s *Simulation) StartScan(ctx context.Context, cfg Config) (*ScanHandle, error) {
	s.fill(&cfg)
	sc, err := NewScanner(cfg, s.Conn(), s.clock)
	if err != nil {
		return nil, err
	}
	return startScan(ctx, sc.inner), nil
}

// StartResumeScan is StartScan over a checkpoint snapshot (see
// ResumeScanner for the configuration contract). Snapshot decode and
// validation errors — ErrCheckpointComplete included — are returned
// synchronously.
func (s *Simulation) StartResumeScan(ctx context.Context, cfg Config, snapshot []byte) (*ScanHandle, error) {
	s.fill(&cfg)
	sc, err := ResumeScanner(cfg, s.Conn(), s.clock, snapshot)
	if err != nil {
		return nil, err
	}
	return startScan(ctx, sc.inner), nil
}

// StartScan begins an IPv6 scan asynchronously; same contract as
// Simulation.StartScan.
func (s *Simulation6) StartScan(ctx context.Context, cfg Config6) (*ScanHandle6, error) {
	ecfg, conn := s.toCore6(cfg)
	sc, err := core.NewScannerOf(core6.Family(), ecfg, conn, s.clock)
	if err != nil {
		return nil, err
	}
	return startScan(ctx, sc), nil
}

// StartResumeScan begins a resumed IPv6 scan asynchronously; same
// contract as Simulation.StartResumeScan.
func (s *Simulation6) StartResumeScan(ctx context.Context, cfg Config6, snapshot []byte) (*ScanHandle6, error) {
	ecfg, conn := s.toCore6(cfg)
	sc, err := core.Resume(core6.Family(), ecfg, conn, s.clock, snapshot)
	if err != nil {
		return nil, err
	}
	return startScan(ctx, sc), nil
}
