// Command flashroute runs FlashRoute scans against the bundled Internet
// simulation, mirroring the original tool's command line.
//
// The repository is stdlib-only, so the transport is the packet-level
// simulator rather than a raw socket; every scanning code path above the
// socket (probe construction, encoding, control state, rounds, preprobing,
// discovery-optimized mode, result collection) is the real engine.
//
// Examples:
//
//	flashroute -blocks 65536 -seed 1
//	flashroute -blocks 65536 -split 32 -preprobe hitlist -extra-scans 3
//	flashroute -cidrs 10.0.0.0/12,172.16.0.0/14 -output routes.csv
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"github.com/flashroute/flashroute"
	"github.com/flashroute/flashroute/internal/metrics"
)

func main() {
	var (
		ipv6       = flag.Bool("6", false, "scan a simulated IPv6 Internet (FlashRoute6, §5.4); composes with -senders, -loss/-dup/-reorder and the retry flags")
		prefixes   = flag.Int("prefixes", 2048, "with -6: allocated /48 prefixes in the simulated IPv6 Internet")
		perPrefix  = flag.Int("per-prefix", 16, "with -6: candidate targets per prefix")
		blocks     = flag.Int("blocks", 65536, "number of /24 blocks in the simulated universe")
		cidrs      = flag.String("cidrs", "", "comma-separated CIDRs (up to /24) instead of -blocks")
		seed       = flag.Int64("seed", 1, "simulation and permutation seed")
		split      = flag.Int("split", 16, "default split TTL (paper: 16 or 32)")
		gap        = flag.Int("gap", 5, "forward-probing gap limit")
		pps        = flag.Int("pps", 100000, "probing rate in packets per second (0 = unthrottled)")
		senders    = flag.Int("senders", 1, "number of sending goroutines (1 = deterministic paper-faithful mode)")
		receivers  = flag.Int("receivers", 1, "number of reply-processing workers (1 = paper-faithful inline receiver)")
		workers    = flag.Int("workers", 1, "distributed scanning: run K worker loops over distinct vantage ingresses sharing one stop set (sim transport, IPv4 only)")
		wdTimeout  = flag.Duration("watchdog-timeout", 0, "with -workers: per-worker progress watchdog; a stalled worker's shard migrates to a peer vantage (0 disables self-healing)")
		maxMigrate = flag.Int("max-migrations", 0, "with -workers: per-shard migration budget before the coordinator abandons a failed shard (0 = default of 3, negative disables)")
		batch      = flag.Int("batch", 0, "packets per transport call on the send and receive paths (sendmmsg/recvmmsg-style batching; 0 or 1 = classic one-packet-per-call)")
		transport  = flag.String("transport", "sim", "transport backend: sim (bundled Internet simulation) or raw (Linux raw sockets; needs CAP_NET_RAW, -source and -cidrs)")
		source     = flag.String("source", "", "with -transport raw: the vantage point's source IPv4 address")
		preprobe   = flag.String("preprobe", "random", "preprobing mode: off, random, hitlist")
		span       = flag.Int("span", 5, "proximity span for distance prediction")
		noRedund   = flag.Bool("no-redundancy", false, "disable backward-probing redundancy elimination")
		exhaustive = flag.Bool("exhaustive", false, "probe every TTL 1..32 (Yarrp-32-UDP simulation mode)")
		extraScans = flag.Int("extra-scans", 0, "discovery-optimized mode: number of port-varied extra scans")
		output     = flag.String("output", "", "write discovered routes as CSV to this file")
		binOutput  = flag.String("binary-output", "", "write discovered routes in the compact binary format (summarize with frreport)")
		excludeF   = flag.String("exclude", "", "exclusion-list file (one CIDR or address per line); reserved space is always excluded")
		targetsF   = flag.String("targets", "", "exterior target file (one address per line; unlisted blocks use random representatives)")
		hitlistOut = flag.String("gen-hitlist", "", "generate the simulated census hitlist to this file and exit")
		realTime   = flag.Bool("real-time", false, "run on the wall clock instead of virtual time")

		loss          = flag.Float64("loss", 0, "independent packet loss probability (0..1)")
		burstToBad    = flag.Float64("burst-to-bad", 0, "Gilbert–Elliott good→bad transition probability per packet")
		burstToGood   = flag.Float64("burst-to-good", 0, "Gilbert–Elliott bad→good transition probability (mean burst = 1/p packets)")
		burstLoss     = flag.Float64("burst-loss", 0, "extra loss probability while in the bad state")
		dup           = flag.Float64("dup", 0, "packet duplication probability (0..1)")
		reorder       = flag.Float64("reorder", 0, "response reordering probability (needs -reorder-window)")
		reorderWindow = flag.Duration("reorder-window", 0, "reordering delay window (e.g. 30ms)")
		extraJitter   = flag.Duration("extra-jitter", 0, "extra uniform response latency jitter (e.g. 5ms)")

		preprobeRetries = flag.Int("preprobe-retries", 0, "extra preprobe passes over still-unmeasured blocks")
		forwardRetries  = flag.Int("forward-retries", 0, "per-destination forward-probing retries after silence")
		forwardTimeout  = flag.Duration("forward-timeout", 0, "silence before a forward retry fires (default 500ms)")

		checkpoint = flag.String("checkpoint", "", "write crash-safe checkpoints to this file (atomic tmp+rename); SIGINT/SIGTERM also writes a final one")
		ckptEvery  = flag.Int("checkpoint-every", 100000, "with -checkpoint: snapshot cadence in probes sent")
		resumeFrom = flag.String("resume", "", "resume a previous scan from this checkpoint file (must use the same seed and topology flags)")
		faultsSpec = flag.String("faults", "", "deterministic transport fault schedule, e.g. write:2s+500ms,stall:3s+1s,flap:4s+200ms")
		sendRetry  = flag.Int("send-retries", 0, "retry budget for transient send failures (capped exponential backoff)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the scan to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile after the scan to this file")

		footprintMode = flag.Bool("footprint", false, "print the estimated memory footprint of the configured universe (§3.4/§5.4 control state plus the result store) and exit without scanning")
	)
	flag.Parse()

	if *footprintMode {
		if *ipv6 {
			fatal(errors.New("-footprint is IPv4-only (the estimate models the /24-block DCB layout)"))
		}
		b := *blocks
		if *cidrs != "" {
			var err error
			b, err = flashroute.CountBlocks(strings.Split(*cidrs, ","))
			if err != nil {
				fatal(err)
			}
		}
		printFootprint(b)
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memProfile)

	impair := flashroute.Impairments{
		LossProb:      *loss,
		BurstToBad:    *burstToBad,
		BurstToGood:   *burstToGood,
		BurstLoss:     *burstLoss,
		DupProb:       *dup,
		ReorderProb:   *reorder,
		ReorderWindow: *reorderWindow,
		ExtraJitter:   *extraJitter,
	}
	if *faultsSpec != "" {
		faults, err := flashroute.ParseFaultSpec(*faultsSpec)
		if err != nil {
			fatal(err)
		}
		impair.Faults = faults
	}

	// SIGINT/SIGTERM trigger graceful shutdown: stop sending, drain
	// in-flight replies, emit the partial result and a final checkpoint.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch *transport {
	case "sim":
	case "raw":
		if *ipv6 {
			fatal(errors.New("-transport raw is IPv4-only (the raw-socket backend has no IPv6 path yet)"))
		}
		if *workers > 1 {
			fatal(errors.New("-workers needs the sim transport (the raw backend has a single vantage)"))
		}
		scanRaw(ctx, rawOpts{
			cidrs:           *cidrs,
			source:          *source,
			seed:            *seed,
			split:           *split,
			gap:             *gap,
			pps:             *pps,
			senders:         *senders,
			receivers:       *receivers,
			batch:           *batch,
			preprobe:        *preprobe,
			span:            *span,
			preprobeRetries: *preprobeRetries,
			forwardRetries:  *forwardRetries,
			forwardTimeout:  *forwardTimeout,
			noRedund:        *noRedund,
			exhaustive:      *exhaustive,
			sendRetries:     *sendRetry,
			checkpoint:      *checkpoint,
			ckptEvery:       *ckptEvery,
			resumeFrom:      *resumeFrom,
			excludeF:        *excludeF,
			output:          *output,
			binOutput:       *binOutput,
		})
		return
	default:
		fatal(fmt.Errorf("unknown -transport %q (sim or raw)", *transport))
	}

	if *ipv6 {
		if *workers > 1 {
			fatal(errors.New("-workers is IPv4-only on the CLI (use the frserved cluster job type for IPv6)"))
		}
		scan6(ctx, scan6Opts{
			prefixes:        *prefixes,
			perPrefix:       *perPrefix,
			seed:            *seed,
			realTime:        *realTime,
			impair:          impair,
			split:           uint8(*split),
			gap:             uint8(*gap),
			pps:             *pps,
			senders:         *senders,
			receivers:       *receivers,
			batch:           *batch,
			preprobe:        *preprobe,
			preprobeRetries: *preprobeRetries,
			forwardRetries:  *forwardRetries,
			forwardTimeout:  *forwardTimeout,
			noRedund:        *noRedund,
			checkpoint:      *checkpoint,
			ckptEvery:       *ckptEvery,
			resumeFrom:      *resumeFrom,
			sendRetries:     *sendRetry,
		})
		return
	}

	simCfg := flashroute.SimConfig{
		Blocks:   *blocks,
		Seed:     *seed,
		RealTime: *realTime,
		Impair:   impair,
	}
	if *cidrs != "" {
		simCfg.CIDRs = strings.Split(*cidrs, ",")
		simCfg.Blocks = 0
	}
	sim := flashroute.NewSimulation(simCfg)
	fmt.Printf("simulated universe: %d /24 blocks, seed %d\n", sim.Blocks(), *seed)

	if *hitlistOut != "" {
		f, err := os.Create(*hitlistOut)
		if err != nil {
			fatal(err)
		}
		if err := sim.WriteHitlist(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("hitlist written to %s\n", *hitlistOut)
		return
	}

	cfg := flashroute.DefaultConfig()
	cfg.SplitTTL = uint8(*split)
	if *gap == 0 {
		cfg.GapLimitZero = true
	} else {
		cfg.GapLimit = uint8(*gap)
	}
	if *pps == 0 {
		cfg.Unthrottled = true
	} else {
		cfg.PPS = *pps
	}
	cfg.Senders = *senders
	cfg.Receivers = *receivers
	cfg.Batch = *batch
	switch *preprobe {
	case "off":
		cfg.Preprobe = flashroute.PreprobeOff
	case "random":
		cfg.Preprobe = flashroute.PreprobeRandom
	case "hitlist":
		cfg.Preprobe = flashroute.PreprobeHitlist
		cfg.PreprobeTargets = sim.HitlistTargets()
	default:
		fatal(fmt.Errorf("unknown -preprobe %q", *preprobe))
	}
	cfg.ProximitySpan = *span
	cfg.PreprobeRetries = *preprobeRetries
	cfg.ForwardRetries = *forwardRetries
	cfg.ForwardTimeout = *forwardTimeout
	cfg.NoRedundancyElimination = *noRedund
	cfg.Exhaustive = *exhaustive
	cfg.ExtraScans = *extraScans
	cfg.CollectRoutes = *output != "" || *binOutput != ""
	cfg.SendRetries = *sendRetry
	if *checkpoint != "" {
		cfg.CheckpointSink = checkpointSink(*checkpoint)
		cfg.CheckpointEvery = *ckptEvery
	}

	if *targetsF != "" {
		f, err := os.Open(*targetsF)
		if err != nil {
			fatal(err)
		}
		targets, _, err := sim.ReadTargets(f, sim.RandomTargets())
		f.Close()
		if err != nil {
			fatal(err)
		}
		cfg.Targets = targets
	}

	excl := flashroute.ReservedExclusions()
	if *excludeF != "" {
		f, err := os.Open(*excludeF)
		if err != nil {
			fatal(err)
		}
		user, err := flashroute.ReadExclusions(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		excl.Merge(user)
	}
	cfg.Skip = sim.SkipFor(excl)

	if *workers > 1 {
		if *checkpoint != "" || *resumeFrom != "" {
			fatal(errors.New("-workers does not compose with -checkpoint/-resume (the coordinator hands shards off internally)"))
		}
		if *binOutput != "" {
			fatal(errors.New("-binary-output is not supported with -workers (use -output)"))
		}
		scanCluster(ctx, sim, cfg, flashroute.ClusterOptions{
			Workers:         *workers,
			WatchdogTimeout: *wdTimeout,
			MaxMigrations:   *maxMigrate,
		}, *output)
		return
	}

	res := scanOrResume(ctx, *resumeFrom,
		func(ctx context.Context) (*flashroute.Result, error) { return sim.ScanContext(ctx, cfg) },
		func(ctx context.Context, snap []byte) (*flashroute.Result, error) {
			return sim.ResumeScanContext(ctx, cfg, snap)
		})
	if res == nil {
		return
	}
	reportInterrupt(res.Interrupted(), *checkpoint)

	fmt.Printf("scan time:            %v\n", res.ScanTime())
	fmt.Printf("probes sent:          %d (preprobing: %d)\n", res.Probes(), res.PreprobeProbes())
	fmt.Printf("interfaces found:     %d\n", res.InterfaceCount())
	fmt.Printf("rounds:               %d\n", res.Rounds())
	fmt.Printf("distances measured:   %d, predicted: %d\n", res.DistancesMeasured(), res.DistancesPredicted())
	fmt.Printf("mismatched responses: %d (in-flight destination modification)\n", res.MismatchedResponses())

	reportResilience(res, sim.Stats())

	if *output != "" {
		f, err := os.Create(*output)
		if err != nil {
			fatal(err)
		}
		if err := res.WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("routes written to %s\n", *output)
	}
	if *binOutput != "" {
		f, err := os.Create(*binOutput)
		if err != nil {
			fatal(err)
		}
		n, err := flashroute.WriteBinary(f, res)
		if err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("%d binary records written to %s\n", n, *binOutput)
	}
}

// scanCluster runs the distributed coordinator: K in-process worker
// loops over distinct vantage ingresses, one shared stop set, merged
// conflict-aware results (DESIGN.md §13).
func scanCluster(ctx context.Context, sim *flashroute.Simulation, cfg flashroute.Config, opt flashroute.ClusterOptions, output string) {
	cfg.CollectRoutes = cfg.CollectRoutes || output != ""
	res, err := sim.ScanClusterContext(ctx, cfg, opt)
	if err != nil {
		fatal(err)
	}
	if res.Interrupted() {
		fmt.Println("scan interrupted; partial merged result follows")
	}
	fmt.Printf("scan time:            %v\n", res.ScanTime())
	fmt.Printf("probes sent:          %d (preprobing: %d)\n", res.Probes(), res.PreprobeProbes())
	fmt.Printf("interfaces found:     %d\n", res.InterfaceCount())
	fmt.Printf("worker loops:         %d (migrations: %d)\n", len(res.Workers()), res.Migrations())
	for _, f := range res.Failures() {
		fmt.Printf("  worker failure: shard %d @ vantage %d (%s)\n", f.Shard, f.Vantage, f.Cause)
	}
	if ab := res.Abandoned(); len(ab) > 0 {
		fmt.Printf("  abandoned shards: %v (migration budget exhausted; partial merge)\n", ab)
	}
	if n := res.StopSetDegraded(); n > 0 {
		fmt.Printf("  stop-set degradation episodes: %d (local-only Doubletree fallback)\n", n)
	}
	fmt.Printf("stop-set exchange:    %d published, %d adopted\n", res.StopPublished(), res.StopReceived())
	fmt.Printf("multi-path conflicts: %d (kept as multi-path observations)\n", len(res.MultiPaths()))
	for _, w := range res.Workers() {
		resumed := ""
		if w.Resumed {
			resumed = " (resumed shard)"
		}
		fmt.Printf("  worker shard %d @ vantage %d: %d blocks, %d probes, %d remote stops%s\n",
			w.Shard, w.Vantage, w.Blocks, w.ProbesSent, w.StopReceived, resumed)
	}
	if output != "" {
		f, err := os.Create(output)
		if err != nil {
			fatal(err)
		}
		if err := res.WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("merged routes written to %s\n", output)
	}
}

type scan6Opts struct {
	prefixes, perPrefix int
	seed                int64
	realTime            bool
	impair              flashroute.Impairments
	split, gap          uint8
	pps                 int
	senders             int
	receivers           int
	batch               int
	preprobe            string
	preprobeRetries     int
	forwardRetries      int
	forwardTimeout      time.Duration
	noRedund            bool
	checkpoint          string
	ckptEvery           int
	resumeFrom          string
	sendRetries         int
}

// scan6 is the -6 path: the same engine knobs (senders, impairments,
// retries, checkpointing) applied to a FlashRoute6 scan over the sparse
// IPv6 simulation.
func scan6(ctx context.Context, o scan6Opts) {
	switch o.preprobe {
	case "random":
		// The IPv6 preprobe has no target choice to make — candidate
		// lists are explicit addresses.
	case "off":
	default:
		fatal(fmt.Errorf("-preprobe %q is not available with -6 (use random or off)", o.preprobe))
	}
	sim := flashroute.NewSimulation6(flashroute.Sim6Config{
		Prefixes:         o.prefixes,
		TargetsPerPrefix: o.perPrefix,
		Seed:             o.seed,
		RealTime:         o.realTime,
		Impair:           o.impair,
	})
	targets := sim.Targets()
	fmt.Printf("simulated IPv6 Internet: %d targets across %d /48s, seed %d\n",
		len(targets), o.prefixes, o.seed)

	cfg := flashroute.Config6{
		SplitTTL:                o.split,
		GapLimit:                o.gap,
		PPS:                     o.pps,
		Senders:                 o.senders,
		Receivers:               o.receivers,
		Batch:                   o.batch,
		PreprobeOff:             o.preprobe == "off",
		PreprobeRetries:         o.preprobeRetries,
		ForwardRetries:          o.forwardRetries,
		ForwardTimeout:          o.forwardTimeout,
		NoRedundancyElimination: o.noRedund,
		SendRetries:             o.sendRetries,
	}
	if o.checkpoint != "" {
		cfg.CheckpointSink = checkpointSink(o.checkpoint)
		cfg.CheckpointEvery = o.ckptEvery
	}
	res := scanOrResume(ctx, o.resumeFrom,
		func(ctx context.Context) (*flashroute.Result6, error) { return sim.ScanContext(ctx, cfg) },
		func(ctx context.Context, snap []byte) (*flashroute.Result6, error) {
			return sim.ResumeScanContext(ctx, cfg, snap)
		})
	if res == nil {
		return
	}
	reportInterrupt(res.Interrupted(), o.checkpoint)
	fmt.Printf("scan time:            %v\n", res.ScanTime())
	fmt.Printf("probes sent:          %d (%.2f per target)\n",
		res.Probes(), float64(res.Probes())/float64(len(targets)))
	fmt.Printf("interfaces found:     %d\n", res.InterfaceCount())
	fmt.Printf("targets reached:      %d\n", res.ReachedCount())
	fmt.Printf("distances measured:   %d, same-prefix predicted: %d\n",
		res.DistancesMeasured(), res.DistancesPredicted())

	reportResilience(res, sim.Stats())
}

// checkpointSink returns a CheckpointSink that persists snapshots
// atomically: each one is written to a temp file and renamed over the
// target, so a crash mid-write never leaves a truncated checkpoint.
func checkpointSink(path string) func([]byte) error {
	return func(snapshot []byte) error {
		tmp := path + ".tmp"
		if err := os.WriteFile(tmp, snapshot, 0o644); err != nil {
			return err
		}
		return os.Rename(tmp, path)
	}
}

// scanOrResume runs scan, or resume over the checkpoint at path when path
// is set. It returns nil when that checkpoint records a finished scan.
func scanOrResume[A comparable](ctx context.Context, path string,
	scan func(context.Context) (*flashroute.ResultOf[A], error),
	resume func(context.Context, []byte) (*flashroute.ResultOf[A], error)) *flashroute.ResultOf[A] {
	var res *flashroute.ResultOf[A]
	var err error
	if path != "" {
		snap, rerr := os.ReadFile(path)
		if rerr != nil {
			fatal(rerr)
		}
		fmt.Printf("resuming from checkpoint %s\n", path)
		res, err = resume(ctx, snap)
		if errors.Is(err, flashroute.ErrCheckpointComplete) {
			fmt.Printf("checkpoint %s is from a completed scan; nothing to resume\n", path)
			return nil
		}
	} else {
		res, err = scan(ctx)
	}
	if err != nil {
		fatal(err)
	}
	return res
}

// reportResilience prints the impairment, retry and error counters when
// any is non-zero, and warns about checkpoints that failed to persist. st
// is the simulated network's side (zero for a real network).
func reportResilience[A comparable](res *flashroute.ResultOf[A], st flashroute.SimStats) {
	resil := metrics.Resilience{
		ProbesLost:          st.ProbesLost,
		RepliesLost:         st.RepliesLost,
		Duplicates:          st.Duplicates,
		Reordered:           st.Reordered,
		Retransmitted:       res.RetransmittedProbes(),
		DuplicatesDiscarded: res.DuplicateResponses(),
		ReadErrors:          res.ReadErrors(),
		SendErrors:          res.SendErrors(),
		SendRetries:         res.SendRetries(),
	}
	if resil.Any() {
		if err := resil.WriteText(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if n := res.CheckpointErrors(); n > 0 {
		fmt.Fprintf(os.Stderr, "flashroute: %d checkpoint(s) failed to persist\n", n)
	}
}

// reportInterrupt tells the user a cancelled scan's results are partial
// and where the final checkpoint went.
func reportInterrupt(interrupted bool, checkpoint string) {
	if !interrupted {
		return
	}
	if checkpoint != "" {
		fmt.Printf("scan interrupted; partial results below, final checkpoint written to %s\n", checkpoint)
	} else {
		fmt.Println("scan interrupted; partial results below (use -checkpoint to make runs resumable)")
	}
}

// writeMemProfile snapshots the heap after the scan (post-GC, so live
// memory rather than garbage dominates the profile).
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

// printFootprint is the -footprint planning mode: the §3.4/§5.4 memory
// math for the configured universe, priced before committing to a scan.
func printFootprint(blocks int) {
	fp := flashroute.EstimateFootprint(blocks)
	fmt.Printf("universe:          %d /24 blocks\n", fp.Blocks)
	fmt.Printf("control state:\n")
	fmt.Printf("  DCB array:       %s\n", fmtBytes(fp.DCBBytes))
	fmt.Printf("  per-DCB locks:   %s\n", fmtBytes(fp.LockBytes))
	fmt.Printf("  side arrays:     %s\n", fmtBytes(fp.SideBytes))
	fmt.Printf("result store:      %s  (routes collected; every block responding)\n",
		fmtBytes(fp.ResultBytes))
	fmt.Printf("total:             %s\n", fmtBytes(fp.Total()))
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flashroute:", err)
	os.Exit(1)
}
