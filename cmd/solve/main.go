// Command solve runs one fault-tolerant iterative solve end to end:
// it builds a 3D Poisson system, solves it with the chosen method and
// checkpointing scheme, optionally injecting failures, and reports the
// outcome.
//
// Usage:
//
//	solve -method cg -grid 16 -scheme lossy -eb 1e-4 -mtti 300
//	solve -method jacobi -grid 12 -scheme traditional -ckptdir /tmp/ck
//	solve -method cg -grid 16 -scheme lossy -mtti 300 -async
//	solve -method cg -grid 16 -scheme lossy -mtti 300 -async -shards 8 -storage-workers 4
//	solve -method jacobi -grid 12 -scheme lossy -mtti 300 -adaptive -prior-mtti 3600
//	solve -method gmres -scheme lossy -async -inject 'proc@40,midckpt@80'
//
// Every run with a checkpoint scheme is one call of core.Drive, the
// checkpoint-lifecycle loop, and the flags pick its three inputs. By
// default the clock is virtual, the costs are the Bebop cluster model's
// at 2,048 ranks, and -mtti draws exponential failure times (sim.Run);
// -inject switches to the wall clock, measured costs, and a seeded
// step-keyed fault plan. The outcome — checkpoint, backpressure and
// recovery time, per-tier recovery counts, read traffic, the interval
// trajectory — is accounted and printed the same way either way.
//
// -adaptive replaces the fixed (or Young-probed) checkpoint interval
// with the online controller: per-checkpoint costs and the failure
// rate are estimated from the run itself (the controller is never told
// C, R, or λ — only -prior-mtti seeds its failure-rate prior), and the
// interval is re-planned from the Young/Daly fixed point after every
// observation, in seconds of whichever clock the run is on. The
// interval trajectory is printed at the end of the run alongside a
// per-phase cost table (capture/encode/write/restart, modeled at
// cluster scale vs measured in-process).
//
// -recovery-tiers arms rung 0 of the recovery chain: an ABFT guard
// retains per-iteration redundancy (exact-state for CG, periodic
// retained solutions for the stationary methods) and every failure
// tries checkpoint-free algorithmic reconstruction first. With or
// without it every failure walks the rest of the chain: the latest
// checkpoint, an older checkpoint, and finally restart-from-zero.
// Simulated runs price ABFT recoveries in local-solve iterations (no
// PFS reads); all runs report per-tier counts and read traffic.
//
// -inject runs the solve for real under a seeded deterministic fault
// plan and prints a per-failure table of the tier each recovery used,
// e.g. -inject 'proc@50,abft+proc@120,manifest+proc@200'. The spec
// grammar and the nine kinds are package failure's (README,
// "Fault-injection spec"). An event strikes when the solver's iteration
// counter reaches N, before any checkpoint due at that iteration is
// taken. Corruption kinds without proc/midckpt are latent and surface at
// the next recovery. midckpt and crash land inside a checkpoint window:
// a save opens at N — whether or not one was due there anyway — never
// commits, and the process is lost; crash also kills the store
// mid-commit, which is revived and fsck-swept before recovery runs.
// -inject excludes -mtti, and the abft kind needs -recovery-tiers; in
// this mode -interval is a checkpoint cadence in iterations (default
// 25).
//
// Observability: -metrics-out writes the end-of-run metrics snapshot
// as JSON, -trace-out writes a Chrome trace_event file (load it at
// chrome://tracing or https://ui.perfetto.dev), and -debug-addr
// serves /metrics (Prometheus text), /trace, /report and /debug/pprof
// live while the solve runs. The run report, the cost table and a
// metrics summary are emitted on every exit path — success, error,
// -scheme none and injected runs alike. With -inject -async the trace
// shows the background encode/write spans overlapping solver
// iterations on real clocks; simulated runs emit the same span schema
// in virtual time.
//
// Storage resilience (-storage-retries, -storage-timeout,
// -scrub-interval, -storage-fault-rate; on-disk checkpoint directories
// are fsck-swept at startup) and the striped single-writer cost model
// that passing -shards at all switches to (-shards 1 included, so
// monolithic and sharded runs compare within one model) are described
// flag by flag in the README, "Storage fault model" and "cmd/solve
// flags".
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/abft"
	"repro/internal/adapt"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fti"
	"repro/internal/model"
	"repro/internal/precond"
	"repro/internal/quality"
	"repro/internal/sim"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/sz"
	"repro/internal/vec"
)

func main() {
	o, err := parseOptions(os.Args[1:])
	if err == nil {
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "solve:", err)
		os.Exit(1)
	}
}

// options is the command line: filled by flag, checked by validate,
// and the one value run takes.
type options struct {
	args string // the command line as typed, for the run report

	method, scheme, ckptDir, inject            string
	debugAddr, metricsOut, traceOut, reportOut string
	grid, maxIter, shards, storageWorkers      int
	storageRetries, qualitySample              int
	seed                                       int64
	rtol, eb, interval, mtti, tit, prior       float64
	faultRate                                  float64
	storageTimeout, scrubEvery                 time.Duration
	async, adaptive, tiers                     bool
	quality, qualityExhaustive                 bool
	// striped is whether -shards was given at all — including -shards
	// 1, so monolithic and sharded runs compare within the single-writer
	// striped cost model instead of across two.
	striped bool
	// plan is -inject parsed (nil without it); validate fills it.
	plan *failure.Plan
}

func parseOptions(args []string) (options, error) {
	o := options{args: strings.Join(args, " ")}
	fs := flag.NewFlagSet("solve", flag.ContinueOnError)
	fs.StringVar(&o.method, "method", "cg", "iterative method: jacobi | gs | sor | ssor | cg | gmres")
	fs.IntVar(&o.grid, "grid", 14, "Poisson grid dimension (n³ unknowns)")
	fs.Float64Var(&o.rtol, "rtol", 1e-7, "relative convergence tolerance")
	fs.StringVar(&o.scheme, "scheme", "lossy", "checkpoint scheme: traditional | lossless | lossy | none")
	fs.Float64Var(&o.eb, "eb", 1e-4, "lossy pointwise-relative error bound")
	fs.Float64Var(&o.interval, "interval", 0, "checkpoint interval in simulated seconds (0 = Young-optimal); under -inject, in iterations (0 = 25)")
	fs.Float64Var(&o.mtti, "mtti", 0, "mean time to interruption in simulated seconds (0 = no failures)")
	fs.Float64Var(&o.tit, "tit", 1, "simulated seconds per iteration")
	fs.Int64Var(&o.seed, "seed", 1, "failure-injection seed")
	fs.StringVar(&o.ckptDir, "ckptdir", "", "write checkpoints to this directory (default: in-memory)")
	fs.IntVar(&o.maxIter, "maxiter", 2_000_000, "iteration cap")
	fs.BoolVar(&o.async, "async", false, "asynchronous checkpointing: charge only the capture stall; encode+write overlap iterations")
	fs.IntVar(&o.shards, "shards", 1, "shard objects per checkpoint (>1 writes shards + a manifest; passing the flag at all prices writes with the single-writer striped-PFS model)")
	fs.IntVar(&o.storageWorkers, "storage-workers", 0, "worker pool bound for shard writes/reads (0 = GOMAXPROCS)")
	fs.IntVar(&o.storageRetries, "storage-retries", 4, "max retries per storage op for transient faults (0 disables the resilient wrapper)")
	fs.DurationVar(&o.storageTimeout, "storage-timeout", 0, "per-op retry budget: an op gives up once its cumulative backoff would exceed this (0 = no budget)")
	fs.DurationVar(&o.scrubEvery, "scrub-interval", 0, "background scrubber sweep cadence (0 = scrubbing off)")
	fs.Float64Var(&o.faultRate, "storage-fault-rate", 0, "seeded per-attempt transient storage-fault probability, injected beneath the retry layer (0 = none)")
	fs.BoolVar(&o.adaptive, "adaptive", false, "adaptive checkpoint interval: estimate costs and failure rate online, re-plan the Young/Daly fixed point each epoch")
	fs.Float64Var(&o.prior, "prior-mtti", 3600, "adaptive controller's prior mean time to interruption in seconds (its only a-priori knowledge)")
	fs.BoolVar(&o.tiers, "recovery-tiers", false, "arm the ABFT guard: every failure tries algorithmic reconstruction before the latest checkpoint, older checkpoints and restart-from-zero")
	fs.StringVar(&o.inject, "inject", "", "seeded fault plan 'kind(+kind)*@iterspec,...' (kinds proc|abft|shard|manifest|midckpt|storagewrite|storageread|slowio|crash; iterspec N or N..M[/S]) driving the real solve on the wall clock; excludes -mtti, the abft kind needs -recovery-tiers")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve /metrics, /trace, /report, and /debug/pprof on this address (e.g. localhost:6060) while the run is live")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write the end-of-run metrics snapshot as JSON to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the end-of-run Chrome trace_event JSON to this file")
	fs.BoolVar(&o.quality, "quality", false, "numerical telemetry: audit per-checkpoint distortion against the live state (sampled) and attribute post-recovery convergence delay")
	fs.IntVar(&o.qualitySample, "quality-sample", 4, "audit every Nth committed checkpoint (1 = every checkpoint)")
	fs.BoolVar(&o.qualityExhaustive, "quality-exhaustive", false, "audit every checkpoint and decode-verify every audited vector (implies -quality)")
	fs.StringVar(&o.reportOut, "report-out", "", "write the versioned JSON run report (cost table, metrics, per-checkpoint quality, recovery attributions, stability verdict) to this file (implies -quality)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	fs.Visit(func(f *flag.Flag) { o.striped = o.striped || f.Name == "shards" })
	o.quality = o.quality || o.qualityExhaustive || o.reportOut != ""
	return o, nil
}

var (
	stationaryKinds = map[string]solver.StationaryKind{
		"jacobi": solver.KindJacobi, "gs": solver.KindGaussSeidel, "sor": solver.KindSOR, "ssor": solver.KindSSOR,
	}
	schemes = map[string]core.Scheme{
		"traditional": core.Traditional, "lossless": core.Lossless, "lossy": core.Lossy,
	}
)

// validate rejects every combination of flags the run could not honour
// — a flag is acted on or refused, never ignored — and parses the fault
// plan.
func (o *options) validate() error {
	_, stationary := stationaryKinds[o.method]
	if !stationary && o.method != "cg" && o.method != "gmres" {
		return fmt.Errorf("unknown method %q", o.method)
	}
	if _, ok := schemes[o.scheme]; !ok && o.scheme != "none" {
		return fmt.Errorf("unknown scheme %q", o.scheme)
	}
	for _, f := range []struct {
		name string
		got  any
		ok   bool
		want string
	}{
		{"-grid", o.grid, o.grid >= 1, "at least 1"},
		{"-eb", o.eb, o.eb > 0 && !math.IsInf(o.eb, 0), "a positive finite bound"},
		{"-interval", o.interval, o.interval >= 0 && !math.IsInf(o.interval, 0), "0 (the default cadence) or a positive finite length"},
		{"-mtti", o.mtti, o.mtti >= 0, "0 (no failures) or positive"},
		{"-maxiter", o.maxIter, o.maxIter >= 0, "0 (the default cap) or positive"},
		{"-shards", o.shards, o.shards >= 0, "0 or 1 (one monolithic object) or a shard count"},
		{"-storage-retries", o.storageRetries, o.storageRetries >= 0, "0 (no resilient wrapper) or positive"},
		{"-quality-sample", o.qualitySample, o.qualitySample >= 1, "at least 1 (1 = every checkpoint)"},
	} {
		if !f.ok {
			return fmt.Errorf("%s %v is out of range: want %s", f.name, f.got, f.want)
		}
	}
	if o.inject != "" && o.interval != math.Trunc(o.interval) {
		return fmt.Errorf("-interval %v: under -inject the interval counts iterations, so it must be a whole number", o.interval)
	}
	if o.adaptive && o.interval > 0 {
		return fmt.Errorf("-adaptive and -interval are mutually exclusive (the controller owns the cadence)")
	}
	if o.inject != "" && o.mtti > 0 {
		return fmt.Errorf("-inject and -mtti are mutually exclusive (seeded plan vs random virtual-time failures)")
	}
	if o.scheme == "none" {
		// Nothing is checkpointed, so nothing can fail, recover or be
		// planned: -scheme none is the failure-free baseline solve.
		for _, f := range []struct {
			name string
			set  bool
		}{{"-recovery-tiers", o.tiers}, {"-mtti", o.mtti > 0}, {"-inject", o.inject != ""}, {"-adaptive", o.adaptive}} {
			if f.set {
				return fmt.Errorf("%s needs a checkpoint scheme (-scheme none is the failure-free baseline: nothing is saved, so nothing can fail, recover or be planned)", f.name)
			}
		}
	}
	if o.tiers && o.method == "gmres" {
		return fmt.Errorf("-recovery-tiers is not supported for method %q (need cg or a stationary method)", o.method)
	}
	if o.inject == "" {
		return nil
	}
	plan, err := failure.ParsePlan(o.inject, o.seed)
	if err != nil {
		return err
	}
	if !o.tiers && planHas(plan, failure.CorruptABFT) {
		return fmt.Errorf("-inject kind %q corrupts the ABFT guard's retained state and needs -recovery-tiers to arm one", failure.CorruptABFT)
	}
	o.plan = plan
	return nil
}

// planHas reports whether any scheduled event carries one of kinds.
func planHas(plan *failure.Plan, kinds ...failure.Kind) bool {
	if plan == nil {
		return false
	}
	for _, ev := range plan.Events() {
		for _, k := range ev.Kinds {
			if slices.Contains(kinds, k) {
				return true
			}
		}
	}
	return false
}

func run(o options) (err error) {
	// The reporter exists before anything can fail and is deferred, so
	// the run report, cost table, metrics summary and observability
	// artifacts come out on EVERY exit path — rejected flags, setup
	// errors, -scheme none, converged, errored, or injected.
	rep := newReporter(o)
	defer rep.emit()
	defer func() {
		if err != nil {
			rep.update(func(ri *quality.RunInfo) { ri.Exit = "error: " + err.Error() })
		}
	}()
	if err := o.validate(); err != nil {
		return err
	}
	a := sparse.Poisson3D(o.grid)
	b := sparse.OnesRHS(a.Rows)
	rep.update(func(ri *quality.RunInfo) { ri.Unknowns, ri.Operator = a.Rows, a.Kernel() })
	system := fmt.Sprintf("system: 3D Poisson %d³ = %d unknowns, %d nonzeros, operator %s", o.grid, a.Rows, a.NNZ(), a.Kernel())
	var m *precond.IC0
	if o.method == "cg" {
		if m, err = precond.NewIC0(a); err != nil {
			return err
		}
		pre := "ic0/" + m.Kernel()
		rep.update(func(ri *quality.RunInfo) { ri.Precond = pre })
		system += ", preconditioner " + pre
	}
	fmt.Println(system)

	var s solver.Checkpointable
	var co *abft.ChecksumOperator
	sopts := solver.Options{RTol: o.rtol}
	gcfg := abft.Config{Seed: o.seed, Method: abft.BackwardForward}
	switch o.method {
	case "cg":
		op := solver.Operator(a)
		if o.tiers {
			// Huang–Abraham checksum augmentation: every operator
			// application is verified against precomputed column sums, so
			// silent corruption surfaces before it contaminates the
			// retained ABFT redundancy.
			co = abft.NewChecksumOperator(a)
			op = co
		}
		s = solver.NewCG(op, m, b, nil, solver.SeqSpace{}, sopts)
		gcfg.Method = abft.ExactState
	case "gmres":
		s = solver.NewGMRES(a, nil, b, nil, 30, solver.SeqSpace{}, sopts)
	default:
		omega := map[string]float64{"sor": 1.5, "ssor": 1.2}[o.method]
		if s, err = solver.NewStationary(stationaryKinds[o.method], a, b, nil, omega, sopts); err != nil {
			return err
		}
	}
	if o.scheme == "none" {
		res, err := solver.RunToConvergence(s, solver.Options{MaxIter: o.maxIter}, nil)
		if err != nil {
			return err
		}
		rep.update(func(ri *quality.RunInfo) {
			ri.Iterations, ri.Converged, ri.FinalResidual = res.Iterations, res.Converged, res.FinalResidual
		})
		fmt.Printf("converged=%v iterations=%d residual=%.3e\n", res.Converged, res.Iterations, res.FinalResidual)
		return nil
	}
	var guard *abft.Guard
	if o.tiers {
		if guard, err = abft.NewGuard(a, b, s, gcfg); err != nil {
			return err
		}
		fmt.Printf("recovery tiers armed: %s ABFT guard, %d logical ranks\n", guard.Method(), guard.Ranks())
	}
	scheme := schemes[o.scheme]
	injected := o.plan != nil

	// The storage stack, bottom up: the real store, the fault injector
	// (only when a campaign or plan needs one), and the resilient retry
	// wrapper on top — so injected transient faults are absorbed by
	// retries before the checkpoint layer ever sees them.
	var baseStorage fti.Storage = fti.NewMemStorage()
	if o.ckptDir != "" {
		if baseStorage, err = fti.NewDirStorage(o.ckptDir); err != nil {
			return err
		}
		// Crash-consistency sweep: a previous run may have died
		// mid-commit, leaving temp files, orphan shards, or manifest-less
		// groups. Fsck GCs them so List only exposes fully committed
		// checkpoints.
		frep, err := fti.Fsck(baseStorage)
		if err != nil {
			return fmt.Errorf("fsck %s: %w", o.ckptDir, err)
		}
		if !frep.Clean() {
			fmt.Println(frep)
		}
	}
	storage := baseStorage
	var injector *failure.StorageInjector
	if o.faultRate > 0 || planHas(o.plan, failure.StorageWriteFault, failure.StorageReadFault, failure.SlowIO, failure.Crash) {
		injector = failure.NewStorageInjector(storage, o.seed, failure.StorageProfile{Rate: o.faultRate})
		storage = injector
	}
	var resilient *fti.Resilient
	if o.storageRetries > 0 {
		resilient = fti.NewResilient(storage, fti.FaultPolicy{MaxRetries: o.storageRetries, OpBudget: o.storageTimeout, Seed: o.seed})
		resilient.Instrument(rep.reg)
		storage = resilient
	}
	mcfg := core.Config{
		Scheme:         scheme,
		SZParams:       sz.Params{Mode: sz.PWRel, ErrorBound: o.eb},
		Shards:         o.shards,
		StorageWorkers: o.storageWorkers,
		ABFT:           guard,
		// Under an injected-fault campaign a save that exhausts its
		// retries degrades — the group fails, the counter bumps, and the
		// solver keeps iterating toward the next interval — instead of
		// killing the run.
		DegradedWrites: injector != nil,
		// Modelled costs need a synchronous Manager (the driver prices
		// the overlap itself); the injected run uses the actual async
		// pipeline so its overlap shows up on the trace's wall clocks.
		Async: o.async && injected,
	}
	if injected && !o.adaptive {
		// On the wall clock -interval counts iterations.
		if mcfg.Interval = int(o.interval); mcfg.Interval <= 0 {
			mcfg.Interval = 25
		}
		rep.update(func(ri *quality.RunInfo) { ri.Interval = mcfg.Interval })
	}
	mgr, err := core.NewManager(mcfg, storage, s)
	if err != nil {
		return err
	}
	rep.mgr = mgr
	var scrubber *fti.Scrubber
	if o.scrubEvery > 0 {
		scrubber = fti.NewScrubber(storage)
		scrubber.Instrument(rep.reg, rep.tr)
		mgr.Checkpointer().AttachScrubber(scrubber)
		if err := scrubber.Start(o.scrubEvery); err != nil {
			return err
		}
		defer scrubber.Stop()
	}
	// Storage-resilience accounting prints on every exit path, after the
	// scrubber has stopped (LIFO) so its final sweep is counted.
	defer func() {
		if scrubber != nil {
			ss := scrubber.Stats()
			fmt.Printf("scrubber: sweeps=%d verified=%d corruptions=%d repairs=%d dropped=%d\n",
				ss.Sweeps, ss.Verified, ss.Corruptions, ss.Repairs, ss.Dropped)
		}
		if resilient != nil {
			if rs := resilient.Stats(); rs.Retries > 0 || rs.Exhausted > 0 || rs.Permanent > 0 {
				fmt.Printf("storage resilience: ops=%d retries=%d recovered=%d exhausted=%d permanent=%d backoff=%.1fms\n",
					rs.Ops, rs.Retries, rs.Recovered, rs.Exhausted, rs.Permanent, 1e3*rs.RetryDelay.Seconds())
			}
		}
		if injector != nil {
			is := injector.Stats()
			fmt.Printf("storage injection: write-faults=%d read-faults=%d transient=%d permanent=%d slow=%d\n",
				is.WriteFaults, is.ReadFaults, is.TransientFaults, is.PermanentFaults, is.SlowOps)
		}
		if n := mgr.DegradedSaves(); n > 0 {
			fmt.Printf("degraded saves: %d checkpoint(s) failed and were skipped (last: %v)\n", n, mgr.LastSaveError())
		}
	}()
	if injected {
		// Measured run: the Manager and pipeline draw their own spans on
		// the wall clock.
		mgr.Instrument(rep.reg, rep.tr)
	} else {
		// Modelled run: the driver owns the trace (same span schema,
		// virtual clock); the Manager still exports metrics.
		mgr.Instrument(rep.reg, nil)
	}
	// Numerical telemetry: the auditor is a pure observer (sampled
	// decode-on-the-fly distortion audits, recovery-delay attribution),
	// so arming it never perturbs the solve trajectory.
	if o.quality {
		rep.qa = quality.New(quality.Config{
			SampleEvery: o.qualitySample,
			Exhaustive:  o.qualityExhaustive,
			BNorm:       vec.Norm2(b), // the ‖b‖ the stability verdict normalizes residuals against
			StabilityC:  1,
		})
		rep.qa.Instrument(rep.reg, rep.tr)
		mgr.InstrumentQuality(rep.qa)
		every, mode := o.qualitySample, "encode-path stats"
		if o.qualityExhaustive || every < 1 {
			every = 1
		}
		if o.qualityExhaustive {
			mode = "exhaustive decode verification"
		}
		fmt.Printf("quality telemetry: auditing every %d committed checkpoint(s), %s\n", every, mode)
	}
	if err := core.RegisterStatics(mgr.Checkpointer(), a, b); err != nil {
		return err
	}

	// Cost the checkpoints with the Bebop model at 2,048 processes so
	// the Young-optimal interval is meaningful.
	cm := &costModel{mdl: cluster.Bebop(), scheme: clusterScheme(scheme), raw: float64(a.Rows) * 8, o: o}
	rep.cm = cm
	var ctrl *adapt.Controller
	if o.adaptive {
		// The controller learns C, R, and λ from the run itself, on the
		// run's own clock; the prior MTTI is its only seed. It plans the
		// async fixed point (AsyncEffectiveStall) when the pipeline is
		// overlapped.
		if ctrl, err = adapt.New(adapt.Config{PriorMTTI: o.prior, Async: o.async}); err != nil {
			return err
		}
		ctrl.Instrument(rep.reg)
		fmt.Printf("adaptive interval: prior MTTI %g s, bootstrap interval %g s\n", o.prior, ctrl.Interval(0))
	}
	x0 := make([]float64, a.Rows)
	var out *sim.Outcome
	var src *planSource
	if injected {
		// Corruption helpers damage objects on the BASE store, bypassing
		// the injector (their writes must not consume armed faults) and
		// the retry layer (a corruption is not an op to retry).
		src = &planSource{plan: o.plan, s: s, mgr: mgr, guard: guard, storage: baseStorage, injector: injector}
		fmt.Printf("injection plan: %d events", len(o.plan.Events()))
		if !o.adaptive {
			fmt.Printf(", checkpoint every %d iterations", mcfg.Interval)
		}
		fmt.Println()
		out, err = core.Drive(core.DriveConfig{
			Stepper: s, Manager: mgr, X0: x0,
			Failures: src, OnStep: src.onStep, Controller: ctrl,
			MaxIterations: o.maxIter, Metrics: rep.reg, Tracer: rep.tr, Quality: rep.qa,
		})
		if err == nil {
			err = src.err
		}
	} else {
		interval := o.interval
		if !o.adaptive && interval == 0 {
			probe, err := mgr.Checkpoint()
			if err != nil {
				return err
			}
			// Young's interval balances the failure rate against the cost
			// the solver actually pays per checkpoint: the full write in
			// sync mode, the capture stall alone in async mode. The async
			// interval is floored at the background encode+write time —
			// checkpointing faster than the pipeline drains only converts
			// the hidden cost back into backpressure stall.
			perCkpt := cm.checkpoint(probe)
			if o.async {
				perCkpt = cm.capture(probe)
			}
			interval = model.YoungInterval(o.mtti, perCkpt)
			if o.async && interval < cm.checkpoint(probe) {
				interval = cm.checkpoint(probe)
			}
			if interval == 0 {
				interval = 100 * o.tit
			}
			fmt.Printf("Young-optimal interval: %.0f simulated seconds\n", interval)
		}
		rep.update(func(ri *quality.RunInfo) { ri.Interval = int(interval) })
		out, err = sim.Run(sim.Config{
			Stepper:             s,
			Manager:             mgr,
			X0:                  x0,
			TitSeconds:          o.tit,
			IntervalSeconds:     interval,
			Controller:          ctrl,
			CheckpointSeconds:   cm.checkpoint,
			RecoverySeconds:     cm.recovery,
			StorageRetrySeconds: cm.storageRetry,
			AsyncCheckpoint:     o.async,
			CaptureSeconds:      cm.capture,
			ABFTSeconds:         cm.abft,
			Failures:            failure.NewInjector(o.mtti, o.seed),
			MaxIterations:       o.maxIter,
			Metrics:             rep.reg,
			Tracer:              rep.tr,
			Quality:             rep.qa,
		})
	}
	if err != nil {
		return err
	}
	rep.update(func(ri *quality.RunInfo) {
		ri.Iterations, ri.Converged, ri.FinalResidual = out.IterationsExecuted, out.Converged, out.FinalResidual
	})
	printOutcome(o, out)
	if co != nil && injected {
		fmt.Printf("checksum operator: %d applications, %d mismatches\n", co.Applications(), co.Mismatches())
	}
	if guard != nil && injected {
		st := guard.Stats()
		fmt.Printf("abft guard: observes=%d reconstructions=%d rejected=%d local-iterations=%d\n",
			st.Observes, st.Reconstructions, st.Rejected, st.LocalIterations)
	}
	if injected {
		src.printTable(out, cm, mgr.LastInfo())
		if n := len(o.plan.Events()); n > 0 {
			fmt.Printf("injection plan: %d event(s) never fired (the solve ended at iteration %d)\n", n, s.Iteration())
		}
	}
	if info := mgr.LastInfo(); info.Bytes > 0 {
		fmt.Printf("last checkpoint: %d bytes (ratio %.1fx, encoder %s)\n",
			info.Bytes, info.CompressionRatio, info.EncoderName)
		if info.Shards > 1 {
			fmt.Printf("sharded: %d shard objects + manifest, %d storage workers, striped write bandwidth %.2f GB/s\n",
				info.Shards, o.storageWorkers, cm.mdl.StripedWriteBandwidth(info.Shards)/1e9)
		}
	}
	// On simulated failure runs, measure one real restart so the
	// in-process R (streaming shard-parallel restore) can be compared
	// against the modeled ShardedRecoverySeconds at cluster scale.
	if o.mtti > 0 && mgr.HasCheckpoint() {
		info := mgr.LastInfo()
		// Detach the auditor first: the measurement is not a failure, so
		// it must not add a recovery-attribution entry to the report.
		mgr.InstrumentQuality(nil)
		start := time.Now()
		it, err := mgr.Recover()
		if err != nil {
			return fmt.Errorf("restart measurement: %w", err)
		}
		wall := time.Since(start).Seconds()
		rep.measuredRestart = wall
		fmt.Printf("restart: measured %.2f ms wall for %d encoded bytes (%.1f MB/s, rolled back to iteration %d)\n",
			1e3*wall, info.Bytes, float64(info.Bytes)/math.Max(wall, 1e-12)/1e6, it)
		fmt.Printf("restart: modeled R=%.2fs at 2048 ranks (%d shard objects)\n",
			cm.recovery(info), max(info.Shards, 1))
	}
	return nil // the deferred reporter prints the cost table and metrics
}

// printOutcome renders what the driver accounted — the same lines for
// a simulated run (virtual seconds) and an injected one (stopwatch
// milliseconds).
func printOutcome(o options, out *sim.Outcome) {
	clock := "sim"
	dur := func(simFormat string, sec float64) string { return fmt.Sprintf(simFormat+"s", sec) }
	if o.plan != nil {
		clock = "wall"
		dur = func(_ string, sec float64) string { return fmt.Sprintf("%.3gms", 1e3*sec) }
	}
	fmt.Printf("converged=%v iterations=%d %s-time=%s failures=%d checkpoints=%d\n",
		out.Converged, out.IterationsExecuted, clock, dur("%.0f", out.SimSeconds), out.Failures, out.Checkpoints)
	fmt.Printf("checkpoint-time=%s recovery-time=%s final-residual=%.3e\n",
		dur("%.1f", out.CheckpointTime), dur("%.0f", out.RecoveryTime), out.FinalResidual)
	if o.tiers || o.plan != nil {
		fmt.Printf("recovery tiers: abft=%d checkpoint-restart=%d restart-zero=%d pfs-read-bytes=%d\n",
			out.ABFTRecoveries, out.CheckpointRestarts, out.FreshRestarts, out.RecoveryReadBytes)
	}
	if o.async {
		fmt.Printf("async: aborted-in-flight=%d backpressure=%s (stall is capture-only when 0)\n",
			out.AbortedCheckpoints, dur("%.1f", out.BackpressureTime))
	}
	if o.faultRate > 0 && o.plan == nil {
		fmt.Printf("storage faults: rate=%.3g priced retry delay %.2fs across %d checkpoints\n",
			o.faultRate, out.StorageRetryTime, out.Checkpoints)
	}
	if plans := out.IntervalPlans; len(plans) > 0 {
		last := plans[len(plans)-1]
		fmt.Printf("adaptive: %d re-plans; final interval %s (estimated MTTI %s, per-checkpoint cost %s)\n",
			len(plans), dur("%.0f", last.Interval), dur("%.0f", 1/last.Lambda), dur("%.2f", last.Cost))
		fmt.Printf("interval trajectory (%s-time  interval  est-MTTI  est-cost  est-ratio):\n", clock)
		row := func(p adapt.Plan) {
			fmt.Printf("  %9s %9s %9s %9s %8.1fx\n", dur("%.0f", p.When), dur("%.0f", p.Interval),
				dur("%.0f", 1/p.Lambda), dur("%.2f", p.Cost), p.Ratio)
		}
		step := (len(plans) + 11) / 12 // at most ~12 rows plus the final one
		for i := 0; i < len(plans); i += step {
			row(plans[i])
		}
		if (len(plans)-1)%step != 0 {
			row(last)
		}
	}
}

// clusterScheme maps the checkpoint scheme onto the cluster model's.
func clusterScheme(s core.Scheme) cluster.Scheme {
	switch s {
	case core.Lossless:
		return cluster.LosslessCompressed
	case core.Lossy:
		return cluster.LossyCompressed
	}
	return cluster.Uncompressed
}

// costModel is the run's modelled cost source: the Bebop cluster model
// at 2,048 ranks, applied to what each checkpoint actually wrote.
type costModel struct {
	mdl    *cluster.Model
	scheme cluster.Scheme
	raw    float64 // bytes of one uncompressed state vector
	o      options
}

// shardsOf is the layout a checkpoint was written in (the flag's when
// the Info predates any save).
func (c *costModel) shardsOf(info fti.Info) int {
	if info.Shards >= 1 {
		return info.Shards
	}
	return c.o.shards
}

func (c *costModel) checkpoint(info fti.Info) float64 {
	if c.o.striped {
		// Single-writer object writes under the striped-PFS model,
		// engaging min(shards, stripes) stripes — used for every value of
		// -shards (1 included) so monolithic and sharded runs compare
		// within the same model.
		return c.mdl.ShardedCheckpointSeconds(2048, float64(info.Bytes), c.raw, c.scheme, c.shardsOf(info))
	}
	return c.mdl.CheckpointSeconds(2048, float64(info.Bytes), c.raw, c.scheme)
}

func (c *costModel) recovery(info fti.Info) float64 {
	if c.o.striped {
		// Restarts priced like the write path: a sharded group streams
		// through min(shards, stripes) concurrent reads overlapped with
		// decompression; shards=1 is the serial monolithic restore
		// (exactly RecoverySeconds).
		return c.mdl.ShardedRecoverySeconds(2048, float64(info.Bytes), c.raw, c.scheme, c.shardsOf(info))
	}
	return c.mdl.RecoverySeconds(2048, float64(info.Bytes), c.raw, c.scheme)
}

func (c *costModel) capture(info fti.Info) float64 {
	return c.mdl.CaptureSeconds(2048, float64(info.RawBytes))
}

// storageRetry prices the retry layer's expected backoff delay under a
// fault campaign, calibrated from the same policy defaults the real
// wrapper runs with.
func (c *costModel) storageRetry(info fti.Info) float64 {
	if c.o.faultRate <= 0 || c.o.storageRetries <= 0 {
		return 0
	}
	pol := fti.FaultPolicy{MaxRetries: c.o.storageRetries}.Normalize()
	return c.mdl.StorageRetrySeconds(c.shardsOf(info), c.o.faultRate,
		pol.BaseDelay.Seconds(), pol.MaxDelay.Seconds(), pol.MaxRetries)
}

// abft prices the ABFT tier in local-solve iterations over the lost
// block, re-gathered over the interconnect — never through the PFS.
func (c *costModel) abft(att core.TierAttempt) float64 {
	return c.mdl.ABFTRecoverySeconds(c.raw/2048, att.Iterations, c.o.tit)
}
