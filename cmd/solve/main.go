// Command solve runs one fault-tolerant iterative solve end to end:
// it builds a 3D Poisson system, solves it with the chosen method and
// checkpointing scheme, optionally injecting failures, and reports the
// outcome.
//
// Usage:
//
//	solve -method cg -grid 16 -scheme lossy -eb 1e-4 -rtol 1e-12 -interval 5 -inject proc@12
//	solve -method jacobi -grid 12 -scheme traditional -ckptdir /tmp/ck
//	solve -method cg -grid 48 -scheme lossy -interval 10 -async -inject proc@40
//	solve -method cg -grid 48 -scheme lossy -async -shards 8 -storage-workers 4
//	solve -method jacobi -grid 16 -scheme lossy -rtol 1e-4 -adaptive -prior-mtti 0.05 -inject proc@300
//	solve -method gmres -scheme lossy -async -inject 'proc@40,midckpt@80'
//
// Every run with a checkpoint scheme is one call of core.Drive, the
// checkpoint-lifecycle loop, on the wall clock with measured costs:
// each save and each recovery costs what it timed for itself. Failures
// come from -inject or not at all. The outcome — checkpoint,
// backpressure and recovery time, per-tier recovery counts, read
// traffic, the interval trajectory — is printed in milliseconds of the
// wall clock. The paper's modelled clock runs in cmd/repro.
//
// -adaptive replaces the fixed checkpoint interval with the online
// controller: per-checkpoint costs and the failure rate are estimated
// from the run itself (the controller is never told C or λ — only
// -prior-mtti, which -adaptive needs, seeds its failure-rate prior), and
// the interval is re-planned from the Daly fixed point after every
// observation, in wall seconds. The interval trajectory is printed at
// the end of the run alongside a per-phase cost table (capture, encode,
// write, restart: measured in-process, with encode, write and restart
// also modeled at cluster scale).
//
// -recovery-tiers arms rung 0 of the recovery chain: an ABFT guard
// retains per-iteration redundancy (exact-state for CG, periodic
// retained solutions for the stationary methods) and every failure
// tries checkpoint-free algorithmic reconstruction first. With or
// without it every failure walks the rest of the chain: the latest
// checkpoint, an older checkpoint, and finally restart-from-zero.
//
// -inject runs the solve under a seeded deterministic fault plan and
// prints a per-failure table of the tier each recovery used, e.g.
// -inject 'proc@50,abft+proc@120,manifest+proc@200'. The spec grammar
// and the nine kinds are package failure's (README, "Fault-injection
// spec"). An event strikes when the solver's iteration counter reaches
// N, before any checkpoint due at that iteration is taken. Corruption
// kinds without proc/midckpt are latent and surface at the next
// recovery. midckpt and crash land inside a checkpoint window: a save
// opens at N — whether or not one was due there anyway — never commits,
// and the process is lost; crash also kills the store mid-commit, which
// is revived and fsck-swept before recovery runs. The abft kind needs
// -recovery-tiers.
//
// -interval N saves every N solver iterations; left at 0 it is 25.
//
// Observability: -metrics-out writes the end-of-run metrics snapshot
// as JSON, -trace-out writes a Chrome trace_event file (load it at
// chrome://tracing or https://ui.perfetto.dev), and -report-out writes
// the run report. The run report, the cost table and a metrics summary
// are emitted on every exit path — success, error and -scheme none
// alike. With -async the trace shows the background encode/write spans
// overlapping solver iterations.
//
// Storage resilience (-storage-retries, -storage-timeout,
// -storage-fault-rate; on-disk checkpoint directories are fsck-swept at
// startup) and the shard layout (-shards, -storage-workers) are
// described flag by flag in the README, "Storage fault model" and
// "cmd/solve flags". The layout changes what is written and measured,
// not the modeled column of the cost table: every modeled checkpoint
// and restart is the paper's collective write through the aggregate PFS
// bandwidth.
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
	"repro/internal/precond"
	"repro/internal/quality"
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

	method, scheme, ckptDir, inject       string
	metricsOut, traceOut, reportOut       string
	grid, maxIter, shards, storageWorkers int
	storageRetries, qualitySample         int
	seed                                  int64
	rtol, eb, interval, prior, faultRate  float64
	storageTimeout                        time.Duration
	async, adaptive, tiers                bool
	quality                               bool
	// typed holds the names of the flags given on the command line, so
	// validate can refuse a typed flag the run would not act on.
	typed map[string]bool
	// plan is -inject parsed (nil without it); validate fills it.
	plan *failure.Plan
}

func parseOptions(args []string) (options, error) {
	o := options{args: strings.Join(args, " ")}
	fs := flag.NewFlagSet("solve", flag.ContinueOnError)
	fs.StringVar(&o.method, "method", "cg", "iterative method (solver.New): jacobi | gs | sor | ssor | cg (IC(0)-preconditioned) | gmres (GMRES(5))")
	fs.IntVar(&o.grid, "grid", 14, "Poisson grid dimension (n³ unknowns)")
	fs.Float64Var(&o.rtol, "rtol", 1e-7, "relative convergence tolerance")
	fs.StringVar(&o.scheme, "scheme", "lossy", "checkpoint scheme: traditional | lossless | lossy | none")
	fs.Float64Var(&o.eb, "eb", 1e-4, "lossy pointwise-relative error bound")
	fs.Float64Var(&o.interval, "interval", 0, "checkpoint interval in solver iterations (0 = 25)")
	fs.Int64Var(&o.seed, "seed", 1, "failure-injection seed")
	fs.StringVar(&o.ckptDir, "ckptdir", "", "write checkpoints to this directory (default: in-memory)")
	fs.IntVar(&o.maxIter, "maxiter", 2_000_000, "iteration cap")
	fs.BoolVar(&o.async, "async", false, "asynchronous checkpointing: the solver waits for the capture only; encode+write overlap iterations")
	fs.IntVar(&o.shards, "shards", 1, "shard objects per checkpoint (>1 writes shards + a manifest; the modeled column prices every layout as the same collective write)")
	fs.IntVar(&o.storageWorkers, "storage-workers", 0, "worker pool bound for shard writes/reads (0 = GOMAXPROCS)")
	fs.IntVar(&o.storageRetries, "storage-retries", 4, "max retries per storage op for transient faults (0 disables the resilient wrapper)")
	fs.DurationVar(&o.storageTimeout, "storage-timeout", 0, "per-op retry budget: an op gives up once its cumulative backoff would exceed this (0 = no budget)")
	fs.Float64Var(&o.faultRate, "storage-fault-rate", 0, "seeded per-attempt transient storage-fault probability, injected beneath the retry layer (0 = none)")
	fs.BoolVar(&o.adaptive, "adaptive", false, "adaptive checkpoint interval: estimate costs and failure rate online, re-plan Daly's interval (the overlapped fixed point under -async) whenever an estimate moves")
	fs.Float64Var(&o.prior, "prior-mtti", 0, "adaptive controller's prior mean time to interruption in wall seconds (its only a-priori knowledge; -adaptive needs it)")
	fs.BoolVar(&o.tiers, "recovery-tiers", false, "arm the ABFT guard: every failure tries algorithmic reconstruction before the latest checkpoint, older checkpoints and restart-from-zero")
	fs.StringVar(&o.inject, "inject", "", "seeded fault plan 'kind(+kind)*@iterspec,...' (kinds proc|abft|shard|manifest|midckpt|storagewrite|storageread|slowio|crash; iterspec N or N..M[/S]) driving the solve; the abft kind needs -recovery-tiers")
	fs.StringVar(&o.metricsOut, "metrics-out", "", "write the end-of-run metrics snapshot as JSON to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the end-of-run Chrome trace_event JSON to this file")
	fs.BoolVar(&o.quality, "quality", false, "numerical telemetry: audit per-checkpoint distortion against the live state (sampled) and judge the lossy saves against the stability region")
	fs.IntVar(&o.qualitySample, "quality-sample", 4, "audit every Nth committed checkpoint (1 = every checkpoint)")
	fs.StringVar(&o.reportOut, "report-out", "", "write the versioned JSON run report (run info and iteration ledger, cost table, metrics, per-checkpoint quality, recoveries, stability verdict) to this file (implies -quality)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.typed = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { o.typed[f.Name] = true })
	o.quality = o.quality || o.reportOut != ""
	return o, nil
}

var schemes = map[string]core.Scheme{
	"traditional": core.Traditional, "lossless": core.Lossless, "lossy": core.Lossy,
}

// validate rejects every combination of flags the run could not honour
// — a flag is acted on or refused, never ignored — and parses the fault
// plan. An unknown -method is solver.New's to refuse.
func (o *options) validate() error {
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
		{"-interval", o.interval, o.interval >= 0 && o.interval < 1<<31 && o.interval == math.Trunc(o.interval), "0 (the default cadence) or a whole number of iterations"},
		{"-prior-mtti", o.prior, o.prior > 0 || !o.typed["prior-mtti"], "a positive number of seconds"},
		{"-maxiter", o.maxIter, o.maxIter >= 0, "0 (the default cap) or positive"},
		{"-shards", o.shards, o.shards >= 0, "0 or 1 (one monolithic object) or a shard count"},
		{"-storage-workers", o.storageWorkers, o.storageWorkers >= 0, "0 (GOMAXPROCS) or positive"},
		{"-storage-retries", o.storageRetries, o.storageRetries >= 0, "0 (no resilient wrapper) or positive"},
		{"-storage-timeout", o.storageTimeout, o.storageTimeout >= 0, "0 (no budget) or positive"},
		{"-storage-fault-rate", o.faultRate, o.faultRate >= 0 && o.faultRate <= 1, "a probability in [0, 1]"},
		{"-quality-sample", o.qualitySample, o.qualitySample >= 1, "at least 1 (1 = every checkpoint)"},
	} {
		if !f.ok {
			return fmt.Errorf("%s %v is out of range: want %s", f.name, f.got, f.want)
		}
	}
	if o.scheme == "none" {
		// Nothing is checkpointed, so nothing can fail, recover or be
		// planned, and no save has a cadence, a store or an audit:
		// -scheme none is the failure-free baseline solve.
		for _, name := range []string{"recovery-tiers", "inject", "adaptive", "async", "interval", "ckptdir", "shards",
			"storage-workers", "storage-retries", "storage-timeout", "storage-fault-rate",
			"quality", "quality-sample", "seed"} {
			if o.typed[name] {
				return fmt.Errorf("-%s needs a checkpoint scheme (-scheme none is the failure-free baseline: nothing is saved, so nothing can fail, recover or be planned)", name)
			}
		}
	}
	for _, f := range []struct {
		name    string
		ignored bool
		why     string
	}{
		{"-prior-mtti", !o.adaptive, "needs -adaptive: it is the adaptive controller's prior"},
		{"-eb", o.scheme != "lossy", "needs -scheme lossy: the other schemes save exact state"},
		{"-storage-timeout", o.storageRetries == 0, "needs -storage-retries above 0: it budgets the retries' backoff"},
		{"-quality-sample", !o.quality, "needs quality telemetry (-quality or -report-out)"},
		{"-storage-workers", o.shards <= 1, "needs -shards above 1: it bounds the shard readers and writers"},
	} {
		if f.ignored && o.typed[f.name[1:]] {
			return fmt.Errorf("%s %s", f.name, f.why)
		}
	}
	if o.adaptive && o.interval > 0 {
		return fmt.Errorf("-adaptive and -interval are mutually exclusive (the controller owns the cadence)")
	}
	if o.adaptive && !o.typed["prior-mtti"] {
		return fmt.Errorf("-adaptive needs -prior-mtti: the controller's prior mean time to interruption, in wall seconds, is its only seed")
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
			rep.runInfo.Exit = "error: " + err.Error()
		}
	}()
	if err := o.validate(); err != nil {
		return err
	}
	a := sparse.Poisson3D(o.grid)
	b := sparse.OnesRHS(a.Rows)
	rep.runInfo.Unknowns, rep.runInfo.Operator = a.Rows, a.Kernel()
	s, err := solver.New(o.method, a, b, solver.Options{RTol: o.rtol})
	if err != nil {
		return err
	}
	system := fmt.Sprintf("system: 3D Poisson %d³ = %d unknowns, %d nonzeros, operator %s", o.grid, a.Rows, a.NNZ(), a.Kernel())
	if cg, ok := s.(*solver.CG); ok {
		rep.runInfo.Precond = "ic0/" + cg.Preconditioner().(*precond.IC0).Kernel()
		system += ", preconditioner " + rep.runInfo.Precond
	}
	fmt.Println(system)
	if o.scheme == "none" {
		start := time.Now()
		res, err := solver.RunToConvergence(s, solver.Options{MaxIter: o.maxIter}, nil)
		if err != nil {
			return err
		}
		rep.runInfo.Iterations, rep.runInfo.Converged, rep.runInfo.FinalResidual = res.Iterations, res.Converged, res.FinalResidual
		fmt.Printf("converged=%v iterations=%d wall-time=%.3gms residual=%.3e\n", res.Converged, res.Iterations, 1e3*time.Since(start).Seconds(), res.FinalResidual)
		return nil
	}
	var guard *abft.Guard
	if o.tiers {
		if guard, err = abft.NewGuard(a, b, s, abft.Config{Seed: o.seed}); err != nil {
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
		Async:          o.async,
	}
	// -interval counts iterations; the controller, when armed, owns the
	// cadence instead.
	interval := int(o.interval)
	if !o.adaptive {
		if interval == 0 {
			interval = 25
		}
		mcfg.Interval = interval
	}
	mgr, err := core.NewManager(mcfg, storage, s)
	if err != nil {
		return err
	}
	rep.mgr = mgr
	// Storage-resilience accounting prints on every exit path.
	defer func() {
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
	// The Manager, its pipeline and the Drive loop that runs it draw
	// their spans on the wall clock.
	mgr.Instrument(rep.reg, rep.tr)
	// Numerical telemetry: the auditor is a pure observer (sampled
	// decode-on-the-fly distortion audits), so arming it never perturbs
	// the solve trajectory.
	if o.quality {
		rep.qa = quality.New(quality.Config{
			SampleEvery: o.qualitySample,
			BNorm:       vec.Norm2(b), // the ‖b‖ the stability verdict normalizes residuals against
		})
		rep.qa.Instrument(rep.reg, rep.tr)
		mgr.InstrumentQuality(rep.qa)
		fmt.Printf("quality telemetry: auditing every %d committed checkpoint(s), decoded\n", o.qualitySample)
	}
	if err := core.RegisterStatics(mgr.Checkpointer(), a, b); err != nil {
		return err
	}

	// gs, sor and ssor save one vector, as the paper's Jacobi does.
	base, ok := cluster.PaperBaselines()[o.method]
	if !ok {
		base = cluster.PaperBaselines()["jacobi"]
	}
	rep.cm = &costModel{mdl: cluster.Bebop(), base: base, scheme: scheme}
	var ctrl *adapt.Controller
	if o.adaptive {
		// The controller learns C and λ from the run itself; the prior
		// MTTI is its only seed. Fed an overlapped pipeline's capture and
		// background costs, it plans the async fixed point
		// (AsyncEffectiveStall).
		if ctrl, err = adapt.New(adapt.Config{PriorMTTI: o.prior}); err != nil {
			return err
		}
		ctrl.Instrument(rep.reg)
		fmt.Printf("adaptive interval: prior MTTI %g s, bootstrap interval %g s\n", o.prior, ctrl.Interval(0))
	} else {
		fmt.Printf("checkpoint interval: %d iterations\n", interval)
	}
	run := core.DriveConfig{
		Stepper: s, Manager: mgr, X0: make([]float64, a.Rows), Controller: ctrl,
		MaxIterations: o.maxIter,
	}
	var src *planSource
	if injected {
		// Corruption helpers damage objects on the BASE store, bypassing
		// the injector (their writes must not consume armed faults) and
		// the retry layer (a corruption is not an op to retry).
		src = &planSource{plan: o.plan, s: s, mgr: mgr, guard: guard, storage: baseStorage, injector: injector}
		fmt.Printf("injection plan: %d events\n", len(o.plan.Events()))
		run.Failures, run.OnStep = src, src.onStep
	}
	rep.runInfo.Interval = interval
	out, err := core.Drive(run)
	if err == nil && src != nil {
		err = src.err
	}
	if err != nil {
		return err
	}
	rep.runInfo.Iterations, rep.runInfo.Converged, rep.runInfo.FinalResidual = out.IterationsExecuted, out.Converged, out.FinalResidual
	rep.recoveries = recoveries(out, rep.qa)
	printOutcome(o, out)
	if out.Converged && len(out.FailureEvents) > 0 {
		// The paper's ledger: N is the same system solved with nothing
		// failing, off Drive's clock; what the run executed beyond it is
		// replayed work and N′, the extra iterations a restart cost.
		ref, err := solver.New(o.method, a, b, solver.Options{RTol: o.rtol})
		if err != nil {
			return err
		}
		res, err := solver.RunToConvergence(ref, solver.Options{MaxIter: o.maxIter}, nil)
		if err != nil {
			return err
		}
		ri := &rep.runInfo
		ri.FailureFreeIterations = res.Iterations
		ri.ReplayedIterations = out.IterationsExecuted - out.ConvergenceIterations
		ri.ExtraIterations = out.ConvergenceIterations - res.Iterations
		fmt.Printf("iterations: %d = %d failure-free + %d replayed + %d extra (N')\n",
			out.IterationsExecuted, ri.FailureFreeIterations, ri.ReplayedIterations, ri.ExtraIterations)
	}
	if guard != nil {
		st := guard.Stats()
		fmt.Printf("abft guard: observes=%d reconstructions=%d rejected=%d local-iterations=%d\n",
			st.Observes, st.Reconstructions, st.Rejected, st.LocalIterations)
	}
	rep.measuredRestart = checkpointRecoverySeconds(out.RecoveryReports)
	if injected {
		src.printTable(out)
		if n := len(o.plan.Events()); n > 0 {
			fmt.Printf("injection plan: %d event(s) never fired (the solve ended at iteration %d)\n", n, s.Iteration())
		}
	}
	if info := mgr.LastInfo(); info.Bytes > 0 {
		fmt.Printf("last checkpoint: %d bytes (ratio %.1fx, encoder %s)\n",
			info.Bytes, info.CompressionRatio, info.EncoderName)
	}
	return nil // the deferred reporter prints the cost table and metrics
}

// printOutcome renders what the driver accounted, in milliseconds of
// the wall clock.
func printOutcome(o options, out *core.Outcome) {
	ms := func(sec float64) string { return fmt.Sprintf("%.3gms", 1e3*sec) }
	failures, tiers, readBytes := out.Recoveries()
	fmt.Printf("converged=%v iterations=%d wall-time=%s failures=%d checkpoints=%d\n",
		out.Converged, out.IterationsExecuted, ms(out.SimSeconds), failures, out.Checkpoints)
	fmt.Printf("checkpoint-time=%s recovery-time=%s final-residual=%.3e\n",
		ms(out.CheckpointTime), ms(out.RecoveryTime), out.FinalResidual)
	if o.tiers || o.plan != nil {
		fmt.Printf("recovery tiers: abft=%d checkpoint-restart=%d restart-zero=%d pfs-read-bytes=%d\n",
			tiers[core.TierABFT], tiers[core.TierCheckpoint]+tiers[core.TierPreviousCheckpoint], tiers[core.TierRestartZero], readBytes)
	}
	if o.async {
		fmt.Printf("async: aborted-in-flight=%d backpressure=%s (stall is capture-only when 0)\n",
			out.AbortedCheckpoints, ms(out.BackpressureTime))
	}
	if plans := out.IntervalPlans; len(plans) > 0 {
		last := plans[len(plans)-1]
		fmt.Printf("adaptive: %d re-plans; final interval %s (estimated MTTI %s, per-checkpoint cost %s)\n",
			len(plans), ms(last.Interval), ms(1/last.Lambda), ms(last.Cost))
		fmt.Printf("interval trajectory (wall-time  interval  est-MTTI  est-cost):\n")
		row := func(p adapt.Plan) {
			fmt.Printf("  %9s %9s %9s %9s\n", ms(p.When), ms(p.Interval), ms(1/p.Lambda), ms(p.Cost))
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

// ranks is the paper's scale, at which the cost table's modeled column
// prices a save.
const ranks = 2048

// costModel prices the cost table's modeled column: the Bebop cluster
// model at the paper's scale, applying cluster's checkpoint-bytes rule
// at the compression ratio the save measured.
type costModel struct {
	mdl    *cluster.Model
	base   cluster.MethodBaseline // the paper's per-rank state of the method
	scheme core.Scheme
}

// bytes returns the encoded and raw bytes info's save moves at the
// paper's scale. A record that wrote nothing — the restart from zero, a
// failed async save — moves none.
func (c *costModel) bytes(info fti.Info) (enc, raw float64) {
	if info.Bytes == 0 {
		return 0, 0
	}
	return c.base.SaveBytes(c.scheme, c.base.VectorBytes(ranks), info.CompressionRatio)
}

// checkpoint returns the modeled encode and write stages of info's save.
func (c *costModel) checkpoint(info fti.Info) (encode, write float64) {
	enc, raw := c.bytes(info)
	return c.mdl.CompressSeconds(ranks, raw, c.scheme), c.mdl.WriteStageSeconds(ranks, enc)
}

func (c *costModel) recovery(info fti.Info) float64 {
	enc, raw := c.bytes(info)
	return c.mdl.RecoverySeconds(ranks, enc, raw, c.scheme)
}
