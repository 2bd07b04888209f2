// Package sim is the virtual-time execution engine behind the paper's
// experimental evaluation (§5.4): it drives a *real* iterative solver
// (real numerics, real lossy checkpoints, real restarts from
// decompressed state) while advancing a simulated wall clock whose
// iteration, checkpoint, and recovery durations come from the
// calibrated cluster model. Failures are injected with exponential
// inter-arrival times and may strike during computation, checkpointing
// or recovery — exactly the paper's setup.
//
// The numerical consequences (extra iterations after a lossy restart,
// residual jumps, reproducibility to the convergence tolerance) emerge
// from the actual solver; only the clock is modeled — literally: Run
// is core.Drive, the one checkpoint-lifecycle loop real runs walk too,
// handed a virtual clock, the modeled costs below and failure times in
// virtual seconds.
package sim

import (
	"math"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fti"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/solver"
)

// Config assembles one simulated run: core.DriveConfig with the cost
// source (core.Costs) spelled out as the callbacks the experiments fill
// from the cluster model, in simulated seconds, and the failure source
// as virtual failure times. Every other field is the core field of the
// same name, documented there. Sharded checkpoints carry their layout in
// info.Shards, so striped-PFS runs price through
// cluster.Model.ShardedCheckpointSeconds / ShardedRecoverySeconds; the
// numerics are layout-independent, so only the callbacks change.
type Config struct {
	Stepper solver.Stepper
	// Manager must be synchronous and count no iterations (Config.Async
	// false, Config.Interval 0): AsyncCheckpoint models the overlap in
	// virtual time, and the cadence is in seconds.
	Manager *core.Manager
	X0      []float64

	TitSeconds          float64
	CheckpointSeconds   func(info fti.Info) float64
	StorageRetrySeconds func(info fti.Info) float64
	CaptureSeconds      func(info fti.Info) float64
	RecoverySeconds     func(info fti.Info) float64
	ABFTSeconds         func(att core.TierAttempt) float64

	IntervalSeconds float64 // Young's optimum in the experiments
	Controller      *adapt.Controller
	AsyncCheckpoint bool
	OnStep          func()

	// Failures injects fail-stop errors with exponential gaps; nil
	// disables them. FailureSchedule, when non-empty, runs first: an
	// explicit list of absolute failure times (ascending). Figure 9's
	// controlled 1-failure and 2-failure traces use it.
	Failures        *failure.Injector
	FailureSchedule []float64

	MaxIterations   int
	RecordResiduals bool
	Metrics         *obs.Registry
	Tracer          *obs.Tracer
	Quality         *quality.Auditor
}

// Outcome reports one simulated run (core.Drive's outcome, in virtual
// seconds).
type Outcome = core.Outcome

// Run executes the simulation to convergence or the iteration cap:
// core.Drive on a virtual clock, with cfg's cost callbacks as the cost
// source and its failure times as the failure source. The driver
// validates the rest (a synchronous Manager, a positive TitSeconds,
// Controller against IntervalSeconds and AsyncCheckpoint).
func Run(cfg Config) (*Outcome, error) {
	var failures core.FailureSource
	if len(cfg.FailureSchedule) > 0 || cfg.Failures != nil {
		f := &failureTimes{schedule: cfg.FailureSchedule, inj: cfg.Failures}
		f.next = f.draw(0)
		failures = f
	}
	return core.Drive(core.DriveConfig{
		Stepper: cfg.Stepper,
		Manager: cfg.Manager,
		X0:      cfg.X0,
		Costs: &core.Costs{
			TitSeconds:          cfg.TitSeconds,
			CheckpointSeconds:   cfg.CheckpointSeconds,
			RecoverySeconds:     cfg.RecoverySeconds,
			StorageRetrySeconds: cfg.StorageRetrySeconds,
			CaptureSeconds:      cfg.CaptureSeconds,
			ABFTSeconds:         cfg.ABFTSeconds,
		},
		Failures:        failures,
		IntervalSeconds: cfg.IntervalSeconds,
		Controller:      cfg.Controller,
		AsyncCheckpoint: cfg.AsyncCheckpoint,
		OnStep:          cfg.OnStep,
		MaxIterations:   cfg.MaxIterations,
		RecordResiduals: cfg.RecordResiduals,
		Metrics:         cfg.Metrics,
		Tracer:          cfg.Tracer,
		Quality:         cfg.Quality,
	})
}

// failureTimes is the virtual-time failure source: the explicit
// schedule while it lasts, then the injector's exponential gaps. The
// failure after a strike is drawn the moment the strike is reported, so
// a seed's draws come in failure order whatever the failures interrupt.
type failureTimes struct {
	schedule []float64
	inj      *failure.Injector
	next     float64
}

// draw returns the absolute time of the first failure after now.
func (f *failureTimes) draw(now float64) float64 {
	if len(f.schedule) > 0 {
		next := f.schedule[0]
		f.schedule = f.schedule[1:]
		if next <= now {
			next = now + 1e-9
		}
		return next
	}
	if f.inj != nil {
		return f.inj.Next(now)
	}
	return math.Inf(1)
}

// Strikes reports the pending failure when it lands before the
// window's end.
func (f *failureTimes) Strikes(w core.Window) (float64, bool) {
	if w.End <= f.next {
		return 0, false
	}
	at := f.next
	f.next = f.draw(at)
	return at, true
}
