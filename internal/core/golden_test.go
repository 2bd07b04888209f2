package core_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/abft"
	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fti"
	"repro/internal/precond"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/sz"
	"repro/internal/vec"
)

// The golden matrix pins core.Outcome across the lifecycle's whole
// configuration space — solver × scheme × guard × cadence × failure
// source — as recorded at the commit before the driver
// refactor. Floats are stored as math.Float64bits: any drift in the
// virtual trajectory, the controller feed or the accounting fails a
// row bit for bit. goldenRestartZero lists the rows the one declared
// pricing exception moves, goldenShardedReads those whose read-traffic
// count (and nothing else) the single failure path corrects.

// goldenCase names one cell of the matrix.
type goldenCase struct {
	sys      string // cg-lossy | cg-trad-2shard | jacobi-lossless | gmres-lossy-bound
	guard    string // noguard | abft | abft-corrupt (retained state damaged from step 5 on: the chain passes rung 0)
	adaptive bool   // Controller instead of IntervalSeconds
	fail     string // seed1 | seed2 | seed3 | sched
}

// name keeps the recorded rows' "sync" segment: a modelled run is
// synchronous, so it is the only mode.
func (c goldenCase) name() string {
	cadence := "fixed"
	if c.adaptive {
		cadence = "ctrl"
	}
	return strings.Join([]string{c.sys, "sync", c.guard, cadence, c.fail}, "/")
}

// goldenSchedule is the explicit failure trace. On the fixed-interval
// rows the first checkpoint opens at t=10: 11 lands inside its write,
// 13 inside the recovery that follows. The later entries exercise the
// same paths again further into the run.
var goldenSchedule = []float64{11, 13, 39.5, 71, 118.25}

func goldenCases() []goldenCase {
	var cases []goldenCase
	for _, sys := range []string{"cg-lossy", "cg-trad-2shard", "jacobi-lossless", "gmres-lossy-bound"} {
		for _, guard := range []string{"noguard", "abft", "abft-corrupt"} {
			if guard != "noguard" && sys == "gmres-lossy-bound" {
				continue // the guard protects CG and the stationary methods only
			}
			if guard == "abft-corrupt" && sys != "cg-lossy" {
				continue
			}
			for _, adaptive := range []bool{false, true} {
				for _, fail := range []string{"seed1", "seed2", "seed3", "sched"} {
					cases = append(cases, goldenCase{sys, guard, adaptive, fail})
				}
			}
		}
	}
	return cases
}

// goldenConfig builds the case's run from scratch (the driver
// mutates solver, Manager and controller).
func goldenConfig(t *testing.T, c goldenCase) core.DriveConfig {
	t.Helper()
	var (
		a    *sparse.CSR
		b    []float64
		s    solver.Checkpointable
		mcfg core.Config
		gcfg = abft.Config{Seed: 3}
	)
	switch c.sys {
	case "cg-lossy", "cg-trad-2shard":
		a, b, _ = testSystem()
		s = solver.NewCG(a, precond.NewJacobiFromMatrix(a), b, nil, solver.SeqSpace{}, solver.Options{RTol: 1e-9})
		mcfg = core.Config{Scheme: core.Lossy, SZParams: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4}}
		if c.sys == "cg-trad-2shard" {
			mcfg = core.Config{Scheme: core.Traditional, Shards: 2}
		}
	case "jacobi-lossless":
		a = sparse.Poisson2D(8)
		b = sparse.RHSForSolution(a, sparse.SmoothField(a.Rows, 31))
		st, err := solver.NewStationary(solver.KindJacobi, a, b, nil, 0, solver.Options{RTol: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		s = st
		mcfg = core.Config{Scheme: core.Lossless}
	case "gmres-lossy-bound":
		a, b, _ = testSystem()
		s = solver.NewGMRES(a, nil, b, nil, 10, solver.SeqSpace{}, solver.Options{RTol: 1e-8})
		mcfg = core.Config{Scheme: core.Lossy, Adaptive: true, AdaptiveC: 1, BNorm: vec.Norm2(b)}
	default:
		t.Fatalf("unknown system %q", c.sys)
	}
	var guard *abft.Guard
	if c.guard != "noguard" {
		g, err := abft.NewGuard(a, b, s, gcfg)
		if err != nil {
			t.Fatal(err)
		}
		mcfg.ABFT, guard = g, g
	}
	m, err := core.NewManager(mcfg, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DriveConfig{
		Stepper:       s.(solver.Stepper),
		Manager:       m,
		X0:            make([]float64, a.Rows),
		MaxIterations: 100000,
		Costs: &core.Costs{
			TitSeconds: 1,
			// Every cost depends on what was written, so a byte of drift in
			// the checkpoint moves the clock. The rows were recorded with a
			// 0.25 s retry price added after the write's, in this order.
			CheckpointSeconds: func(i fti.Info) float64 { return 3 + 1e-4*float64(i.Bytes) + 0.25 },
			RecoverySeconds:   func(i fti.Info) float64 { return 4 + 1e-4*float64(i.Bytes) },
		},
	}
	if c.guard == "abft-corrupt" {
		steps := 0
		cfg.OnStep = func() {
			if steps++; steps >= 5 {
				guard.CorruptRetained()
			}
		}
	}
	if c.adaptive {
		ctrl, err := adapt.New(adapt.Config{PriorMTTI: 60, InitialInterval: 10})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Controller = ctrl
	} else {
		cfg.IntervalSeconds = 10
	}
	switch c.fail {
	case "seed1", "seed2", "seed3":
		cfg.Failures = core.FailureTimes(nil, failure.NewInjector(45, int64(c.fail[4]-'0')))
	case "sched":
		cfg.Failures = core.FailureTimes(goldenSchedule, nil)
	}
	return cfg
}

// goldenRow is one recorded Outcome.
type goldenRow struct {
	name                                                  string
	simSeconds                                            uint64
	executed, convergence, failures, checkpoints, aborted int
	checkpointTime, backpressureTime, recoverTime         uint64
	abftRec, ckptRestarts, freshRestarts                  int
	readBytes                                             int64
	finalResidual                                         uint64
	plans                                                 int
	lastInterval                                          uint64
}

func rowOf(name string, o *core.Outcome) goldenRow {
	failures, tiers, readBytes := o.Recoveries()
	r := goldenRow{
		name:       name,
		simSeconds: math.Float64bits(o.SimSeconds),
		executed:   o.IterationsExecuted, convergence: o.ConvergenceIterations,
		failures: failures, checkpoints: o.Checkpoints, aborted: o.AbortedCheckpoints,
		checkpointTime:   math.Float64bits(o.CheckpointTime),
		backpressureTime: math.Float64bits(o.BackpressureTime),
		recoverTime:      math.Float64bits(o.RecoveryTime),
		abftRec:          tiers[core.TierABFT],
		ckptRestarts:     tiers[core.TierCheckpoint] + tiers[core.TierPreviousCheckpoint],
		freshRestarts:    tiers[core.TierRestartZero],
		readBytes:        readBytes,
		finalResidual:    math.Float64bits(o.FinalResidual),
		plans:            len(o.IntervalPlans),
	}
	if n := len(o.IntervalPlans); n > 0 {
		r.lastInterval = math.Float64bits(o.IntervalPlans[n-1].Interval)
	}
	return r
}

func (r goldenRow) literal() string {
	return fmt.Sprintf("{%q, %#x, %d, %d, %d, %d, %d, %#x, %#x, %#x, %d, %d, %d, %d, %#x, %d, %#x},",
		r.name, r.simSeconds, r.executed, r.convergence, r.failures, r.checkpoints, r.aborted,
		r.checkpointTime, r.backpressureTime, r.recoverTime,
		r.abftRec, r.ckptRestarts, r.freshRestarts, r.readBytes, r.finalResidual, r.plans, r.lastInterval)
}

// describe renders the row's floats readably for a failure message.
func (r goldenRow) describe() string {
	f := math.Float64frombits
	return fmt.Sprintf("sim=%v exec=%d conv=%d fail=%d ckpt=%d abort=%d ckptT=%v bp=%v rec=%v abft=%d restart=%d fresh=%d read=%d res=%v plans=%d last=%v",
		f(r.simSeconds), r.executed, r.convergence, r.failures, r.checkpoints, r.aborted,
		f(r.checkpointTime), f(r.backpressureTime), f(r.recoverTime),
		r.abftRec, r.ckptRestarts, r.freshRestarts, r.readBytes, f(r.finalResidual), r.plans, f(r.lastInterval))
}

// TestGoldenOutcomeMatrix replays every cell and compares it with the
// recorded row. Each run's modelled clock also closes: every second of
// SimSeconds is a step, a checkpoint or a recovery, apart from the steps
// a failure cut short — less than one step per failure.
func TestGoldenOutcomeMatrix(t *testing.T) {
	want := map[string]goldenRow{}
	for _, r := range goldenOutcomes {
		want[r.name] = r
	}
	for _, r := range goldenShardedReads {
		r.readBytes += int64(r.ckptRestarts) * shardManifestBytes
		want[r.name] = r
	}
	for _, name := range goldenRestartZero {
		r := want[strings.Replace(name, "/abft-corrupt/", "/noguard/", 1)]
		r.name = name
		want[name] = r
	}
	cases := goldenCases()
	if len(want) != len(cases) {
		t.Errorf("golden table has %d rows for %d cases", len(want), len(cases))
	}
	var abortedSave, interruptedRecovery bool
	for _, c := range cases {
		cfg := goldenConfig(t, c)
		out, err := core.Drive(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name(), err)
		}
		if !out.Converged {
			t.Errorf("%s: did not converge", c.name())
		}
		// The terms summed here round differently from the clock that
		// added them up, hence the tolerance around zero.
		tit := cfg.Costs.TitSeconds
		rest := out.SimSeconds - (float64(out.IterationsExecuted)*tit + out.CheckpointTime + out.RecoveryTime)
		if round := 1e-12 * out.SimSeconds; rest < -round || rest > round && rest >= float64(len(out.FailureEvents))*tit {
			t.Errorf("%s: %g s of the clock are neither steps, checkpoints nor recoveries, want 0 or under %d failures × %g s",
				c.name(), rest, len(out.FailureEvents), tit)
		}
		got := rowOf(c.name(), out)
		if w, ok := want[c.name()]; !ok {
			t.Errorf("no golden row; record:\n%s", got.literal())
		} else if got != w {
			t.Errorf("%s drifted:\n got %s\nwant %s\n%s", c.name(), got.describe(), w.describe(), got.literal())
		}
		abortedSave = abortedSave || out.AbortedCheckpoints > 0
		for _, rep := range out.RecoveryReports {
			interruptedRecovery = interruptedRecovery || rep.Interrupted
		}
	}
	// The matrix only pins the lifecycle if it walks all of it: a
	// failure inside a checkpoint window, and inside a recovery.
	if !abortedSave || !interruptedRecovery {
		t.Errorf("the matrix walks a failure inside a save: %v, inside a recovery: %v; want both",
			abortedSave, interruptedRecovery)
	}
}
