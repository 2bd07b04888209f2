package core_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fti"
	"repro/internal/model"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// jacobiSystem is the adaptive tests' workload: a ~930-iteration
// failure-free Jacobi solve, long enough for the controller's
// estimators to converge and for mid-run compression drift to matter.
func jacobiSystem() (*sparse.CSR, []float64) {
	a := sparse.Poisson2D(16)
	return a, sparse.OnesRHS(a.Rows)
}

// newManagedJacobi builds the adaptive tests' solver and a Manager over
// it (a lossy one at the default bound, PWRel 1e-4).
func newManagedJacobi(t *testing.T, a *sparse.CSR, b []float64, cfg core.Config) (*solver.Stationary, *core.Manager) {
	t.Helper()
	s, err := solver.NewStationary(solver.KindJacobi, a, b, nil, 0, solver.Options{RTol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewManager(cfg, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

// adaptiveTestMTTI is the true injected MTTI. The controller is never
// told it: it starts from conservativeControllerConfig's prior and
// learns the rest from observed failures and censored runtime.
const adaptiveTestMTTI = 150.0

// conservativeControllerConfig is the deployment-style configuration
// the acceptance tests run with: a pessimistic prior MTTI 1.5× below
// the truth. When λ is unknown, starting pessimistic is the cheap
// direction — over-checkpointing early costs only the checkpoint time,
// while an optimistic prior risks long rollbacks before the first
// failures correct it — and the censored estimator relaxes the rate as
// failure-free time accumulates.
func conservativeControllerConfig() adapt.Config {
	return adapt.Config{PriorMTTI: 100}
}

// failureTrace pre-draws one seed's failure times as absolute virtual
// seconds, far past any plausible run end. Every policy compared under
// a seed then faces the identical failure trace — the paper's
// controlled-trace methodology — so sweep differences measure
// checkpoint-policy quality only.
func failureTrace(seed int64) []float64 {
	inj := failure.NewInjector(adaptiveTestMTTI, seed)
	var times []float64
	now := 0.0
	for now < 50000 {
		now = inj.Next(now)
		times = append(times, now)
	}
	return times
}

// runJacobiSim executes one managed Jacobi run: fixed interval when
// fixedInterval > 0, adaptive when ctrl is non-nil. ckptCost maps the
// live solver to the simulated per-checkpoint cost, so tests can model
// a compression ratio that drifts with convergence.
func runJacobiSim(t *testing.T, seed int64, fixedInterval float64, ctrl *adapt.Controller,
	scheme core.Scheme, ckptCost func(s *solver.Stationary) float64) *core.Outcome {
	t.Helper()
	a, b := jacobiSystem()
	s, m := newManagedJacobi(t, a, b, core.Config{Scheme: scheme})
	out, err := core.Drive(core.DriveConfig{
		Stepper:         s,
		Manager:         m,
		X0:              make([]float64, a.Rows),
		IntervalSeconds: fixedInterval,
		Controller:      ctrl,
		Failures:        core.FailureTimes(failureTrace(seed), nil),
		MaxIterations:   500000,
		Costs: &core.Costs{
			TitSeconds:        1,
			CheckpointSeconds: func(fti.Info) float64 { return ckptCost(s) },
			RecoverySeconds:   func(fti.Info) float64 { return 8 },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Fatalf("seed %d interval %g: did not converge", seed, fixedInterval)
	}
	return out
}

// meanSimSeconds averages a scenario's simulated wall-clock over the
// deterministic seed set.
func meanSimSeconds(t *testing.T, seeds []int64, run func(seed int64) *core.Outcome) float64 {
	t.Helper()
	var sum float64
	for _, seed := range seeds {
		sum += run(seed).SimSeconds
	}
	return sum / float64(len(seeds))
}

func sweepSeeds() []int64 { return []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12} }

// TestAdaptiveConfigValidation: the controller excludes a fixed
// interval.
func TestAdaptiveConfigValidation(t *testing.T) {
	a, b := jacobiSystem()
	s, m := newManagedJacobi(t, a, b, core.Config{Scheme: core.Lossy})
	ctrl, err := adapt.New(conservativeControllerConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.Drive(core.DriveConfig{Stepper: s, Manager: m, Costs: &core.Costs{TitSeconds: 1}, IntervalSeconds: 10, Controller: ctrl})
	if err == nil {
		t.Fatal("Controller + IntervalSeconds accepted")
	}
}

// TestAdaptiveDeterministicTrajectory: same seed and failure trace ⇒
// bitwise identical outcome AND interval trajectory. This is the
// controller's determinism contract (pure state machine, virtual-time
// driven); CI re-runs it under -race.
func TestAdaptiveDeterministicTrajectory(t *testing.T) {
	run := func() *core.Outcome {
		ctrl, err := adapt.New(conservativeControllerConfig())
		if err != nil {
			t.Fatal(err)
		}
		return runJacobiSim(t, 42, 0, ctrl, core.Lossy, func(*solver.Stationary) float64 { return 6 })
	}
	x, y := run(), run()
	if x.SimSeconds != y.SimSeconds || x.IterationsExecuted != y.IterationsExecuted ||
		len(x.FailureEvents) != len(y.FailureEvents) || x.Checkpoints != y.Checkpoints ||
		x.FinalResidual != y.FinalResidual {
		t.Fatalf("same seed diverged:\n%+v\n%+v", x, y)
	}
	if len(x.IntervalPlans) == 0 {
		t.Fatal("adaptive run recorded no interval plans")
	}
	if !reflect.DeepEqual(x.IntervalPlans, y.IntervalPlans) {
		t.Fatalf("interval trajectories diverged:\n%+v\n%+v", x.IntervalPlans, y.IntervalPlans)
	}
}

// TestAdaptivePinnedControllerMatchesFixedRun: a controller clamped to
// one interval reproduces the fixed-interval run bitwise — the
// controller changes only the checkpoint schedule, never the numerics,
// and for a given schedule the traces are identical.
func TestAdaptivePinnedControllerMatchesFixedRun(t *testing.T) {
	const tau = 25.0
	cost := func(*solver.Stationary) float64 { return 6 }
	fixed := runJacobiSim(t, 9, tau, nil, core.Lossy, cost)
	ctrl, err := adapt.New(adapt.Config{PriorMTTI: 1000, MinInterval: tau, MaxInterval: tau, InitialInterval: tau})
	if err != nil {
		t.Fatal(err)
	}
	pinned := runJacobiSim(t, 9, 0, ctrl, core.Lossy, cost)
	if fixed.SimSeconds != pinned.SimSeconds ||
		fixed.IterationsExecuted != pinned.IterationsExecuted ||
		fixed.ConvergenceIterations != pinned.ConvergenceIterations ||
		fixed.Checkpoints != pinned.Checkpoints ||
		len(fixed.FailureEvents) != len(pinned.FailureEvents) ||
		fixed.FinalResidual != pinned.FinalResidual {
		t.Fatalf("pinned controller diverged from the fixed run:\nfixed : %+v\npinned: %+v", fixed, pinned)
	}
}

// TestAdaptiveWithinFivePercentOfBestFixed is the acceptance sweep:
// over a deterministic seed set with shared failure traces, the
// adaptive controller — told nothing about C or λ beyond a
// conservative prior — lands within 5% of the best fixed interval's
// mean simulated wall-clock. The scheme is lossless (exact-state
// recovery), the regime the Young/Daly interval model is derived for.
func TestAdaptiveWithinFivePercentOfBestFixed(t *testing.T) {
	seeds := sweepSeeds()
	cost := func(*solver.Stationary) float64 { return 6 }
	fixedIntervals := []float64{20, 30, 42, 55, 70, 90, 120}
	best := math.Inf(1)
	bestIv := 0.0
	for _, iv := range fixedIntervals {
		m := meanSimSeconds(t, seeds, func(seed int64) *core.Outcome {
			return runJacobiSim(t, seed, iv, nil, core.Lossless, cost)
		})
		if m < best {
			best, bestIv = m, iv
		}
	}
	adaptive := meanSimSeconds(t, seeds, func(seed int64) *core.Outcome {
		ctrl, err := adapt.New(conservativeControllerConfig())
		if err != nil {
			t.Fatal(err)
		}
		return runJacobiSim(t, seed, 0, ctrl, core.Lossless, cost)
	})
	t.Logf("best fixed interval %g: %.1f s mean; adaptive: %.1f s mean (%.2f%% off best)",
		bestIv, best, adaptive, 100*(adaptive/best-1))
	if adaptive > 1.05*best {
		t.Fatalf("adaptive mean %.1f s exceeds 1.05× best fixed %.1f s (interval %g)",
			adaptive, best, bestIv)
	}
}

// TestAdaptiveBeatsPaperDefaultUnderRatioDrift: when the compression
// ratio drifts mid-run, the offline interval computed from an initial
// probe checkpoint is stale for the rest of the run. The drift modeled
// here is the one this repo's own Theorem-3 machinery produces: the
// adaptive GMRES error bound tightens as the residual drops, so
// checkpoints compress worse — and cost more — as the solve converges
// (1.5 s early, 12 s once the residual passes 1e-2, ≈45% into the
// run). The paper-default fixed interval (Young's formula on the
// probe-time cost and the true MTTI) then checkpoints 3× too often at
// 8× the probed cost; the controller re-plans and wins.
func TestAdaptiveBeatsPaperDefaultUnderRatioDrift(t *testing.T) {
	seeds := sweepSeeds()
	const probeCost, lateCost = 1.5, 12.0
	driftCost := func(s *solver.Stationary) float64 {
		if s.ResidualNorm() > 1e-2 {
			return probeCost
		}
		return lateCost
	}
	// The paper's offline recipe: probe the checkpoint cost at run
	// start, plug it into Young's formula with the (true) MTTI.
	paperDefault := model.YoungInterval(adaptiveTestMTTI, probeCost)
	fixed := meanSimSeconds(t, seeds, func(seed int64) *core.Outcome {
		return runJacobiSim(t, seed, paperDefault, nil, core.Lossless, driftCost)
	})
	adaptive := meanSimSeconds(t, seeds, func(seed int64) *core.Outcome {
		ctrl, err := adapt.New(conservativeControllerConfig())
		if err != nil {
			t.Fatal(err)
		}
		return runJacobiSim(t, seed, 0, ctrl, core.Lossless, driftCost)
	})
	t.Logf("paper-default fixed τ=%.1f s: %.1f s mean; adaptive: %.1f s mean (%.2f%% win)",
		paperDefault, fixed, adaptive, 100*(1-adaptive/fixed))
	if adaptive >= fixed {
		t.Fatalf("adaptive mean %.1f s does not beat the stale fixed interval's %.1f s", adaptive, fixed)
	}
	// The trajectory must actually show the re-plan: the final interval
	// grows well past the early-phase plan as the cost estimate climbs.
	ctrl, err := adapt.New(conservativeControllerConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := runJacobiSim(t, 1, 0, ctrl, core.Lossless, driftCost)
	plans := out.IntervalPlans
	if len(plans) < 2 {
		t.Fatalf("expected several re-plans, got %d", len(plans))
	}
	first, last := plans[0], plans[len(plans)-1]
	if last.Interval <= first.Interval {
		t.Fatalf("interval did not grow with the cost drift: %.1f → %.1f", first.Interval, last.Interval)
	}
	if last.Cost <= first.Cost {
		t.Fatalf("cost estimate did not track the drift: %.2f → %.2f", first.Cost, last.Cost)
	}
}
