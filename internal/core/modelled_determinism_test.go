package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fti"
)

// runSeeded executes one lossy CG sim with the given failure seed.
func runSeeded(t *testing.T, seed int64) *core.Outcome {
	t.Helper()
	a, b, _ := testSystem()
	s, m := newManagedCG(t, a, b, core.Lossy)
	out, err := core.Drive(core.DriveConfig{
		Stepper:         s,
		Manager:         m,
		X0:              make([]float64, a.Rows),
		IntervalSeconds: 25,
		Failures:        core.FailureTimes(nil, failure.NewInjector(120, seed)),
		MaxIterations:   200000,
		Costs: &core.Costs{
			TitSeconds:        2,
			CheckpointSeconds: func(fti.Info) float64 { return 2 },
			RecoverySeconds:   func(fti.Info) float64 { return 3 },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSimDeterministicPerSeed: identical seeds must give bitwise
// identical outcomes — required for reproducible experiments.
func TestSimDeterministicPerSeed(t *testing.T) {
	a := runSeeded(t, 42)
	b := runSeeded(t, 42)
	if a.SimSeconds != b.SimSeconds ||
		a.IterationsExecuted != b.IterationsExecuted ||
		len(a.FailureEvents) != len(b.FailureEvents) ||
		a.Checkpoints != b.Checkpoints ||
		a.FinalResidual != b.FinalResidual {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

// TestSimSeedsDiffer: different failure schedules should generally
// produce different outcomes.
func TestSimSeedsDiffer(t *testing.T) {
	a := runSeeded(t, 1)
	c := runSeeded(t, 2)
	if a.SimSeconds == c.SimSeconds && len(a.FailureEvents) == len(c.FailureEvents) &&
		a.IterationsExecuted == c.IterationsExecuted {
		t.Fatal("different seeds produced identical outcomes (suspicious)")
	}
}

// TestFailureScheduleExact: an explicit schedule fires exactly the
// listed failures.
func TestFailureScheduleExact(t *testing.T) {
	a, b, _ := testSystem()
	s, m := newManagedCG(t, a, b, core.Lossy)
	out, err := core.Drive(core.DriveConfig{
		Stepper:         s,
		Manager:         m,
		X0:              make([]float64, a.Rows),
		IntervalSeconds: 20,
		Failures:        core.FailureTimes([]float64{30, 70}, nil),
		MaxIterations:   200000,
		Costs: &core.Costs{
			TitSeconds:        2,
			CheckpointSeconds: func(fti.Info) float64 { return 1 },
			RecoverySeconds:   func(fti.Info) float64 { return 1 },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Fatal("did not converge")
	}
	if len(out.FailureEvents) != 2 {
		t.Fatalf("failures %+v, want exactly 2", out.FailureEvents)
	}
	// First failure at t=30: by then 1 checkpoint (t=20..21) and ~14
	// iterations have happened; event times must match the schedule.
	if out.FailureEvents[0].SimSeconds != 30 || out.FailureEvents[1].SimSeconds != 70 {
		t.Fatalf("failure times %+v, want 30 and 70", out.FailureEvents)
	}
}

// TestConvergenceIterationsNeverExceedExecuted: logical iterations
// roll back on failures, so they are bounded by executed steps.
func TestConvergenceIterationsNeverExceedExecuted(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		out := runSeeded(t, seed)
		if out.ConvergenceIterations > out.IterationsExecuted {
			t.Fatalf("seed %d: logical %d > executed %d",
				seed, out.ConvergenceIterations, out.IterationsExecuted)
		}
		if len(out.FailureEvents) == 0 && out.ConvergenceIterations != out.IterationsExecuted {
			t.Fatalf("seed %d: failure-free logical %d != executed %d",
				seed, out.ConvergenceIterations, out.IterationsExecuted)
		}
	}
}
