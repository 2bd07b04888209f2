package experiments

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fti"
)

// TestModelledAndMeasuredClocksWalkOneIterate: a modelled column and a
// measured column of the same method run the same solver, so with no
// failure a lossy run ends on the bitwise-same iterate at the same
// iteration on either clock. The clocks place saves differently — the
// virtual one every few steps, the wall one after every step — and a
// save never moves the iterate.
func TestModelledAndMeasuredClocksWalkOneIterate(t *testing.T) {
	a, b := poissonSystem(12)
	for _, method := range methodNames {
		base := cluster.PaperBaselines()[method]
		var xs [2][]float64
		var its [2]int
		for i, costs := range []*core.Costs{{
			TitSeconds:        1,
			CheckpointSeconds: func(fti.Info) float64 { return 3 },
			RecoverySeconds:   func(fti.Info) float64 { return 5 },
		}, nil} {
			s, m, err := managedSolver(method, a, b, base.RTol, core.Lossy, base.LossyErrorBound)
			if err != nil {
				t.Fatal(err)
			}
			interval := 4.5 // virtual seconds: a save every few steps
			if costs == nil {
				interval = 1e-9 // wall seconds: a save after every step
			}
			out, err := core.Drive(core.DriveConfig{Stepper: s, Manager: m, X0: make([]float64, a.Rows),
				Costs: costs, IntervalSeconds: interval})
			if err != nil {
				t.Fatal(err)
			}
			if !out.Converged || out.Checkpoints == 0 || len(out.FailureEvents) != 0 {
				t.Fatalf("%s run %d: converged %v after %d checkpoints and %d failures, want a converged failure-free run that saved",
					method, i, out.Converged, out.Checkpoints, len(out.FailureEvents))
			}
			xs[i], its[i] = s.X(), out.ConvergenceIterations
		}
		if its[0] != its[1] {
			t.Errorf("%s: modelled run converged at iteration %d, measured at %d", method, its[0], its[1])
		}
		for j := range xs[0] {
			if math.Float64bits(xs[0][j]) != math.Float64bits(xs[1][j]) {
				t.Errorf("%s: x[%d] is %v modelled, %v measured", method, j, xs[0][j], xs[1][j])
				break
			}
		}
	}
}
