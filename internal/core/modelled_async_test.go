package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fti"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/sz"
)

// asyncSystem builds a fresh lossy-checkpointed Jacobi solver+manager
// pair (each run needs its own: the driver mutates solver state); async
// is the Manager's Config.Async, which decides the cost mode.
func asyncSystem(t *testing.T, async bool) (*solver.Stationary, *core.Manager, int) {
	t.Helper()
	a := sparse.Poisson2D(8)
	xe := sparse.SmoothField(a.Rows, 31)
	b := sparse.RHSForSolution(a, xe)
	s, err := solver.NewStationary(solver.KindJacobi, a, b, nil, 0, solver.Options{RTol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewManager(core.Config{
		Scheme:   core.Lossy,
		SZParams: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4},
		Async:    async,
	}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	return s, m, a.Rows
}

func asyncCfg(s *solver.Stationary, m *core.Manager, n int, capSec, ckptSec float64, schedule []float64) core.DriveConfig {
	return core.DriveConfig{
		Stepper:         s,
		Manager:         m,
		X0:              make([]float64, n),
		IntervalSeconds: 25,
		Failures:        core.FailureTimes(schedule, nil),
		MaxIterations:   200000,
		RecordResiduals: true,
		Costs: &core.Costs{
			TitSeconds:        1,
			CheckpointSeconds: func(fti.Info) float64 { return ckptSec },
			CaptureSeconds:    func(fti.Info) float64 { return capSec },
			RecoverySeconds:   func(fti.Info) float64 { return ckptSec },
		},
	}
}

// TestAsyncCostModeRunsTheManagersPipeline: Config.Async is the one
// overlap switch. A modelled run over an async Manager drives its real
// pipeline — every committed save went through it, and the costs were
// priced off each save's committed record, not the one it opened with.
func TestAsyncCostModeRunsTheManagersPipeline(t *testing.T) {
	s, m, n := asyncSystem(t, true)
	cfg := asyncCfg(s, m, n, 0.5, 10, nil)
	var priced []fti.Info
	cfg.Costs.CheckpointSeconds = func(info fti.Info) float64 { priced = append(priced, info); return 10 }
	out, err := core.Drive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := m.AsyncCheckpointer().Stats()
	if out.Checkpoints == 0 || st.Saves != out.Checkpoints || st.FailedSaves != 0 {
		t.Fatalf("%d checkpoints committed, the pipeline ran %d saves (%d failed)", out.Checkpoints, st.Saves, st.FailedSaves)
	}
	for _, info := range priced {
		if info.Bytes == 0 || info.Iteration == 0 {
			t.Fatalf("a save was priced off the record it opened with: %+v", info)
		}
	}
}

// TestAsyncCostModeFailureFreeIdenticalNumericsCheaperClock: with no
// failures the async mode runs the identical iteration sequence
// (bitwise-identical residual trace) while charging only the capture
// stall — the solver-visible checkpoint time collapses.
func TestAsyncCostModeFailureFreeIdenticalNumericsCheaperClock(t *testing.T) {
	s1, m1, n := asyncSystem(t, false)
	syncOut, err := core.Drive(asyncCfg(s1, m1, n, 0.5, 10, nil))
	if err != nil {
		t.Fatal(err)
	}
	s2, m2, _ := asyncSystem(t, true)
	asyncOut, err := core.Drive(asyncCfg(s2, m2, n, 0.5, 10, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !syncOut.Converged || !asyncOut.Converged {
		t.Fatal("both modes must converge")
	}
	if len(syncOut.Residuals) != len(asyncOut.Residuals) {
		t.Fatalf("iteration counts differ: %d vs %d", len(syncOut.Residuals), len(asyncOut.Residuals))
	}
	for i := range syncOut.Residuals {
		if math.Float64bits(syncOut.Residuals[i]) != math.Float64bits(asyncOut.Residuals[i]) {
			t.Fatalf("residual traces diverge at iteration %d", i)
		}
	}
	if asyncOut.Checkpoints != syncOut.Checkpoints {
		t.Fatalf("checkpoint counts differ: async %d, sync %d", asyncOut.Checkpoints, syncOut.Checkpoints)
	}
	// Background encode+write (10s) fits inside the 25s interval, so
	// async pays 0.5s capture per checkpoint instead of 10s.
	wantStall := 0.5 * float64(asyncOut.Checkpoints)
	if math.Abs(asyncOut.CheckpointTime-wantStall) > 1e-9 {
		t.Fatalf("async checkpoint time %g, want capture-only %g", asyncOut.CheckpointTime, wantStall)
	}
	if asyncOut.BackpressureTime != 0 {
		t.Fatalf("no backpressure expected, got %g", asyncOut.BackpressureTime)
	}
	if asyncOut.SimSeconds >= syncOut.SimSeconds {
		t.Fatalf("async wall clock %g not below sync %g", asyncOut.SimSeconds, syncOut.SimSeconds)
	}
}

// TestAsyncCostModeBackpressure: a background pipeline slower than the
// checkpoint interval stalls the next capture — the charged wait is
// tbg − interval per steady-state checkpoint.
func TestAsyncCostModeBackpressure(t *testing.T) {
	s, m, n := asyncSystem(t, true)
	// interval 25 (plus 1.0 capture), background 40 → every checkpoint
	// after the first waits ≈ 40 − 26 = 14s.
	out, err := core.Drive(asyncCfg(s, m, n, 1.0, 40, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Fatal("did not converge")
	}
	if out.Checkpoints < 3 {
		t.Fatalf("want several checkpoints, got %d", out.Checkpoints)
	}
	if out.BackpressureTime <= 0 {
		t.Fatal("backpressure must be charged when tbg > interval")
	}
	perCkpt := out.BackpressureTime / float64(out.Checkpoints-1)
	if math.Abs(perCkpt-14) > 1 {
		t.Fatalf("steady-state backpressure %g s/checkpoint, want ≈14", perCkpt)
	}
}

// TestAsyncCostModeFailureDuringInFlightWrite: a failure before the
// background write commits aborts that checkpoint; recovery falls back
// (here: to scratch, as it was the first checkpoint) and the run still
// converges.
func TestAsyncCostModeFailureDuringInFlightWrite(t *testing.T) {
	s, m, n := asyncSystem(t, true)
	// First checkpoint captured at t=25 (0.5s capture), background
	// write commits at 25.5+20=45.5. Failure at t=30 strikes mid-write.
	out, err := core.Drive(asyncCfg(s, m, n, 0.5, 20, []float64{30}))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Fatal("did not converge after the in-flight abort")
	}
	if out.Failures != 1 {
		t.Fatalf("failures = %d", out.Failures)
	}
	if out.AbortedCheckpoints != 1 {
		t.Fatalf("the in-flight checkpoint must be aborted, got %d aborts", out.AbortedCheckpoints)
	}
}

// TestAsyncCostModeFailureAfterCommitRecovers: a failure after the
// background write committed recovers from that checkpoint, exactly as
// in sync mode.
func TestAsyncCostModeFailureAfterCommitRecovers(t *testing.T) {
	s, m, n := asyncSystem(t, true)
	// Commit at 25.5+5 = 30.5; failure at 40 > 30.5.
	out, err := core.Drive(asyncCfg(s, m, n, 0.5, 5, []float64{40}))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Fatal("did not converge")
	}
	if out.AbortedCheckpoints != 0 {
		t.Fatalf("committed checkpoint wrongly aborted (%d aborts)", out.AbortedCheckpoints)
	}
	if out.Failures != 1 || out.RecoveryTime <= 0 {
		t.Fatalf("failures=%d recovery=%g", out.Failures, out.RecoveryTime)
	}
}
