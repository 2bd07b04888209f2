package core

import (
	"reflect"
	"testing"

	"repro/internal/adapt"
	"repro/internal/fti"
)

// fakeClock is a manually advanced clock for deterministic measured
// runs of the driver.
type fakeClock struct{ now float64 }

func (c *fakeClock) read() float64 { return c.now }

func pinnedController(t *testing.T, tau float64, async bool) *adapt.Controller {
	t.Helper()
	ctrl, err := adapt.New(adapt.Config{
		PriorMTTI: 1000, Async: async,
		MinInterval: tau, MaxInterval: tau, InitialInterval: tau,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// stepFailures is a step-keyed failure source for measured runs: a
// failure lands at the end of each listed step, counted over the steps
// the driver actually executes.
type stepFailures struct {
	at   map[int]bool
	step int
}

func (f *stepFailures) Strikes(w Window) (float64, bool) {
	if w.Op != OpStep {
		return 0, false
	}
	f.step++
	return w.End, f.at[f.step]
}

// TestAdaptiveConfigExclusivity: IntervalSeconds and Controller cannot
// both drive the cadence, nor can a modelled run's seconds and the
// Manager's iteration count, and the controller's cost model must match
// the run's checkpoint mode.
func TestAdaptiveConfigExclusivity(t *testing.T) {
	a, b, _ := cgSystem(t)
	s := newCG(t, a, b)
	m, err := NewManager(Config{Scheme: Traditional}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drive(DriveConfig{Stepper: s, Manager: m, IntervalSeconds: 5, Controller: pinnedController(t, 10, false)}); err == nil {
		t.Fatal("IntervalSeconds + Controller accepted")
	}
	if _, err := Drive(DriveConfig{Stepper: s, Manager: m, Controller: pinnedController(t, 10, true)}); err == nil {
		t.Fatal("async controller accepted for a sync Manager")
	}
	// A modelled run has one cadence, in virtual seconds: a Manager that
	// also counts iterations would checkpoint on both.
	counting, err := NewManager(Config{Scheme: Traditional, Interval: 5}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Drive(DriveConfig{Stepper: s, Manager: counting, Costs: &Costs{TitSeconds: 1}, IntervalSeconds: 5}); err == nil {
		t.Fatal("modelled costs accepted over a Manager with an iteration-count Interval")
	}
	if s.Iteration() != 0 {
		t.Fatalf("a rejected configuration stepped the solver to iteration %d", s.Iteration())
	}
}

// TestAdaptiveDueFollowsClock: a checkpoint opens exactly when the
// controller's interval has elapsed on the configured clock since the
// last one — however many iterations that takes — and the window
// resets at each checkpoint.
func TestAdaptiveDueFollowsClock(t *testing.T) {
	a, b, _ := cgSystem(t)
	s := newCG(t, a, b)
	clk := &fakeClock{}
	m, err := NewManager(Config{Scheme: Traditional}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	var ckptIters []int
	out, err := Drive(DriveConfig{
		Stepper:    s,
		Manager:    m,
		Clock:      clk.read,
		Controller: pinnedController(t, 10, false),
		OnStep: func() {
			// One second per iteration up to 20, four from then on: a
			// 10-second window is ten iterations, then three.
			if s.Iteration() <= 20 {
				clk.now++
			} else {
				clk.now += 4
			}
			if it := lastCkptIter(m); it > 0 && (len(ckptIters) == 0 || ckptIters[len(ckptIters)-1] != it) {
				ckptIters = append(ckptIters, it)
			}
		},
		MaxIterations: 35,
	})
	if err != nil {
		t.Fatal(err)
	}
	// t=10 → iteration 10; t=20 → 20; then 32 ≥ 30 at iteration 23,
	// 44 ≥ 42 at 26, 56 at 29, 68 at 32 (each first seen a step later).
	if want := []int{10, 20, 23, 26, 29, 32}; !reflect.DeepEqual(ckptIters, want) {
		t.Fatalf("checkpoints at iterations %v, want %v", ckptIters, want)
	}
	if out.Checkpoints != len(ckptIters) {
		t.Fatalf("%d checkpoints counted, %d seen", out.Checkpoints, len(ckptIters))
	}
}

// TestAdaptiveManagerFeedsObservations: checkpoints and recoveries
// populate the controller's estimators with what the ops measured for
// themselves — a clock that stands still while they run cannot zero
// them — and a full checkpoint/recover cycle works under the adaptive
// cadence.
func TestAdaptiveManagerFeedsObservations(t *testing.T) {
	a, b, _ := cgSystem(t)
	s := newCG(t, a, b)
	clk := &fakeClock{}
	ctrl := pinnedController(t, 5, false)
	m, err := NewManager(Config{Scheme: Lossy}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Drive(DriveConfig{
		Stepper:       s,
		Manager:       m,
		X0:            make([]float64, a.Rows),
		Clock:         clk.read,
		Controller:    ctrl,
		Failures:      &stepFailures{at: map[int]bool{12: true}},
		OnStep:        func() { clk.now++ }, // one virtual second per iteration
		MaxIterations: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Fatal("did not converge under adaptive checkpointing")
	}
	if out.Failures != 1 || out.CheckpointRestarts != 1 {
		t.Fatalf("failures=%d checkpoint restarts=%d, want one of each", out.Failures, out.CheckpointRestarts)
	}
	est := ctrl.Estimates(clk.now)
	if est.SyncCost <= 0 {
		t.Errorf("no sync-cost observations reached the controller: %+v", est)
	}
	if est.Capture != 0 || est.Background != 0 {
		t.Errorf("sync run fed async stage observations: %+v", est)
	}
	if est.Recovery <= 0 || est.IORestarts != 1 {
		t.Errorf("no recovery observation reached the controller: %+v", est)
	}
	if est.Failures != 1 {
		t.Errorf("controller saw %d failures, want 1", est.Failures)
	}
	if est.Ratio <= 1 {
		t.Errorf("compression-ratio estimate %g, want > 1 for the lossy scheme", est.Ratio)
	}
	if len(ctrl.Trajectory()) == 0 || len(out.IntervalPlans) != len(ctrl.Trajectory()) {
		t.Errorf("controller re-planned %d times, outcome reports %d", len(ctrl.Trajectory()), len(out.IntervalPlans))
	}
}

// TestAdaptiveAsyncManagerFeedsStageTimings: with a real async
// Manager the capture/background split reaches the controller once
// saves commit.
func TestAdaptiveAsyncManagerFeedsStageTimings(t *testing.T) {
	a, b, _ := cgSystem(t)
	s := newCG(t, a, b)
	clk := &fakeClock{}
	ctrl := pinnedController(t, 5, true)
	m, err := NewManager(Config{Scheme: Lossy, Async: true}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Drive(DriveConfig{
		Stepper:       s,
		Manager:       m,
		Clock:         clk.read,
		Controller:    ctrl,
		OnStep:        func() { clk.now++ },
		MaxIterations: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Fatal("did not converge")
	}
	if out.Checkpoints == 0 || m.InFlight() {
		t.Fatalf("checkpoints=%d in-flight=%v: the driver must drain and count the last save", out.Checkpoints, m.InFlight())
	}
	est := ctrl.Estimates(clk.now)
	if est.Capture <= 0 && est.Background <= 0 {
		t.Errorf("no async stage observations reached the controller: %+v", est)
	}
	if est.SyncCost != 0 {
		t.Errorf("async Manager fed sync-cost observations: %+v", est)
	}
}
