package core_test

import (
	"strings"
	"testing"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fti"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/sz"
	"repro/internal/vec"
)

// testSystem returns a Poisson system small enough for fast sim runs.
func testSystem() (*sparse.CSR, []float64, []float64) {
	a := sparse.Poisson2D(12)
	xe := sparse.SmoothField(a.Rows, 41)
	b := sparse.RHSForSolution(a, xe)
	return a, b, xe
}

func newManagedCG(t *testing.T, a *sparse.CSR, b []float64, scheme core.Scheme) (*solver.CG, *core.Manager) {
	t.Helper()
	s := solver.NewCG(a, nil, b, nil, solver.SeqSpace{}, solver.Options{RTol: 1e-9})
	m, err := core.NewManager(core.Config{
		Scheme:   scheme,
		SZParams: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4},
	}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

func TestFailureFreeRunMatchesDirectSolve(t *testing.T) {
	a, b, _ := testSystem()
	direct := solver.NewCG(a, nil, b, nil, solver.SeqSpace{}, solver.Options{RTol: 1e-9})
	resDirect, _ := solver.RunToConvergence(direct, solver.Options{MaxIter: 5000}, nil)

	s, m := newManagedCG(t, a, b, core.Traditional)
	out, err := core.Drive(core.DriveConfig{
		Stepper: s,
		Manager: m,
		Costs: &core.Costs{
			TitSeconds: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Fatal("sim did not converge")
	}
	if out.IterationsExecuted != resDirect.Iterations {
		t.Fatalf("sim executed %d iterations, direct solve %d",
			out.IterationsExecuted, resDirect.Iterations)
	}
	if out.SimSeconds != float64(resDirect.Iterations) {
		t.Fatalf("sim time %v, want %v", out.SimSeconds, float64(resDirect.Iterations))
	}
	if len(out.FailureEvents) != 0 || out.Checkpoints != 0 {
		t.Fatalf("failure-free run recorded %d failures, %d checkpoints", len(out.FailureEvents), out.Checkpoints)
	}
}

func TestCheckpointsAtInterval(t *testing.T) {
	a, b, _ := testSystem()
	s, m := newManagedCG(t, a, b, core.Traditional)
	ckptCost := 5.0
	out, err := core.Drive(core.DriveConfig{
		Stepper:         s,
		Manager:         m,
		IntervalSeconds: 10,
		Costs: &core.Costs{
			TitSeconds:        1,
			CheckpointSeconds: func(fti.Info) float64 { return ckptCost },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Fatal("did not converge")
	}
	if out.Checkpoints == 0 {
		t.Fatal("no checkpoints taken")
	}
	// Each 10 s window of compute triggers one 5 s checkpoint.
	wantTime := float64(out.IterationsExecuted) + float64(out.Checkpoints)*ckptCost
	if out.SimSeconds != wantTime {
		t.Fatalf("sim time %v, want %v", out.SimSeconds, wantTime)
	}
	if out.CheckpointTime != float64(out.Checkpoints)*ckptCost {
		t.Fatalf("checkpoint time %v", out.CheckpointTime)
	}
}

func TestFailuresForceRecoveryAndStillConverge(t *testing.T) {
	a, b, xe := testSystem()
	for _, scheme := range []core.Scheme{core.Traditional, core.Lossless, core.Lossy} {
		s, m := newManagedCG(t, a, b, scheme)
		out, err := core.Drive(core.DriveConfig{
			Stepper:         s,
			Manager:         m,
			X0:              make([]float64, a.Rows),
			IntervalSeconds: 20,
			Failures:        core.FailureTimes(nil, failure.NewInjector(60, 7)),
			MaxIterations:   100000,
			Costs: &core.Costs{
				TitSeconds:        2,
				CheckpointSeconds: func(fti.Info) float64 { return 3 },
				RecoverySeconds:   func(fti.Info) float64 { return 4 },
			},
		})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if !out.Converged {
			t.Fatalf("%v: did not converge", scheme)
		}
		if len(out.FailureEvents) == 0 {
			t.Fatalf("%v: expected injected failures (MTTI 60 s, run >> 60 s)", scheme)
		}
		if out.RecoveryTime <= 0 {
			t.Fatalf("%v: no recovery time accounted", scheme)
		}
		// The solution must still satisfy the tolerance-based
		// reproducibility claim (§4.4.4).
		diff := make([]float64, len(xe))
		vec.Sub(diff, s.X(), xe)
		if rel := vec.Norm2(diff) / vec.Norm2(xe); rel > 1e-5 {
			t.Fatalf("%v: solution error %g after failures", scheme, rel)
		}
	}
}

func TestLossyRunExecutesMoreIterationsThanTraditional(t *testing.T) {
	// CG's lossy restarts cost extra iterations (paper §4.4.3), while
	// traditional recovery replays only the rollback. Compare total
	// executed iterations under the same failure schedule.
	a, b, _ := testSystem()
	run := func(scheme core.Scheme) *core.Outcome {
		s, m := newManagedCG(t, a, b, scheme)
		out, err := core.Drive(core.DriveConfig{
			Stepper:         s,
			Manager:         m,
			X0:              make([]float64, a.Rows),
			IntervalSeconds: 30,
			Failures:        core.FailureTimes(nil, failure.NewInjector(100, 11)),
			MaxIterations:   100000,
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
			t.Fatalf("%v did not converge", scheme)
		}
		return out
	}
	trad := run(core.Traditional)
	lossy := run(core.Lossy)
	if lossy.IterationsExecuted < trad.IterationsExecuted {
		t.Fatalf("lossy executed %d < traditional %d — lossy restarts should not be cheaper in iterations",
			lossy.IterationsExecuted, trad.IterationsExecuted)
	}
}

func TestFailureBeforeFirstCheckpointRestartsFresh(t *testing.T) {
	a, b, _ := testSystem()
	// Loose tolerance so a failure-free window long enough to converge
	// is likely; every failure restarts from scratch (no checkpoints).
	s := solver.NewCG(a, nil, b, nil, solver.SeqSpace{}, solver.Options{RTol: 1e-3})
	m, err := core.NewManager(core.Config{
		Scheme:   core.Lossy,
		SZParams: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4},
	}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.Drive(core.DriveConfig{
		Stepper:         s,
		Manager:         m,
		X0:              make([]float64, a.Rows),
		IntervalSeconds: 1e9,                                                 // never checkpoint
		Failures:        core.FailureTimes(nil, failure.NewInjector(120, 9)), // seed 9: first failure at t≈1.1 s
		MaxIterations:   100000,
		Costs: &core.Costs{
			TitSeconds:      4,
			RecoverySeconds: func(fti.Info) float64 { return 1 },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Fatal("did not converge")
	}
	if len(out.FailureEvents) == 0 {
		t.Fatal("expected at least one failure")
	}
	if out.Checkpoints != 0 {
		t.Fatalf("no checkpoints expected, got %d", out.Checkpoints)
	}
}

func TestEventTrace(t *testing.T) {
	a, b, _ := testSystem()
	s, m := newManagedCG(t, a, b, core.Lossy)
	out, err := core.Drive(core.DriveConfig{
		Stepper:         s,
		Manager:         m,
		X0:              make([]float64, a.Rows),
		IntervalSeconds: 25,
		Failures:        core.FailureTimes(nil, failure.NewInjector(80, 5)),
		RecordResiduals: true,
		MaxIterations:   100000,
		Costs: &core.Costs{
			TitSeconds:      5,
			RecoverySeconds: func(fti.Info) float64 { return 2 },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Residuals) != out.IterationsExecuted {
		t.Fatalf("residual trace has %d entries for %d iterations",
			len(out.Residuals), out.IterationsExecuted)
	}
	for _, e := range out.FailureEvents {
		if e.SimSeconds < 0 || e.SimSeconds > out.SimSeconds {
			t.Fatalf("failure event outside run: %+v", e)
		}
	}
}

// TestConfigValidation: Drive refuses each configuration it would not
// act on as asked, and the error names the setting it refuses.
func TestConfigValidation(t *testing.T) {
	a, b, _ := testSystem()
	manager := func(cfg core.Config) (*solver.CG, *core.Manager) {
		s := solver.NewCG(a, nil, b, nil, solver.SeqSpace{}, solver.Options{RTol: 1e-9})
		m, err := core.NewManager(cfg, fti.NewMemStorage(), s)
		if err != nil {
			t.Fatal(err)
		}
		return s, m
	}
	modelled := &core.Costs{TitSeconds: 1}
	ctrl, err := adapt.New(conservativeControllerConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, want string
		mcfg       core.Config
		drive      func(*core.DriveConfig)
	}{
		{"no stepper or manager", "Stepper", core.Config{}, func(d *core.DriveConfig) { d.Stepper, d.Manager = nil, nil }},
		{"clock with costs", "Clock", core.Config{}, func(d *core.DriveConfig) {
			d.Costs, d.Clock = modelled, func() float64 { return 0 }
		}},
		{"costs without a step price", "TitSeconds", core.Config{}, func(d *core.DriveConfig) { d.Costs = &core.Costs{} }},
		{"iteration cadence with costs", "Config.Interval", core.Config{Interval: 5}, func(d *core.DriveConfig) { d.Costs = modelled }},
		{"async manager with costs", "Config.Async", core.Config{Async: true}, func(d *core.DriveConfig) { d.Costs = modelled }},
		{"instrumented manager with costs", "Manager.Instrument", core.Config{}, func(d *core.DriveConfig) {
			d.Costs = modelled
			d.Manager.Instrument(obs.New(), nil)
		}},
		{"traced manager with costs", "Manager.Instrument", core.Config{}, func(d *core.DriveConfig) {
			d.Costs = modelled
			d.Manager.Instrument(nil, obs.NewTracer())
		}},
		{"quality auditor with costs", "Manager.InstrumentQuality", core.Config{}, func(d *core.DriveConfig) {
			d.Costs = modelled
			d.Manager.InstrumentQuality(quality.New(quality.Config{}))
		}},
		{"interval and controller", "IntervalSeconds", core.Config{}, func(d *core.DriveConfig) {
			d.IntervalSeconds, d.Controller = 10, ctrl
		}},
	} {
		c.mcfg.Scheme = core.Traditional
		s, m := manager(c.mcfg)
		cfg := core.DriveConfig{Stepper: s, Manager: m, X0: make([]float64, a.Rows)}
		c.drive(&cfg)
		_, err := core.Drive(cfg)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Drive returned %v, want an error naming %s", c.name, err, c.want)
		}
	}
}

func TestMaxIterationsCap(t *testing.T) {
	a, b, _ := testSystem()
	// Absurd tolerance so the solver never converges: the threshold is
	// then the solvers' 1e-50 absolute floor, which no residual of this
	// system reaches in 50 steps.
	s := solver.NewCG(a, nil, b, nil, solver.SeqSpace{}, solver.Options{RTol: 1e-300})
	m, err := core.NewManager(core.Config{Scheme: core.Traditional}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.Drive(core.DriveConfig{Stepper: s, Manager: m, Costs: &core.Costs{TitSeconds: 1}, MaxIterations: 50})
	if err != nil {
		t.Fatal(err)
	}
	if out.Converged {
		t.Fatal("should not converge at rtol 1e-300")
	}
	if out.IterationsExecuted != 50 {
		t.Fatalf("executed %d, want cap 50", out.IterationsExecuted)
	}
}
