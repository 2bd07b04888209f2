package core_test

import (
	"math"
	"testing"

	"repro/internal/abft"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fti"
	"repro/internal/precond"
	"repro/internal/solver"
	"repro/internal/sz"
)

// tieredConfig builds one guarded-or-not CG sim config over the shared
// test system with a fixed failure schedule.
func tieredConfig(t *testing.T, guarded bool, schedule []float64) (core.DriveConfig, *abft.Guard) {
	t.Helper()
	a, b, _ := testSystem()
	s := solver.NewCG(a, precond.NewJacobiFromMatrix(a), b, nil, solver.SeqSpace{},
		solver.Options{RTol: 1e-9})
	cfg := core.Config{
		Scheme:   core.Lossy,
		SZParams: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4},
	}
	var guard *abft.Guard
	if guarded {
		g, err := abft.NewGuard(a, b, s, abft.Config{Seed: 3})
		if err != nil {
			t.Fatalf("NewGuard: %v", err)
		}
		cfg.ABFT, guard = g, g
	}
	m, err := core.NewManager(cfg, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return core.DriveConfig{
		Stepper:         s,
		Manager:         m,
		X0:              make([]float64, a.Rows),
		IntervalSeconds: 10,
		Failures:        core.FailureTimes(schedule, nil),
		MaxIterations:   100000,
		Costs: &core.Costs{
			TitSeconds:        1,
			CheckpointSeconds: func(fti.Info) float64 { return 2 },
			RecoverySeconds:   func(fti.Info) float64 { return 8 },
		},
	}, guard
}

func TestTieredSimReducesPFSReadTraffic(t *testing.T) {
	schedule := []float64{15, 28}

	withCfg, _ := tieredConfig(t, true, schedule)
	with, err := core.Drive(withCfg)
	if err != nil {
		t.Fatalf("guarded run: %v", err)
	}
	withoutCfg, _ := tieredConfig(t, false, schedule)
	without, err := core.Drive(withoutCfg)
	if err != nil {
		t.Fatalf("unguarded run: %v", err)
	}

	if !with.Converged || !without.Converged {
		t.Fatalf("convergence: with=%v without=%v", with.Converged, without.Converged)
	}
	if len(with.FailureEvents) == 0 || len(without.FailureEvents) == 0 {
		t.Fatalf("failures: with=%d without=%d, want both runs to see failures", len(with.FailureEvents), len(without.FailureEvents))
	}
	_, withTiers, withRead := with.Recoveries()
	_, withoutTiers, withoutRead := without.Recoveries()
	if withoutRead == 0 {
		t.Fatal("unguarded run read nothing back — the comparison needs checkpoint restarts to beat")
	}
	if withTiers[core.TierABFT] == 0 {
		t.Fatal("guarded run never recovered via the ABFT tier")
	}
	if withoutTiers[core.TierABFT] != 0 {
		t.Fatalf("unguarded run reports %d ABFT recoveries", withoutTiers[core.TierABFT])
	}
	// The paper-level claim the tier exists for: ABFT recoveries read
	// nothing back from the PFS, so read traffic must strictly drop.
	if withRead >= withoutRead {
		t.Fatalf("PFS read traffic did not drop: %d bytes with ABFT vs %d without", withRead, withoutRead)
	}
	// Both runs converge to the solver's own tolerance; the ABFT path
	// must not have degraded the solution.
	if !(with.FinalResidual <= 10*without.FinalResidual) || math.IsNaN(with.FinalResidual) {
		t.Fatalf("guarded final residual %.3e vs unguarded %.3e", with.FinalResidual, without.FinalResidual)
	}
}

func TestTieredSimExhaustionFallsBackToCheckpoint(t *testing.T) {
	// Corrupt the guard's retained state after every retention refresh
	// from step 12 on: whenever the failure hits, the ABFT tier fails
	// verification and the chain must degrade to the checkpoint tier,
	// not panic.
	schedule := []float64{15}
	cfg, guard := tieredConfig(t, true, schedule)
	steps := 0
	cfg.OnStep = func() {
		steps++
		if steps >= 12 {
			guard.CorruptRetained()
		}
	}
	out, err := core.Drive(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !out.Converged {
		t.Fatal("did not converge")
	}
	_, tiers, readBytes := out.Recoveries()
	if tiers[core.TierCheckpoint]+tiers[core.TierPreviousCheckpoint] == 0 || tiers[core.TierABFT] != 0 {
		t.Fatalf("recoveries by tier %v, want the checkpoint fallback", tiers)
	}
	if readBytes == 0 {
		t.Fatal("checkpoint fallback recorded no PFS reads")
	}
	rep := out.RecoveryReports[0]
	if rep.Attempts[0].Tier != core.TierABFT || rep.Attempts[0].Accepted {
		t.Fatalf("first attempt %+v, want rejected abft", rep.Attempts[0])
	}
}

func TestTieredSimDeterministic(t *testing.T) {
	run := func() *core.Outcome {
		cfg, _ := tieredConfig(t, true, nil)
		cfg.Failures = core.FailureTimes(nil, failure.NewInjector(120, 5))
		out, err := core.Drive(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return out
	}
	a, b := run(), run()
	aFailures, aTiers, aRead := a.Recoveries()
	bFailures, bTiers, bRead := b.Recoveries()
	if a.SimSeconds != b.SimSeconds || a.IterationsExecuted != b.IterationsExecuted ||
		aFailures != bFailures || aTiers != bTiers || aRead != bRead {
		t.Fatalf("seeded tiered runs diverge:\n%+v\n%+v", a, b)
	}
	if math.Float64bits(a.FinalResidual) != math.Float64bits(b.FinalResidual) {
		t.Fatalf("final residuals not bitwise equal: %x vs %x",
			math.Float64bits(a.FinalResidual), math.Float64bits(b.FinalResidual))
	}
}
