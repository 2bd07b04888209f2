package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/failure"
	"repro/internal/fti"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// TestStorageFaultCampaignInvisibleToSolver is the PR's headline
// property: a sustained storage-fault campaign — the first attempt of
// every distinct storage object fails transiently — must be entirely
// absorbed by the retry layer. The solver sees zero errors, degrades
// nothing, and produces a residual trace bitwise identical to the
// fault-free run.
func TestStorageFaultCampaignInvisibleToSolver(t *testing.T) {
	a := sparse.Poisson2D(30)
	xe := sparse.SmoothField(a.Rows, 21)
	b := sparse.RHSForSolution(a, xe)
	newSolver := func() *solver.CG {
		return solver.NewCG(a, nil, b, nil, solver.SeqSpace{}, solver.Options{RTol: 1e-10})
	}
	cfg := Config{Scheme: Traditional, Interval: 1, Shards: 8}

	run := func(st fti.Storage, mgrCfg Config) ([]float64, *Manager, int, error) {
		s := newSolver()
		m, err := NewManager(mgrCfg, st, s)
		if err != nil {
			t.Fatal(err)
		}
		var trace []float64
		ckpts := 0
		_, err = solver.RunToConvergence(s, solver.Options{MaxIter: 2000}, func(it int, rnorm float64) error {
			trace = append(trace, rnorm)
			info, err := m.MaybeCheckpoint()
			if err != nil {
				return err
			}
			if info != nil {
				ckpts++
			}
			return nil
		})
		return trace, m, ckpts, err
	}

	// Fault-free reference.
	want, _, _, err := run(fti.NewMemStorage(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Fault campaign: injector under the retry wrapper, every object's
	// first write attempt fails.
	inj := failure.NewStorageInjector(fti.NewMemStorage(), 7, failure.StorageProfile{FailFirstAttempt: true})
	res := fti.NewResilient(inj, fti.FaultPolicy{MaxRetries: 4, Seed: 7, Sleep: func(time.Duration) {}})
	degCfg := cfg
	degCfg.DegradedWrites = true
	got, m, ckpts, err := run(res, degCfg)
	if err != nil {
		t.Fatalf("solver saw a storage error through the retry layer: %v", err)
	}

	ist := inj.Stats()
	injected := ist.WriteFaults + ist.ReadFaults
	if injected < 500 {
		t.Fatalf("campaign injected only %d faults over %d checkpoints, want ≥ 500 — grow the system", injected, ckpts)
	}
	if m.DegradedSaves() != 0 {
		t.Fatalf("%d checkpoints degraded; every fault should have been absorbed (last: %v)",
			m.DegradedSaves(), m.LastSaveError())
	}
	st := res.Stats()
	if st.Recovered == 0 || st.Exhausted != 0 || st.Permanent != 0 {
		t.Fatalf("retry stats %+v: want recoveries only", st)
	}

	// Bitwise-identical convergence: storage faults may not perturb the
	// numerics by even one ULP.
	if len(got) != len(want) {
		t.Fatalf("trace lengths differ: %d vs %d iterations", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("iteration %d: residual %x != fault-free %x", i, got[i], want[i])
		}
	}
	t.Logf("campaign: %d faults across %d checkpoints absorbed (%d retries), trace of %d residuals bitwise identical",
		injected, ckpts, st.Retries, len(got))
}
