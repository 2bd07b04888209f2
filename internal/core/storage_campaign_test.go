package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
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

// TestStorageRetryPriceMatchesResilient: the modelled clock charges a
// save the backoff fti.Resilient actually sleeps. Raw saves run under a
// seeded all-transient fault campaign (rate 0.3) with a recording
// Sleep; per layout, the mean sleep per save must land within ±5% of
// cluster.Model.StorageRetrySeconds — one object for a monolithic save,
// the shards plus the manifest for a sharded one, each backoff at the
// mean ¾·step of its [step/2, step] draw.
func TestStorageRetryPriceMatchesResilient(t *testing.T) {
	const rate, saves = 0.3, 40000
	for _, shards := range []int{1, 8} {
		var slept time.Duration
		inj := failure.NewStorageInjector(fti.NewMemStorage(), 11, failure.StorageProfile{Rate: rate})
		pol := fti.FaultPolicy{Seed: 11, Sleep: func(d time.Duration) { slept += d }}.Normalize()
		ck := fti.New(fti.NewResilient(inj, pol), fti.Raw{})
		if err := ck.SetSharding(shards, 1); err != nil {
			t.Fatal(err)
		}
		snap := &fti.Snapshot{Vectors: map[string][]float64{"x": make([]float64, 256)}}
		failed := 0
		for i := 0; i < saves; i++ {
			snap.Iteration = i
			// A write that exhausts its retries fails the save; the
			// backoff it slept first is still part of the price.
			if _, err := ck.Save(snap); err != nil {
				failed++
			}
		}
		want := cluster.Bebop().StorageRetrySeconds(shards, rate,
			pol.BaseDelay.Seconds(), pol.MaxDelay.Seconds(), pol.MaxRetries)
		got := slept.Seconds() / saves
		if math.Abs(got/want-1) > 0.05 {
			t.Errorf("shards=%d: mean sleep %.4g s per save, model prices %.4g s (%+.1f%%)",
				shards, got, want, 100*(got/want-1))
		}
		t.Logf("shards=%d: mean sleep %.4g s per save, model %.4g s, %d of %d saves exhausted a retry budget",
			shards, got, want, failed, saves)
	}
}
