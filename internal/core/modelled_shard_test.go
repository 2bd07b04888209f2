package core_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fti"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/sz"
)

// newShardedCG wires a CG solver to a lossy Manager with the given
// storage layout.
func newShardedCG(t *testing.T, a *sparse.CSR, b []float64, shards, workers int) (*solver.CG, *core.Manager) {
	t.Helper()
	s := solver.NewCG(a, nil, b, nil, solver.SeqSpace{}, solver.Options{RTol: 1e-9})
	m, err := core.NewManager(core.Config{
		Scheme:         core.Lossy,
		SZParams:       sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4},
		Shards:         shards,
		StorageWorkers: workers,
	}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

// shardedSimRun executes one failure-injected run whose checkpoint
// write cost comes from the cluster model's collective write.
func shardedSimRun(t *testing.T, shards, workers int) *core.Outcome {
	t.Helper()
	a, b, _ := testSystem()
	s, m := newShardedCG(t, a, b, shards, workers)
	mdl := cluster.Bebop()
	// Price the write at the paper's weak-scaled size: each of the 256
	// ranks contributes a state like this test system's. The local
	// solve still produces the real (small) checkpoint bytes; only the
	// virtual-time cost is scaled.
	const ranks = 256
	raw := float64(a.Rows) * 8 * ranks
	out, err := core.Drive(core.DriveConfig{
		Stepper:         s,
		Manager:         m,
		X0:              make([]float64, a.Rows),
		IntervalSeconds: 25,
		Failures:        core.FailureTimes([]float64{120, 260}, nil),
		MaxIterations:   200000,
		Costs: &core.Costs{
			TitSeconds: 2,
			CheckpointSeconds: func(info fti.Info) float64 {
				return mdl.CheckpointSeconds(ranks, float64(info.Bytes)*ranks, raw, core.Lossy)
			},
			RecoverySeconds: func(info fti.Info) float64 { return 3 },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Fatal("did not converge")
	}
	return out
}

// shardedRecoveryRun executes one controlled-failure run whose restart
// cost comes from the cluster model's recovery; the checkpoint cost is
// held constant so the two layouts execute identical virtual-time
// schedules.
func shardedRecoveryRun(t *testing.T, shards, workers int) *core.Outcome {
	t.Helper()
	a, b, _ := testSystem()
	s, m := newShardedCG(t, a, b, shards, workers)
	mdl := cluster.Bebop()
	const ranks = 256
	raw := float64(a.Rows) * 8 * ranks
	out, err := core.Drive(core.DriveConfig{
		Stepper:         s,
		Manager:         m,
		X0:              make([]float64, a.Rows),
		IntervalSeconds: 25,
		// One failure only, after the first committed checkpoint: the
		// recovery duration then shifts the completion time but not
		// the iteration/checkpoint sequence.
		Failures:      core.FailureTimes([]float64{40}, nil),
		MaxIterations: 200000,
		Costs: &core.Costs{
			TitSeconds:        2,
			CheckpointSeconds: func(info fti.Info) float64 { return 3 },
			RecoverySeconds: func(info fti.Info) float64 {
				return mdl.RecoverySeconds(ranks, float64(info.Bytes)*ranks, raw, core.Lossy)
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Fatal("did not converge")
	}
	if out.Failures != 1 {
		t.Fatalf("expected 1 failure, got %d", out.Failures)
	}
	return out
}

// TestShardedRecoveryPricing: restarts priced through the cluster
// model leave the numerics untouched, and the layout does not move the
// price: both layouts write the same payload bytes.
func TestShardedRecoveryPricing(t *testing.T) {
	mono := shardedRecoveryRun(t, 1, 0)
	sharded := shardedRecoveryRun(t, 8, 4)
	if mono.IterationsExecuted != sharded.IterationsExecuted ||
		mono.ConvergenceIterations != sharded.ConvergenceIterations ||
		mono.FinalResidual != sharded.FinalResidual {
		t.Fatalf("recovery pricing changed the numerics:\nmono    %+v\nsharded %+v", mono, sharded)
	}
	if sharded.RecoveryTime != mono.RecoveryTime {
		t.Fatalf("layout moved the modelled recovery time: mono %.3fs sharded %.3fs",
			mono.RecoveryTime, sharded.RecoveryTime)
	}
}

// TestShardedSimNumericsLayoutIndependent: through real recoveries,
// the sharded and monolithic layouts must execute the identical
// iteration sequence at the identical modelled checkpoint time.
func TestShardedSimNumericsLayoutIndependent(t *testing.T) {
	mono := shardedSimRun(t, 1, 0)
	sharded := shardedSimRun(t, 8, 4)
	if mono.IterationsExecuted != sharded.IterationsExecuted ||
		mono.ConvergenceIterations != sharded.ConvergenceIterations ||
		mono.FinalResidual != sharded.FinalResidual {
		t.Fatalf("layout changed the numerics:\nmono    %+v\nsharded %+v", mono, sharded)
	}
	if sharded.CheckpointTime != mono.CheckpointTime {
		t.Fatalf("layout moved the modelled checkpoint time: mono %.2fs sharded %.2fs",
			mono.CheckpointTime, sharded.CheckpointTime)
	}
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
