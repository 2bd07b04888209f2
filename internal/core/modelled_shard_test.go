package core_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
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
	if len(out.FailureEvents) != 1 {
		t.Fatalf("expected 1 failure, got %d", len(out.FailureEvents))
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
