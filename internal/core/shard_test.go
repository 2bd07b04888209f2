package core

import (
	"testing"

	"repro/internal/fti"
	"repro/internal/solver"
	"repro/internal/sz"
)

// shardTraceRun drives CG with checkpoints every interval iterations
// and one recovery at failAt, under an arbitrary layout/pipeline
// configuration, returning the residual after every step.
func shardTraceRun(t *testing.T, async bool, shards, workers, interval, failAt int) ([]float64, fti.Info) {
	t.Helper()
	a, b, _ := cgSystem(t)
	s := newCG(t, a, b)
	m, err := NewManager(Config{
		Scheme:         Lossy,
		Interval:       interval,
		Async:          async,
		Shards:         shards,
		StorageWorkers: workers,
		SZParams:       sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4},
	}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	var trace []float64
	failed := false
	_, err = solver.RunToConvergence(s, solver.Options{MaxIter: 5000}, func(it int, rnorm float64) error {
		trace = append(trace, rnorm)
		if err := checkpointIfDue(m); err != nil {
			return err
		}
		if !failed && it == failAt {
			failed = true
			recoverCheckpoint(t, m)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.WaitCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	return trace, info
}

// TestShardedAsyncTraceBitwiseIdenticalToMonolithicSync is the
// acceptance property: the storage layout (monolithic vs 8-way
// sharded) and the pipeline (sync vs async) change where checkpoint
// bytes live and when they are written — never the numerics. All four
// combinations must produce bitwise-identical residual traces through
// a checkpoint/recover cycle.
func TestShardedAsyncTraceBitwiseIdenticalToMonolithicSync(t *testing.T) {
	ref, refInfo := shardTraceRun(t, false, 1, 0, 10, 35)
	if refInfo.Shards != 1 {
		t.Fatalf("monolithic run reported %d shards", refInfo.Shards)
	}
	for _, tc := range []struct {
		name           string
		async          bool
		shards, wkrs   int
		expectedShards int
	}{
		{"sync/sharded", false, 8, 4, 8},
		{"async/monolithic", true, 1, 0, 1},
		{"async/sharded", true, 8, 4, 8},
	} {
		trace, info := shardTraceRun(t, tc.async, tc.shards, tc.wkrs, 10, 35)
		if info.Shards != tc.expectedShards {
			t.Fatalf("%s: committed %d shards, want %d", tc.name, info.Shards, tc.expectedShards)
		}
		if len(trace) != len(ref) {
			t.Fatalf("%s: %d residuals vs %d in the reference", tc.name, len(trace), len(ref))
		}
		for i := range ref {
			if trace[i] != ref[i] {
				t.Fatalf("%s: residual %d differs bitwise: %g vs %g", tc.name, i, trace[i], ref[i])
			}
		}
	}
}

// TestManagerRejectsAbsurdSharding: the config path validates through
// to fti.SetSharding.
func TestManagerRejectsAbsurdSharding(t *testing.T) {
	a, b, _ := cgSystem(t)
	s := newCG(t, a, b)
	_, err := NewManager(Config{
		Scheme: Lossy,
		Shards: 1 << 20,
	}, fti.NewMemStorage(), s)
	if err == nil {
		t.Fatal("Manager accepted 2^20 shards")
	}
}
