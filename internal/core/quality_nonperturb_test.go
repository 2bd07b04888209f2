package core

import (
	"math"
	"testing"

	"repro/internal/fti"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/solver"
	"repro/internal/sz"
	"repro/internal/vec"
)

// TestQualityNonPerturbationMatrix is the observer-purity contract in
// executable form: across sync/async × sharded/monolithic ×
// lossy/lossless pipelines, a run with the quality auditor attached
// (every save audited, live registry and tracer, one mid-run recovery)
// must produce a bitwise-identical residual trajectory and final
// solution to the uninstrumented run. CI re-runs this under the race
// detector, covering the async pipeline's background audit goroutine.
func TestQualityNonPerturbationMatrix(t *testing.T) {
	a, b, _ := cgSystem(t)
	bnorm := vec.Norm2(b)
	cases := []struct {
		name   string
		scheme Scheme
		shards int
		async  bool
	}{
		{"sync-monolithic-lossy", Lossy, 0, false},
		{"sync-sharded-lossy", Lossy, 4, false},
		{"async-monolithic-lossy", Lossy, 0, true},
		{"async-sharded-lossy", Lossy, 4, true},
		{"sync-monolithic-lossless", Lossless, 0, false},
		{"async-sharded-lossless", Lossless, 4, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(qa *quality.Auditor) ([]uint64, []uint64) {
				s := newCG(t, a, b)
				m, err := NewManager(Config{
					Scheme:         tc.scheme,
					SZParams:       sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4},
					Shards:         tc.shards,
					StorageWorkers: 2,
					Async:          tc.async,
				}, fti.NewMemStorage(), s)
				if err != nil {
					t.Fatal(err)
				}
				m.InstrumentQuality(qa) // nil detaches; non-nil audits
				var trace []uint64
				failed := false
				_, err = solver.RunToConvergence(s, solver.Options{MaxIter: 500}, func(it int, rnorm float64) error {
					trace = append(trace, math.Float64bits(rnorm))
					if it%10 == 0 {
						if _, err := m.Checkpoint(); err != nil {
							return err
						}
					}
					if it == 35 && !failed {
						failed = true
						recoverCheckpoint(t, m)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := m.WaitCheckpoint(); err != nil {
					t.Fatal(err)
				}
				x := s.X()
				xbits := make([]uint64, len(x))
				for i, v := range x {
					xbits[i] = math.Float64bits(v)
				}
				return trace, xbits
			}

			baseTrace, baseX := run(nil)
			qa := quality.New(quality.Config{SampleEvery: 1, BNorm: bnorm})
			qa.Instrument(obs.New(), obs.NewTracer())
			instTrace, instX := run(qa)

			if len(baseTrace) != len(instTrace) {
				t.Fatalf("trajectory length diverged: %d vs %d iterations", len(baseTrace), len(instTrace))
			}
			for i := range baseTrace {
				if baseTrace[i] != instTrace[i] {
					t.Fatalf("residual trace diverged at iteration %d: %x vs %x",
						i, baseTrace[i], instTrace[i])
				}
			}
			for i := range baseX {
				if baseX[i] != instX[i] {
					t.Fatalf("final solution diverged at element %d", i)
				}
			}
			// The identity must be evidence of instrumentation, not of a
			// silently detached auditor.
			if len(qa.Records()) == 0 {
				t.Fatal("instrumented run audited nothing")
			}
		})
	}
}

// TestResidualAtSaveWithoutDrive: a hand-written loop that saves
// through the Manager, with no Drive and no residual feed of its own,
// still gets every audit record's ResidualAtSave — the residual the
// solver reported at that record's iteration — sync and async.
func TestResidualAtSaveWithoutDrive(t *testing.T) {
	a, b, _ := cgSystem(t)
	for _, async := range []bool{false, true} {
		s := newCG(t, a, b)
		m, err := NewManager(Config{Scheme: Lossless, Async: async}, fti.NewMemStorage(), s)
		if err != nil {
			t.Fatal(err)
		}
		qa := quality.New(quality.Config{SampleEvery: 1})
		m.InstrumentQuality(qa)
		resid := map[int]float64{}
		_, err = solver.RunToConvergence(s, solver.Options{MaxIter: 500}, func(it int, rnorm float64) error {
			resid[it] = rnorm
			if it%5 == 0 {
				_, err := m.Checkpoint()
				return err
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.WaitCheckpoint(); err != nil {
			t.Fatal(err)
		}
		recs := qa.Records()
		if len(recs) == 0 {
			t.Fatalf("async=%v: nothing audited", async)
		}
		for _, rec := range recs {
			if want := resid[rec.Iteration]; rec.ResidualAtSave != want || want == 0 {
				t.Fatalf("async=%v: %s at iteration %d: residual at save %g, want %g",
					async, rec.Vector, rec.Iteration, rec.ResidualAtSave, want)
			}
		}
	}
}
