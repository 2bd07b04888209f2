package solver

import (
	"math"
	"testing"

	"repro/internal/sparse"
)

// TestJacobiIterationCount pins the failure-free baseline of the
// benchmark's Jacobi workload (bench/: solver.baseline_iters). The
// residual-form step rounds differently from the textbook sweep it
// replaced and took the same 1970 steps.
func TestJacobiIterationCount(t *testing.T) {
	a := sparse.Poisson3D(32)
	s, err := NewStationary(KindJacobi, a, sparse.OnesRHS(a.Rows), nil, 0, Options{RTol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunToConvergence(s, Options{MaxIter: 3000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations < 1969 || res.Iterations > 1971 {
		t.Fatalf("Jacobi on Poisson3D(32), rtol 1e-4: converged=%v in %d iterations, want 1970±1", res.Converged, res.Iterations)
	}
}

// TestStationaryStepsInPlace: X() is one slice for the solver's
// lifetime (a caller may hold it across steps), and a step allocates
// nothing.
func TestStationaryStepsInPlace(t *testing.T) {
	// The generated operator's stencil kernel runs on the caller's
	// goroutine at any size; a matrix without a summary above the row
	// kernel's parallel threshold would allocate the worker hand-off.
	a := sparse.Poisson3D(16)
	for _, kind := range []StationaryKind{KindJacobi, KindGaussSeidel, KindSSOR} {
		s, err := NewStationary(kind, a, sparse.OnesRHS(a.Rows), nil, 1.2, Options{RTol: 1e-300})
		if err != nil {
			t.Fatal(err)
		}
		before := &s.X()[0]
		s.Step()
		s.Restart(make([]float64, a.Rows))
		s.Step()
		if &s.X()[0] != before {
			t.Errorf("%v: X() moved to another backing array", kind)
		}
		if n := testing.AllocsPerRun(10, func() { s.Step() }); n != 0 {
			t.Errorf("%v: Step allocates %v times per call", kind, n)
		}
	}
}

// TestSORSweepsMatchRecordedHistories: the in-place sweeps were
// restructured (hoisted arrays, per-row sub-slices) without touching
// their arithmetic. The residual histories below were recorded from
// the sweeps as they stood before, on a nonsymmetric tridiagonal
// system, and must be reproduced to the bit.
func TestSORSweepsMatchRecordedHistories(t *testing.T) {
	a := tridiag(64, -1, 2.5, -0.75)
	b := sparse.SmoothField(a.Rows, 3)
	for _, c := range []struct {
		kind  StationaryKind
		omega float64
		want  [8]uint64
	}{
		{KindGaussSeidel, 0, [8]uint64{0x4014456fe1267ee5, 0x4003bd97e2eb3801, 0x3ff35cf27a2c2a43, 0x3fe30f650c4a29b0, 0x3fd2ccdcb3203778, 0x3fc29229de1df252, 0x3fb25d87df56faa1, 0x3fa22da442e71708}},
		{KindSOR, 1.5, [8]uint64{0x4008a9b1a562f2e3, 0x3ffc3219866d00b5, 0x3ff084f2c22e9ce0, 0x3fe3246fec941e63, 0x3fd65af35e4e2b64, 0x3fca333d151a6b3f, 0x3fbec4f9275ef582, 0x3fb2148bc218c262}},
		{KindSSOR, 1.2, [8]uint64{0x3ff73955a91b1167, 0x3fca282f2890ebe3, 0x3f9de00433aef333, 0x3f71678cd59cf330, 0x3f44d41bc9c7372c, 0x3f19c175e8387b0d, 0x3ef080baba240159, 0x3ec5e2a042059c58}},
	} {
		s, err := NewStationary(c.kind, a, b, nil, c.omega, Options{RTol: 1e-300})
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range c.want {
			if got := s.Step(); math.Float64bits(got) != want {
				t.Fatalf("%v step %d: residual %v (%#x), recorded %v (%#x)",
					c.kind, i+1, got, math.Float64bits(got), math.Float64frombits(want), want)
			}
		}
	}
}
