package solver

import (
	"testing"

	"repro/internal/parallel"
	"repro/internal/sparse"
)

// jacobiTrace runs sweeps Jacobi iterations under the given worker
// count and returns the final iterate and per-sweep residuals.
func jacobiTrace(t *testing.T, a *sparse.CSR, b []float64, workers, sweeps int) ([]float64, []float64) {
	t.Helper()
	prev := parallel.SetWorkers(workers)
	defer parallel.SetWorkers(prev)
	s, err := NewStationary(KindJacobi, a, b, nil, 0, Options{RTol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	res := make([]float64, 0, sweeps)
	for i := 0; i < sweeps; i++ {
		res = append(res, s.Step())
	}
	x := append([]float64(nil), s.X()...)
	return x, res
}

// TestJacobiParallelBitwiseIdentical: a Jacobi step must be bitwise
// identical at any worker count. Its only parallel part is the
// row-partitioned residual kernel (sparse.MulVecSub), where each row's
// dot product accumulates in the same order regardless of which worker
// owns it; the 33³ grid is far above that kernel's serial cutoff, so
// the parallel path actually engages.
func TestJacobiParallelBitwiseIdentical(t *testing.T) {
	a := sparse.Poisson3D(33)
	if a.Rows <= 32768 {
		t.Fatalf("test system too small to engage the parallel sweep: %d rows", a.Rows)
	}
	b := sparse.OnesRHS(a.Rows)
	const sweeps = 25
	xSerial, resSerial := jacobiTrace(t, a, b, 1, sweeps)
	for _, workers := range []int{2, 4, 9} {
		x, res := jacobiTrace(t, a, b, workers, sweeps)
		for i := range resSerial {
			if res[i] != resSerial[i] {
				t.Fatalf("workers=%d: residual %d differs bitwise: %g vs %g", workers, i, res[i], resSerial[i])
			}
		}
		for i := range xSerial {
			if x[i] != xSerial[i] {
				t.Fatalf("workers=%d: x[%d] differs bitwise: %g vs %g", workers, i, x[i], xSerial[i])
			}
		}
	}
}

// TestJacobiSmallSystemStaysCorrect: below the cutoff the residual
// kernel runs inline; the numerics are the same either way.
func TestJacobiSmallSystemStaysCorrect(t *testing.T) {
	a := sparse.Poisson3D(8)
	b := sparse.OnesRHS(a.Rows)
	xSerial, resSerial := jacobiTrace(t, a, b, 1, 50)
	xPar, resPar := jacobiTrace(t, a, b, 8, 50)
	for i := range resSerial {
		if resPar[i] != resSerial[i] {
			t.Fatalf("small-system residual %d differs: %g vs %g", i, resPar[i], resSerial[i])
		}
	}
	for i := range xSerial {
		if xPar[i] != xSerial[i] {
			t.Fatalf("small-system x[%d] differs", i)
		}
	}
}
