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
// row-partitioned residual kernel, where each row's dot product
// accumulates in the same order regardless of which worker owns it.
// Poisson3D(33) as generated carries a stencil summary, which the
// serial stencil kernel takes, so the system is a summary-free copy of
// its arrays: far above the row kernel's serial cutoff, so the parallel
// path, and the sweep's update over dinv, actually engage.
func TestJacobiParallelBitwiseIdentical(t *testing.T) {
	gen := sparse.Poisson3D(33)
	a := &sparse.CSR{Rows: gen.Rows, Cols: gen.Cols, RowPtr: gen.RowPtr, ColIdx: gen.ColIdx, Val: gen.Val}
	if a.Kernel() != "csr" || a.NNZ() < 1<<15 {
		t.Fatalf("test system would not engage the parallel row kernel: %s, %d entries", a.Kernel(), a.NNZ())
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
	// And the generated matrix's one-worker sweep is the same iteration.
	xGen, resGen := jacobiTrace(t, gen, b, 1, sweeps)
	requireSameBits(t, sweeps, "generated matrix: residual history", resGen, resSerial)
	requireSameBits(t, sweeps, "generated matrix: x", xGen, xSerial)
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
