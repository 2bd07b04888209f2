package sparse

import (
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// mulVecReference is the plain serial CSR multiply, kept in the tests
// as the oracle the parallel kernel must match bitwise.
func mulVecReference(m *CSR, dst, x []float64) {
	for i := 0; i < m.Rows; i++ {
		var s float64
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		dst[i] = s
	}
}

// withoutSummary is a copy of a's arrays with no stencil summary: every
// row goes through the row kernel, in parallel above its cutoff.
func withoutSummary(a *CSR) *CSR {
	return &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: a.Val}
}

func randomVector(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// TestMulVecParallelBitwiseIdentical: row-partitioned parallel SpMV
// must produce exactly the serial bytes — each row's sum has the same
// association order regardless of the worker count. The generated
// matrix would take the serial stencil kernel, so this is its arrays
// without the summary.
func TestMulVecParallelBitwiseIdentical(t *testing.T) {
	a := withoutSummary(Poisson3D(32)) // 32,768 rows, ~223k nnz: well above the parallel threshold
	if a.NNZ() < parallelMinNNZ {
		t.Fatalf("test matrix too small (%d nnz) to exercise the parallel path", a.NNZ())
	}
	x := randomVector(a.Cols, 41)
	want := make([]float64, a.Rows)
	mulVecReference(a, want, x)

	got := make([]float64, a.Rows)
	for _, workers := range []int{1, 2, 8, 16} {
		prev := parallel.SetWorkers(workers)
		a.MulVec(got, x)
		parallel.SetWorkers(prev)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d row %d: parallel %v != serial %v (must be bitwise identical)",
					workers, i, got[i], want[i])
			}
		}
	}
}

// TestMulVecSubParallelBitwiseIdentical: the fused residual kernel
// matches b − A·x computed with the reference multiply, bitwise, on the
// parallel row kernel (the arrays without their summary).
func TestMulVecSubParallelBitwiseIdentical(t *testing.T) {
	a := withoutSummary(Poisson3D(32))
	x := randomVector(a.Cols, 43)
	b := randomVector(a.Rows, 47)
	ax := make([]float64, a.Rows)
	mulVecReference(a, ax, x)
	want := make([]float64, a.Rows)
	for i := range want {
		want[i] = b[i] - ax[i]
	}

	got := make([]float64, a.Rows)
	for _, workers := range []int{1, 8} {
		prev := parallel.SetWorkers(workers)
		a.MulVecSub(got, b, x)
		parallel.SetWorkers(prev)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d row %d: %v != %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestMulVecSmallStaysCorrect: matrices below the parallel threshold
// run the serial path and still match the oracle.
func TestMulVecSmallStaysCorrect(t *testing.T) {
	a := Poisson2D(20) // 400 rows: far below the threshold
	if a.NNZ() >= parallelMinNNZ {
		t.Fatalf("expected a sub-threshold matrix, got %d nnz", a.NNZ())
	}
	x := randomVector(a.Cols, 53)
	want := make([]float64, a.Rows)
	mulVecReference(a, want, x)
	got := make([]float64, a.Rows)
	a.MulVec(got, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: %v != %v", i, got[i], want[i])
		}
	}
}
