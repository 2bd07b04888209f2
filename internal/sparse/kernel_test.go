package sparse

import (
	"math"
	"testing"

	"repro/internal/parallel"
)

// raggedMatrix is built by hand, not by Builder, to hold the row
// shapes the generators never produce: an empty first row, empty rows
// between full ones, single-entry rows and an empty trailing row.
func raggedMatrix() *CSR {
	return &CSR{
		Rows:   8,
		Cols:   5,
		RowPtr: []int{0, 0, 1, 4, 4, 4, 5, 9, 9},
		ColIdx: []int{3, 0, 2, 4, 1, 0, 1, 3, 4},
		Val:    []float64{2.5, -1, 0.125, 3, -7, 1e-3, 1e3, -0.5, 4},
	}
}

func bitsDiffer(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestRowKernelMatchesReference holds MulVec and MulVecSub to the bits
// of the triple-indexed reference loop on every generator and on the
// ragged matrix, at 1, 2 and 7 workers, and drives the kernel directly
// over uneven row ranges, empty ones included.
func TestRowKernelMatchesReference(t *testing.T) {
	big := withoutSummary(Poisson3D(20)) // the summary would take it off the row kernel
	if big.NNZ() < parallelMinNNZ {
		t.Fatalf("Poisson3D(20) has %d entries, below the parallel threshold", big.NNZ())
	}
	for name, a := range map[string]*CSR{
		"poisson-serial":   Poisson3D(6),
		"poisson-parallel": big,
		"random-spd":       RandomSPD(6000, 5, 7),
		"kkt":              KKT(12, 40, 3),
		"ragged":           raggedMatrix(),
	} {
		x := randomVector(a.Cols, 43)
		b := randomVector(a.Rows, 44)
		want := make([]float64, a.Rows)
		mulVecReference(a, want, x)
		wantSub := make([]float64, a.Rows)
		for i := range wantSub {
			wantSub[i] = b[i] - want[i]
		}

		got := make([]float64, a.Rows)
		for _, workers := range []int{1, 2, 7} {
			prev := parallel.SetWorkers(workers)
			a.MulVec(got, x)
			if i := bitsDiffer(got, want); i >= 0 {
				t.Errorf("%s, %d workers: MulVec row %d = %v, reference %v", name, workers, i, got[i], want[i])
			}
			a.MulVecSub(got, b, x)
			if i := bitsDiffer(got, wantSub); i >= 0 {
				t.Errorf("%s, %d workers: MulVecSub row %d = %v, reference %v", name, workers, i, got[i], wantSub[i])
			}
			parallel.SetWorkers(prev)
		}

		// Uneven ranges, each followed by an empty one; rows outside a
		// range must be left alone.
		const untouched = -12345.5
		for i := range got {
			got[i] = untouched
		}
		for lo, step := 0, 1; lo < a.Rows; step++ {
			hi := min(lo+step, a.Rows)
			a.mulRows(got, b, x, lo, hi)
			a.mulRows(got, b, x, hi, hi)
			for i := hi; i < a.Rows; i++ {
				if got[i] != untouched {
					t.Fatalf("%s: range [%d,%d) wrote row %d", name, lo, hi, i)
				}
			}
			lo = hi
		}
		if i := bitsDiffer(got, wantSub); i >= 0 {
			t.Errorf("%s: ranged MulVecSub row %d = %v, reference %v", name, i, got[i], wantSub[i])
		}
	}
}

// TestRowKernelPropagatesNonFinite: an Inf or NaN in the matrix or the
// vector reaches exactly the rows that touch it, and an empty row
// still yields 0 (or b_i).
func TestRowKernelPropagatesNonFinite(t *testing.T) {
	a := raggedMatrix()
	x := []float64{1, 2, 3, 4, 5}
	b := randomVector(a.Rows, 45)
	dst := make([]float64, a.Rows)

	x[2] = math.NaN() // column 2 appears in row 2 only
	a.MulVec(dst, x)
	for i, v := range dst {
		if math.IsNaN(v) != (i == 2) {
			t.Errorf("NaN in x[2]: row %d = %v", i, v)
		}
	}
	x[2] = 3

	a.Val[4] = math.Inf(1) // row 5's single entry
	a.MulVecSub(dst, b, x)
	for i, v := range dst {
		switch {
		case i == 5 && !math.IsInf(v, -1):
			t.Errorf("Inf entry in row 5: b − A·x = %v, want -Inf", v)
		case i != 5 && (math.IsInf(v, 0) || math.IsNaN(v)):
			t.Errorf("Inf entry in row 5 reached row %d: %v", i, v)
		}
	}
	for _, i := range []int{0, 3, 4, 7} {
		if dst[i] != b[i] {
			t.Errorf("empty row %d: b − A·x = %v, want b = %v", i, dst[i], b[i])
		}
	}

	// A generated matrix, on the stencil kernel where there is one: the
	// kernel loads x[i+off] for diagonals a boundary row does not store,
	// and a NaN there must still reach exactly the rows that store
	// column j — head, tail, full and masked blocks alike.
	g := Poisson3D(5)
	gx := randomVector(g.Cols, 46)
	gdst := make([]float64, g.Rows)
	for j := 0; j < g.Cols; j++ {
		saved := gx[j]
		gx[j] = math.NaN()
		g.MulVec(gdst, gx)
		for i, v := range gdst {
			if math.IsNaN(v) != (g.At(i, j) != 0) {
				t.Fatalf("%s: NaN in x[%d]: row %d = %v, A[%d,%d] = %v", g.Kernel(), j, i, v, i, j, g.At(i, j))
			}
		}
		gx[j] = saved
	}
}
