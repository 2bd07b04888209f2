package sparse

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// jacobiOracle is a Jacobi step as three plain passes: x_i +=
// dinv_i·r_i over every row, then r ← b − A·x by the reference loop.
func jacobiOracle(a *CSR, x, r, b, dinv []float64) {
	for i := range x {
		x[i] += float64(dinv[i] * r[i])
	}
	mulVecReference(a, r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
}

func reciprocalDiag(a *CSR) []float64 {
	dinv := make([]float64, a.Rows)
	a.Diag(dinv)
	for i, d := range dinv {
		dinv[i] = 1 / d
	}
	return dinv
}

// jacobiPaths runs JacobiSweep from (x, r) on every path it has — the
// summary with vec's assembly, the summary with vec's Go loops, and a
// summary-free copy of the arrays (the update over dinv, the row
// kernel) — each on fresh copies, and holds x and r to the oracle's
// bits. The one latitude is which NaN a NaN is.
func jacobiPaths(t testing.TB, name string, a *CSR, x, r, b []float64) {
	t.Helper()
	dinv := reciprocalDiag(a)
	wantX, wantR := slices.Clone(x), slices.Clone(r)
	jacobiOracle(a, wantX, wantR, b, dinv)
	have := vecUseAVX2
	defer func() { vecUseAVX2 = have }()
	for _, p := range []struct {
		name string
		m    *CSR
		asm  bool
	}{{"avx2", a, have}, {"go loops", a, false}, {"no summary", withoutSummary(a), have}} {
		vecUseAVX2 = p.asm
		gotX, gotR := slices.Clone(x), slices.Clone(r)
		p.m.JacobiSweep(gotX, gotR, b, dinv)
		for i := range wantX {
			if !sameBits(gotX[i], wantX[i]) || !sameBits(gotR[i], wantR[i]) {
				t.Fatalf("%s, %s: row %d: x %v, r %v; oracle %v, %v", name, p.name, i, gotX[i], gotR[i], wantX[i], wantR[i])
			}
		}
	}
}

// jacobiShapes are gridShapes and the shapes a Jacobi step adds: the
// benchmark's 32³ and 33³ (Rows mod 4 = 0 and 1), and 1-D lines of
// every Rows mod 4, from one shorter than a four-row block up.
func jacobiShapes() []gridShape {
	shapes := gridShapes()
	for _, n := range []int{32, 33} {
		shapes = append(shapes, gridShape{fmt.Sprintf("Poisson3D(%d)", n), func() *CSR { return Poisson3D(n) }, nil})
	}
	for _, n := range []int{3, 6, 7, 8, 30, 31} {
		shapes = append(shapes, gridShape{fmt.Sprintf("Poisson3DAniso(%d,1,1)", n), func() *CSR { return Poisson3DAniso(n, 1, 1) }, nil})
	}
	return shapes
}

// TestJacobiSweepScalarIsEveryDinv: on every generated grid with a
// summary, every row stores the offset-0 diagonal, and 1/coef of it —
// the scalar the summarised update multiplies by — is 1/A[i,i] bit for
// bit on every row.
func TestJacobiSweepScalarIsEveryDinv(t *testing.T) {
	needAVX2(t)
	for _, s := range jacobiShapes() {
		a := s.gen()
		if a.st == nil {
			continue
		}
		d := slices.Index(a.st.off, 0)
		if d < 0 {
			t.Fatalf("%s: no offset-0 diagonal among %v", s.name, a.st.off)
		}
		inv := 1 / a.st.coef[d]
		for i, v := range reciprocalDiag(a) {
			if a.st.mask[i]>>d&1 == 0 || math.Float64bits(v) != math.Float64bits(inv) {
				t.Fatalf("%s: row %d: 1/A[i,i] = %v, 1/coef = %v, mask %#b", s.name, i, v, inv, a.st.mask[i])
			}
		}
	}
}

// TestJacobiSweepMatchesThreePasses: on every shape, two consecutive
// sweeps from mixed-magnitude x and r agree with the oracle on every
// path, and so do zero and subnormal residuals; then, on every shape up
// to 20³, each special value at every ninth position of x, and then of
// r, from each of the nine starts.
func TestJacobiSweepMatchesThreePasses(t *testing.T) {
	for _, s := range jacobiShapes() {
		a := s.gen()
		x, r, b := randomVector(a.Cols, 71), randomVector(a.Rows, 72), randomVector(a.Rows, 73)
		for i := range x {
			x[i] *= math.Pow(10, float64(i%7-3))
		}
		jacobiPaths(t, s.name, a, x, r, b)
		dinv := reciprocalDiag(a)
		x2, r2 := slices.Clone(x), slices.Clone(r)
		jacobiOracle(a, x2, r2, b, dinv)
		jacobiPaths(t, s.name+", second sweep", a, x2, r2, b)
		zero := make([]float64, a.Rows)
		jacobiPaths(t, s.name+", zero residual", a, zero, zero, zero)
		tiny := slices.Clone(b)
		for i := range tiny {
			tiny[i] *= 5e-324
		}
		jacobiPaths(t, s.name+", subnormal residual", a, zero, zero, tiny)
		if a.Rows > 8000 {
			continue // the 32³ and 33³ grids take the random and the zero cases
		}
		every9th := func(v []float64, sp float64, start int) []float64 {
			v = slices.Clone(v)
			for p := start; p < len(v); p += 9 {
				v[p] = sp
			}
			return v
		}
		for _, sp := range specials {
			for start := 0; start < 9; start++ {
				name := fmt.Sprintf("%s, %v at %d mod 9", s.name, sp, start)
				jacobiPaths(t, name+" of x", a, every9th(x, sp, start), r, b)
				jacobiPaths(t, name+" of r", a, x, every9th(r, sp, start), b)
			}
		}
	}
}
