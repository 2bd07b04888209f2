package precond

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sparse"
	"repro/internal/vec"
)

func TestIdentity(t *testing.T) {
	r := []float64{1, 2, 3}
	dst := make([]float64, 3)
	Identity{}.Apply(dst, r)
	if vec.MaxAbsDiff(dst, r) != 0 {
		t.Fatalf("Identity.Apply = %v", dst)
	}
}

func TestJacobi(t *testing.T) {
	j := NewJacobi([]float64{2, 4, 8})
	dst := make([]float64, 3)
	j.Apply(dst, []float64{2, 4, 8})
	for _, v := range dst {
		if v != 1 {
			t.Fatalf("Jacobi.Apply = %v, want ones", dst)
		}
	}
}

func TestJacobiZeroDiagonalGuard(t *testing.T) {
	j := NewJacobi([]float64{0, 5})
	dst := make([]float64, 2)
	j.Apply(dst, []float64{3, 10})
	if dst[0] != 3 { // zero diagonal treated as 1
		t.Fatalf("zero-diagonal guard failed: %v", dst)
	}
	if dst[1] != 2 {
		t.Fatalf("Apply = %v", dst)
	}
}

func TestJacobiFromMatrix(t *testing.T) {
	a := tridiag(4, -1, 2, -1)
	j := NewJacobiFromMatrix(a)
	dst := make([]float64, 4)
	j.Apply(dst, []float64{2, 2, 2, 2})
	for _, v := range dst {
		if v != 1 {
			t.Fatalf("Apply = %v", dst)
		}
	}
}

// applyAsMatrix multiplies out M⁻¹ acting on basis vectors so we can
// verify factorization quality as ‖A·M⁻¹·e − e‖.
func preconditionQuality(t *testing.T, a *sparse.CSR, p Interface) float64 {
	t.Helper()
	n := a.Rows
	e := make([]float64, n)
	minv := make([]float64, n)
	am := make([]float64, n)
	worst := 0.0
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		for i := range e {
			e[i] = rng.NormFloat64()
		}
		p.Apply(minv, e)
		a.MulVec(am, minv)
		num := 0.0
		for i := range am {
			d := am[i] - e[i]
			num += d * d
		}
		den := vec.Dot(e, e)
		if q := math.Sqrt(num / den); q > worst {
			worst = q
		}
	}
	return worst
}

func TestILU0ExactForTridiagonal(t *testing.T) {
	// A tridiagonal matrix has no fill-in, so ILU(0) = exact LU and
	// the preconditioner must invert A to machine precision.
	a := tridiag(50, -1, 2, -1)
	p, err := NewBlockILU0(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q := preconditionQuality(t, a, p); q > 1e-10 {
		t.Fatalf("single-block ILU(0) on tridiagonal should be exact, got residual %g", q)
	}
}

func TestILU0ApproximatesPoisson(t *testing.T) {
	a := sparse.Poisson2D(8)
	p, err := NewBlockILU0(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	q := preconditionQuality(t, a, p)
	if q > 0.8 {
		t.Fatalf("ILU(0) quality too poor: %g", q)
	}
	if q == 0 {
		t.Fatal("ILU(0) on 2D Poisson cannot be exact (fill-in dropped)")
	}
}

func TestBlockILU0MultipleBlocks(t *testing.T) {
	a := sparse.Poisson2D(8)
	p4, err := NewBlockILU0(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := NewBlockILU0(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	q4 := preconditionQuality(t, a, p4)
	q1 := preconditionQuality(t, a, p1)
	if q4 <= q1 {
		t.Fatalf("more blocks should be a weaker preconditioner: q1=%g q4=%g", q1, q4)
	}
	if q4 > 1.5 {
		t.Fatalf("4-block ILU(0) unreasonably poor: %g", q4)
	}
}

func TestBlockILU0MoreBlocksThanRows(t *testing.T) {
	a := tridiag(3, -1, 2, -1)
	p, err := NewBlockILU0(a, 10)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 3)
	p.Apply(dst, []float64{2, 2, 2})
	// With one row per block this is exact Jacobi: dst = r / diag.
	for _, v := range dst {
		if v != 1 {
			t.Fatalf("Apply = %v", dst)
		}
	}
}

func TestBlockILU0HandlesZeroDiagonal(t *testing.T) {
	// KKT systems have an all-zero (2,2) block; the factorization must
	// complete via pivot shifting rather than dividing by zero.
	a := sparse.KKT(4, 8, 1)
	p, err := NewBlockILU0(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := a.Rows
	dst := make([]float64, n)
	r := make([]float64, n)
	for i := range r {
		r[i] = 1
	}
	p.Apply(dst, r)
	for _, v := range dst {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("Apply produced NaN/Inf on zero-diagonal block")
		}
	}
}

func TestNewBlockILU0Validation(t *testing.T) {
	a := tridiag(3, -1, 2, -1)
	if _, err := NewBlockILU0(a, 0); err == nil {
		t.Fatal("expected error for zero blocks")
	}
	rect := sparse.NewBuilder(2, 3)
	rect.Add(0, 0, 1)
	if _, err := NewBlockILU0(rect.Build(), 1); err == nil {
		t.Fatal("expected error for rectangular matrix")
	}
}

func TestIC0ExactForTridiagonal(t *testing.T) {
	a := tridiag(40, -1, 2, -1)
	f, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	if q := preconditionQuality(t, a, f); q > 1e-10 {
		t.Fatalf("IC(0) on tridiagonal should be exact, got %g", q)
	}
}

func TestIC0ApproximatesPoisson3D(t *testing.T) {
	a := sparse.Poisson3D(4)
	f, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	if q := preconditionQuality(t, a, f); q > 0.8 {
		t.Fatalf("IC(0) quality too poor: %g", q)
	}
}

func TestIC0RejectsIndefinite(t *testing.T) {
	// Symmetric indefinite with stored diagonal: IC(0) must fail with
	// an error rather than produce NaNs.
	b := sparse.NewBuilder(2, 2)
	b.Add(0, 0, 1)
	b.Add(0, 1, 3)
	b.Add(1, 0, 3)
	b.Add(1, 1, 1) // eigenvalues 4, −2
	if _, err := NewIC0(b.Build()); err == nil {
		t.Fatal("expected IC(0) failure on indefinite matrix")
	}
}

func TestIC0MatchesILU0OnSPD(t *testing.T) {
	// For SPD systems both incomplete factorizations should give
	// comparable quality (same sparsity pattern).
	a := randomSPD(60, 2, 4)
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	ilu, err := NewBlockILU0(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	qic := preconditionQuality(t, a, ic)
	qilu := preconditionQuality(t, a, ilu)
	if qic > 10*qilu+1e-9 || qilu > 10*qic+1e-9 {
		t.Fatalf("IC0 (%g) and ILU0 (%g) should be comparable on SPD", qic, qilu)
	}
}

// ---- Differential oracle for the compact factor and its kernel ----
//
// The reference is the textbook incomplete factorization in dense
// storage (pattern of A, IKJ for ILU(0), row Cholesky for IC(0), the
// same zero-pivot shift), applied by textbook substitution: forward
// with L, backward with division by the diagonal. It shares no code
// and no layout with the package.

// denseBlock returns A[lo:hi, lo:hi] and its pattern. The diagonal is
// always in the pattern, stored or not.
func denseBlock(a *sparse.CSR, lo, hi int) (v [][]float64, in [][]bool) {
	n := hi - lo
	v, in = make([][]float64, n), make([][]bool, n)
	for i := range v {
		v[i], in[i] = make([]float64, n), make([]bool, n)
		in[i][i] = true
		for k := a.RowPtr[lo+i]; k < a.RowPtr[lo+i+1]; k++ {
			if j := a.ColIdx[k] - lo; j >= 0 && j < n {
				v[i][j], in[i][j] = a.Val[k], true
			}
		}
	}
	return v, in
}

// denseILU0 factors in place: strict lower part L (unit diagonal
// implied), diagonal and upper part U.
func denseILU0(v [][]float64, in [][]bool) {
	for i := range v {
		for k := 0; k < i; k++ {
			if !in[i][k] {
				continue
			}
			v[i][k] /= v[k][k]
			for j := k + 1; j < len(v); j++ {
				if in[i][j] {
					v[i][j] -= v[i][k] * v[k][j]
				}
			}
		}
		if v[i][i] == 0 {
			m := 0.0
			for _, x := range v[i] {
				m = math.Max(m, math.Abs(x))
			}
			if v[i][i] = 1e-8 * m; m == 0 {
				v[i][i] = 1
			}
		}
	}
}

// denseIC0 factors the lower triangle in place into L (A ≈ L·Lᵀ).
func denseIC0(v [][]float64, in [][]bool) {
	for i := range v {
		for k := 0; k <= i; k++ {
			if !in[i][k] {
				continue
			}
			s := v[i][k]
			for j := 0; j < k; j++ {
				if in[i][j] && in[k][j] {
					s -= v[i][j] * v[k][j]
				}
			}
			if k < i {
				v[i][k] = s / v[k][k]
			} else {
				v[i][i] = math.Sqrt(s)
			}
		}
	}
}

// denseLUSolve returns U⁻¹·L⁻¹·r for the factors denseILU0 leaves.
func denseLUSolve(v [][]float64, r []float64) []float64 {
	x := append([]float64(nil), r...)
	for i := range x {
		for j := 0; j < i; j++ {
			x[i] -= v[i][j] * x[j]
		}
	}
	for i := len(x) - 1; i >= 0; i-- {
		for j := i + 1; j < len(x); j++ {
			x[i] -= v[i][j] * x[j]
		}
		x[i] /= v[i][i]
	}
	return x
}

// denseLLtSolve returns L⁻ᵀ·L⁻¹·r for the factor denseIC0 leaves.
func denseLLtSolve(v [][]float64, r []float64) []float64 {
	x := append([]float64(nil), r...)
	for i := range x {
		for j := 0; j < i; j++ {
			x[i] -= v[i][j] * x[j]
		}
		x[i] /= v[i][i]
	}
	for i := len(x) - 1; i >= 0; i-- {
		for j := i + 1; j < len(x); j++ {
			x[i] -= v[j][i] * x[j]
		}
		x[i] /= v[i][i]
	}
	return x
}

func randomVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func relDiff(got, want []float64) float64 {
	return vec.MaxAbsDiff(got, want) / vec.NormInf(want)
}

func oracleMatrices() map[string]*sparse.CSR {
	return map[string]*sparse.CSR{
		"tridiag":   tridiag(50, -1, 2, -1),
		"poisson3d": sparse.Poisson3D(6),
		"randomspd": randomSPD(80, 3, 5),
	}
}

func TestIC0MatchesDenseReference(t *testing.T) {
	for name, a := range oracleMatrices() {
		p, err := NewIC0(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if off, _, _ := a.Stencil(); off != nil && p.Kernel() != "diag3" {
			t.Errorf("%s declares a stencil and took the %s path", name, p.Kernel())
		}
		v, in := denseBlock(a, 0, a.Rows)
		denseIC0(v, in)
		for seed := int64(0); seed < 3; seed++ {
			r := randomVec(a.Rows, seed)
			got := make([]float64, a.Rows)
			p.Apply(got, r)
			if d := relDiff(got, denseLLtSolve(v, r)); d > 1e-13 {
				t.Errorf("%s: IC0.Apply differs from the dense reference by %g", name, d)
			}
		}
	}
}

func TestBlockILU0MatchesDenseReference(t *testing.T) {
	ms := oracleMatrices()
	// Split into blocks, the saddle-point system leaves constraint
	// rows whose couplings all fall outside their block: no diagonal,
	// nothing to eliminate with, a pivot only the shift can supply.
	ms["kkt"] = sparse.KKT(4, 8, 1)
	for name, a := range ms {
		for _, nb := range []int{1, 2, 3} {
			p, err := NewBlockILU0(a, nb)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, nb, err)
			}
			r := randomVec(a.Rows, int64(nb))
			got := make([]float64, a.Rows)
			p.Apply(got, r)
			want := make([]float64, 0, a.Rows)
			for bk := 0; bk < nb; bk++ {
				lo, hi := p.starts[bk], p.starts[bk+1]
				v, in := denseBlock(a, lo, hi)
				denseILU0(v, in)
				want = append(want, denseLUSolve(v, r[lo:hi])...)
			}
			if d := relDiff(got, want); d > 1e-13 {
				t.Errorf("%s/%d blocks: BlockILU0.Apply differs from the dense reference by %g", name, nb, d)
			}
		}
	}
}

// TestILU0ShiftsZeroPivot pins both outcomes of the shift on matrices
// small enough to read: a zero pivot in a row with entries becomes
// 1e-8 of the largest, in an empty row 1.
func TestILU0ShiftsZeroPivot(t *testing.T) {
	b := sparse.NewBuilder(3, 3)
	b.Add(0, 1, 4) // row 0: no diagonal, pivot 4e-8
	b.Add(1, 0, 2)
	b.Add(1, 1, 3)
	b.Add(2, 2, 0) // row 2: empty, pivot 1
	a := b.Build()
	f, err := ilu0(a, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := 1/f.dinv[0], 4e-8; math.Abs(got-want) > 1e-20 {
		t.Errorf("shifted pivot of row 0 = %g, want %g", got, want)
	}
	if f.dinv[2] != 1 {
		t.Errorf("pivot of the empty row = %g, want 1", 1/f.dinv[2])
	}
	v, in := denseBlock(a, 0, 3)
	denseILU0(v, in)
	// r_0 = 0 leaves the back-substitution through the 4e-8 pivot with
	// nothing to cancel; where it cancels, any two roundings of this
	// solve agree only to cond(U)·ε ≈ 1e-9.
	r := []float64{0, 2, 3}
	got := make([]float64, 3)
	f.solve(got, r)
	if d := relDiff(got, denseLUSolve(v, r)); d > 1e-13 {
		t.Errorf("solve differs from the dense reference by %g", d)
	}
}

// TestIC0ApplyIsSymmetric: CG needs M⁻¹ symmetric, ⟨M⁻¹u,v⟩ = ⟨u,M⁻¹v⟩.
// The layout stores L̃ and its transpose separately, so this checks
// that they are transposes of each other.
func TestIC0ApplyIsSymmetric(t *testing.T) {
	for name, a := range oracleMatrices() {
		p, err := NewIC0(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n := a.Rows
		u, v := randomVec(n, 11), randomVec(n, 12)
		mu, mv := make([]float64, n), make([]float64, n)
		p.Apply(mu, u)
		p.Apply(mv, v)
		l, r := vec.Dot(mu, v), vec.Dot(u, mv)
		if math.Abs(l-r) > 1e-13*vec.Norm2(mu)*vec.Norm2(v) {
			t.Errorf("%s: ⟨M⁻¹u,v⟩ = %.17g, ⟨u,M⁻¹v⟩ = %.17g", name, l, r)
		}
	}
}

// TestFactorInt32Guard: the layout indexes with int32, so a matrix it
// cannot index must be refused before anything is allocated or read.
// The oversized CSR headers carry no arrays; a constructor that got
// past the guard would panic on them.
func TestFactorInt32Guard(t *testing.T) {
	huge := &sparse.CSR{Rows: math.MaxInt32 + 1, Cols: math.MaxInt32 + 1}
	if _, err := NewIC0(huge); err == nil {
		t.Error("NewIC0 accepted 2³¹ rows")
	}
	if _, err := NewBlockILU0(huge, 1); err == nil {
		t.Error("NewBlockILU0 accepted a block of 2³¹ rows")
	}
	f, err := newFactor(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.alloc(math.MaxInt32+1, 0); err == nil {
		t.Error("alloc accepted 2³¹ lower entries")
	}
	if err := f.alloc(0, math.MaxInt32+1); err == nil {
		t.Error("alloc accepted 2³¹ upper entries")
	}
}

func TestApplyDoesNotAllocate(t *testing.T) {
	a := sparse.Poisson3D(8)
	ic, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	ilu, err := NewBlockILU0(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	_, icCSR := bothIC0(t, a)
	r := randomVec(a.Rows, 1)
	dst := make([]float64, a.Rows)
	for name, p := range map[string]Interface{"IC0": ic, "IC0/csr": icCSR, "BlockILU0": ilu} {
		if n := testing.AllocsPerRun(10, func() { p.Apply(dst, r) }); n != 0 {
			t.Errorf("%s.Apply allocates %v times per call", name, n)
		}
	}
}

func TestPartitionStarts(t *testing.T) {
	if got, want := partitionStarts(10, 3), []int{0, 3, 6, 10}; !slices.Equal(got, want) {
		t.Fatalf("starts = %v, want %v", got, want)
	}
}

// randomSPD is sparse's test generator RandomSPD, the same matrix for
// the same arguments: a random sparse symmetric positive definite
// matrix with about extraPerRow off-diagonal entries per row, made
// strictly diagonally dominant.
func randomSPD(n, extraPerRow int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	b := sparse.NewBuilder(n, n)
	rowAbs := make([]float64, n)
	for i := 0; i < n; i++ {
		for e := 0; e < extraPerRow; e++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := rng.NormFloat64()
			b.Add(i, j, v)
			b.Add(j, i, v)
			rowAbs[i] += math.Abs(v)
			rowAbs[j] += math.Abs(v)
		}
	}
	for i := 0; i < n; i++ {
		b.Add(i, i, rowAbs[i]+1+rng.Float64())
	}
	return b.Build()
}

// tridiag is sparse's test generator Tridiag, the same matrix for the
// same arguments: sub-diagonal a, diagonal b and super-diagonal c, a
// zero not stored.
func tridiag(n int, a, b, c float64) *sparse.CSR {
	bld := sparse.NewBuilder(n, n)
	for i := range n {
		if i > 0 {
			bld.Add(i, i-1, a)
		}
		bld.Add(i, i, b)
		if i < n-1 {
			bld.Add(i, i+1, c)
		}
	}
	return bld.Build()
}
