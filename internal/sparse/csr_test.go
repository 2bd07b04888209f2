package sparse

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(2, 3)
	b.Add(0, 1, 5)
	b.Add(1, 0, 2)
	b.Add(0, 1, 3) // duplicate entry sums
	b.Add(1, 2, -1)
	m := b.Build()
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
	if got := m.At(0, 1); got != 8 {
		t.Fatalf("At(0,1) = %v, want 8 (duplicates must sum)", got)
	}
	if got := m.At(1, 2); got != -1 {
		t.Fatalf("At(1,2) = %v, want -1", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
}

func TestBuilderDropsZeros(t *testing.T) {
	b := NewBuilder(1, 1)
	b.Add(0, 0, 0)
	if m := b.Build(); m.NNZ() != 0 {
		t.Fatalf("explicit zero stored: NNZ = %d", m.NNZ())
	}
}

func TestBuilderColumnsSorted(t *testing.T) {
	b := NewBuilder(1, 5)
	b.Add(0, 4, 1)
	b.Add(0, 0, 1)
	b.Add(0, 2, 1)
	m := b.Build()
	for k := 1; k < m.NNZ(); k++ {
		if m.ColIdx[k] <= m.ColIdx[k-1] {
			t.Fatalf("columns not strictly increasing: %v", m.ColIdx)
		}
	}
}

func TestMulVec(t *testing.T) {
	// [2 0 1; 0 3 0] * [1 2 3] = [5 6]
	b := NewBuilder(2, 3)
	b.Add(0, 0, 2)
	b.Add(0, 2, 1)
	b.Add(1, 1, 3)
	m := b.Build()
	dst := make([]float64, 2)
	m.MulVec(dst, []float64{1, 2, 3})
	if dst[0] != 5 || dst[1] != 6 {
		t.Fatalf("MulVec = %v, want [5 6]", dst)
	}
}

func TestMulVecSub(t *testing.T) {
	m := Tridiag(3, -1, 2, -1)
	x := []float64{1, 1, 1}
	bvec := []float64{1, 0, 1}
	r := make([]float64, 3)
	m.MulVecSub(r, bvec, x) // b - Ax: Ax = [1,0,1] so r = 0
	for _, v := range r {
		if v != 0 {
			t.Fatalf("residual = %v, want zeros", r)
		}
	}
}

func TestDiag(t *testing.T) {
	m := Tridiag(4, -1, 2, -1)
	d := make([]float64, 4)
	m.Diag(d)
	for _, v := range d {
		if v != 2 {
			t.Fatalf("Diag = %v", d)
		}
	}
}

func TestDiagMissingEntry(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 1, 5) // no diagonal at all
	m := b.Build()
	d := make([]float64, 2)
	m.Diag(d)
	if d[0] != 0 || d[1] != 0 {
		t.Fatalf("Diag with missing entries = %v, want zeros", d)
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := KKT(4, 5, 1)
	tt := m.Transpose().Transpose()
	if tt.NNZ() != m.NNZ() {
		t.Fatalf("double transpose changed nnz: %d vs %d", tt.NNZ(), m.NNZ())
	}
	for k := range m.Val {
		if tt.ColIdx[k] != m.ColIdx[k] || tt.Val[k] != m.Val[k] {
			t.Fatal("double transpose is not identity")
		}
	}
}

func TestIsSymmetric(t *testing.T) {
	if !Poisson2D(4).IsSymmetric(0) {
		t.Error("Poisson2D must be symmetric")
	}
	if !Poisson3D(3).IsSymmetric(0) {
		t.Error("Poisson3D must be symmetric")
	}
	if !KKT(3, 4, 7).IsSymmetric(0) {
		t.Error("KKT must be symmetric")
	}
	b := NewBuilder(2, 2)
	b.Add(0, 1, 1)
	if b.Build().IsSymmetric(0) {
		t.Error("strictly upper triangular matrix reported symmetric")
	}
}

func TestPoisson3DStructure(t *testing.T) {
	n := 3
	m := Poisson3D(n)
	N := n * n * n
	if m.Rows != N || m.Cols != N {
		t.Fatalf("dims %dx%d, want %dx%d", m.Rows, m.Cols, N, N)
	}
	// Interior point (1,1,1) has 7 entries; corner (0,0,0) has 4.
	center := (1*n+1)*n + 1
	if got := m.RowPtr[center+1] - m.RowPtr[center]; got != 7 {
		t.Fatalf("interior row has %d entries, want 7", got)
	}
	if got := m.RowPtr[1] - m.RowPtr[0]; got != 4 {
		t.Fatalf("corner row has %d entries, want 4", got)
	}
	if m.At(center, center) != 6 {
		t.Fatalf("diagonal = %v, want 6", m.At(center, center))
	}
	if m.At(center, center-1) != -1 {
		t.Fatal("x-neighbor missing")
	}
	if m.At(center, center-n) != -1 {
		t.Fatal("y-neighbor missing")
	}
	if m.At(center, center-n*n) != -1 {
		t.Fatal("z-neighbor missing")
	}
}

func TestPoisson3DPositiveDefinite(t *testing.T) {
	// Smallest eigenvalue of the n³ operator is 6 − 6·cos(π/(n+1)) > 0;
	// check positive definiteness via x'Ax > 0 for random x.
	m := Poisson3D(4)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, m.Rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ax := make([]float64, m.Rows)
		m.MulVec(ax, x)
		if q := vec.Dot(x, ax); q <= 0 {
			t.Fatalf("x'Ax = %v, matrix not positive definite", q)
		}
	}
}

func TestKKTIndefinite(t *testing.T) {
	m := KKT(4, 8, 3)
	// The (2,2) block is zero: diagonal entries in the constraint rows
	// must be zero, which makes the matrix indefinite.
	d := make([]float64, m.Rows)
	m.Diag(d)
	for i := 16; i < m.Rows; i++ {
		if d[i] != 0 {
			t.Fatalf("constraint row %d has diagonal %v, want 0", i, d[i])
		}
	}
	// Positive curvature along a primal basis direction.
	e := make([]float64, m.Rows)
	e[0] = 1
	ae := make([]float64, m.Rows)
	m.MulVec(ae, e)
	if vec.Dot(e, ae) <= 0 {
		t.Fatal("primal direction should have positive curvature")
	}
	// Negative curvature: for x = (−ε·Bᵀλ, λ) with the zero (2,2)
	// block, x'Ax = ε²·(Bᵀλ)'H(Bᵀλ) − 2ε·‖Bᵀλ‖², which is negative
	// for small ε. Build Bᵀλ through the assembled operator.
	nPrimal := 16
	lam := make([]float64, m.Rows)
	for i := nPrimal; i < m.Rows; i++ {
		lam[i] = 1
	}
	alam := make([]float64, m.Rows)
	m.MulVec(alam, lam) // = (Bᵀλ, 0)
	const eps = 1e-3
	x := make([]float64, m.Rows)
	for i := 0; i < nPrimal; i++ {
		x[i] = -eps * alam[i]
	}
	for i := nPrimal; i < m.Rows; i++ {
		x[i] = lam[i]
	}
	ax := make([]float64, m.Rows)
	m.MulVec(ax, x)
	if q := vec.Dot(x, ax); q >= 0 {
		t.Fatalf("x'Ax = %v, expected negative curvature (indefinite)", q)
	}
}

func TestRandomSPDIsSPD(t *testing.T) {
	m := RandomSPD(50, 3, 9)
	if !m.IsSymmetric(1e-14) {
		t.Fatal("RandomSPD not symmetric")
	}
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, m.Rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ax := make([]float64, m.Rows)
		m.MulVec(ax, x)
		if q := vec.Dot(x, ax); q <= 0 {
			t.Fatalf("x'Ax = %v ≤ 0", q)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	for _, m := range []*CSR{
		Tridiag(7, -1, 2.5, -1),
		Poisson2D(5),
		KKT(3, 4, 2),
	} {
		buf := m.Serialize()
		got, err := Deserialize(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows != m.Rows || got.Cols != m.Cols || got.NNZ() != m.NNZ() {
			t.Fatal("shape mismatch after round trip")
		}
		for k := range m.Val {
			if got.ColIdx[k] != m.ColIdx[k] || got.Val[k] != m.Val[k] {
				t.Fatal("content mismatch after round trip")
			}
		}
	}
}

func TestDeserializeRejectsGarbage(t *testing.T) {
	if _, err := Deserialize([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected error on truncated input")
	}
	m := Tridiag(3, -1, 2, -1)
	buf := m.Serialize()
	if _, err := Deserialize(buf[:len(buf)-5]); err == nil {
		t.Fatal("expected error on truncated payload")
	}
}

// TestDeserializeRejectsCraftedHeaders feeds the decoder blobs whose
// length fields lie. Deserialize runs on the restart path
// (core.RecoverStatics), so each must come back as an error: not a
// panic in make, and not a matrix whose row pointers index out of
// range later.
func TestDeserializeRejectsCraftedHeaders(t *testing.T) {
	words := func(ws ...uint64) []byte {
		buf := make([]byte, 8*len(ws))
		for i, w := range ws {
			binary.LittleEndian.PutUint64(buf[8*i:], w)
		}
		return buf
	}
	neg := func(v int64) uint64 { return uint64(v) }
	one := math.Float64bits(1)
	for _, c := range []struct {
		name string
		buf  []byte
	}{
		// 16 + 8·(rows+1) wraps negative and used to pass the length check.
		{"rows overflow the size computation", words(1<<60, 1, 0, 0)},
		{"rows exceed the buffer", words(3, 1, 0, 0)},
		// 2×2, RowPtr[rows] = 2, payload sized for 2 entries.
		{"row pointers decrease", words(2, 2, 0, 5, 2, 0, 1, one, one)},
		{"row pointer negative", words(2, 2, 0, neg(-1), 2, 0, 1, one, one)},
		{"row pointers start past zero", words(2, 2, 1, 1, 2, 0, 1, one, one)},
		{"nnz overflows the size computation", words(1, 1, 0, 1<<59)},
	} {
		m, err := Deserialize(c.buf)
		if err == nil {
			t.Errorf("%s: accepted as %dx%d with RowPtr %v", c.name, m.Rows, m.Cols, m.RowPtr)
		}
	}
	// The same 2×2 shape with honest row pointers is a valid matrix.
	if _, err := Deserialize(words(2, 2, 0, 1, 2, 0, 1, one, one)); err != nil {
		t.Fatalf("well-formed blob rejected: %v", err)
	}
}

// TestDeserializeRejectsUnsortedRows: a blob whose sizes are all honest
// but whose columns are not strictly increasing within a row used to
// deserialise into a matrix on which At misses a stored entry.
func TestDeserializeRejectsUnsortedRows(t *testing.T) {
	// 2×3: row 0 stores column 1, row 1 stores columns 0 and 2.
	good := &CSR{Rows: 2, Cols: 3, RowPtr: []int{0, 1, 3}, ColIdx: []int{1, 0, 2}, Val: []float64{5, 6, 7}}
	if _, err := Deserialize(good.Serialize()); err != nil {
		t.Fatalf("well-formed blob rejected: %v", err)
	}
	for _, c := range []struct {
		name string
		cols []int
	}{
		{"swapped pair", []int{1, 2, 0}},
		{"duplicate column", []int{1, 2, 2}},
	} {
		bad := *good
		bad.ColIdx = c.cols
		m, err := Deserialize(bad.Serialize())
		if err == nil {
			t.Errorf("%s: accepted; At(1,%d) = %v", c.name, c.cols[1], m.At(1, c.cols[1]))
		} else if !strings.Contains(err.Error(), "row 1") {
			t.Errorf("%s: error does not name row 1: %v", c.name, err)
		}
	}
}

// FuzzDeserialize: Deserialize is how RecoverStatics reads a
// checkpointed operator back. It never panics, and any bytes it accepts
// are a matrix that serialises back to exactly those bytes and
// multiplies without a fault.
func FuzzDeserialize(f *testing.F) {
	f.Add(Poisson2D(3).Serialize())
	f.Add(Poisson3D(2).Serialize())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Deserialize(data)
		if err != nil {
			return
		}
		if back := m.Serialize(); !bytes.Equal(back, data) {
			t.Fatalf("accepted %d bytes as a %dx%d matrix that serialises to %d other bytes", len(data), m.Rows, m.Cols, len(back))
		}
		m.MulVec(make([]float64, m.Rows), make([]float64, m.Cols))
	})
}

func TestRHSForSolution(t *testing.T) {
	m := Tridiag(3, -1, 2, -1)
	xe := []float64{1, 2, 3}
	b := RHSForSolution(m, xe)
	want := []float64{2*1 - 2, -1 + 4 - 3, -2 + 6}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("RHS = %v, want %v", b, want)
		}
	}
}

func TestSmoothFieldDeterministic(t *testing.T) {
	a := SmoothField(100, 3)
	b := SmoothField(100, 3)
	c := SmoothField(100, 4)
	if vec.MaxAbsDiff(a, b) != 0 {
		t.Fatal("SmoothField must be deterministic per seed")
	}
	if vec.MaxAbsDiff(a, c) == 0 {
		t.Fatal("different seeds should differ")
	}
}

// Property: (A·x)·y == x·(Aᵀ·y) for random sparse matrices.
func TestTransposeAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(20)
		cols := 1 + rng.Intn(20)
		bld := NewBuilder(rows, cols)
		for e := 0; e < rows+cols; e++ {
			bld.Add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
		}
		m := bld.Build()
		mt := m.Transpose()
		x := make([]float64, cols)
		y := make([]float64, rows)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		ax := make([]float64, rows)
		m.MulVec(ax, x)
		aty := make([]float64, cols)
		mt.MulVec(aty, y)
		lhs := vec.Dot(ax, y)
		rhs := vec.Dot(x, aty)
		return math.Abs(lhs-rhs) <= 1e-9*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: serialize/deserialize is the identity on random matrices.
func TestSerializeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(15)
		cols := 1 + rng.Intn(15)
		bld := NewBuilder(rows, cols)
		for e := 0; e < rng.Intn(40); e++ {
			bld.Add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
		}
		m := bld.Build()
		got, err := Deserialize(m.Serialize())
		if err != nil {
			return false
		}
		if got.Rows != m.Rows || got.Cols != m.Cols || got.NNZ() != m.NNZ() {
			return false
		}
		for k := range m.Val {
			if got.ColIdx[k] != m.ColIdx[k] || got.Val[k] != m.Val[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// IsSymmetric reports whether the matrix equals its transpose within
// tolerance tol on every stored entry.
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	t := m.Transpose()
	if t.NNZ() != m.NNZ() {
		return false
	}
	for i := 0; i <= m.Rows; i++ {
		if t.RowPtr[i] != m.RowPtr[i] {
			return false
		}
	}
	for k := range m.Val {
		if t.ColIdx[k] != m.ColIdx[k] || math.Abs(t.Val[k]-m.Val[k]) > tol {
			return false
		}
	}
	return true
}

// RandomSPD returns a random sparse symmetric positive definite matrix
// with about extraPerRow off-diagonal entries per row, made strictly
// diagonally dominant. Used by property tests as an "arbitrary SPD
// system" source.
func RandomSPD(n, extraPerRow int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n, n)
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

// Tridiag returns the n×n tridiagonal matrix with sub-diagonal a,
// diagonal b, and super-diagonal c. The classic 1D Poisson operator is
// Tridiag(n, -1, 2, -1).
func Tridiag(n int, a, b, c float64) *CSR {
	if n <= 0 {
		panic("sparse: Tridiag needs n > 0")
	}
	m := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		if i > 0 && a != 0 {
			m.ColIdx = append(m.ColIdx, i-1)
			m.Val = append(m.Val, a)
		}
		if b != 0 {
			m.ColIdx = append(m.ColIdx, i)
			m.Val = append(m.Val, b)
		}
		if i < n-1 && c != 0 {
			m.ColIdx = append(m.ColIdx, i+1)
			m.Val = append(m.Val, c)
		}
		m.RowPtr[i+1] = len(m.Val)
	}
	return m
}
