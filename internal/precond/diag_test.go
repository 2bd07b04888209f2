package precond

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/sparse"
)

// csrTwin is the same matrix without its stencil summary (Serialize
// does not write one), so NewIC0 of it is the CSR factor: the oracle of
// every test here.
func csrTwin(t testing.TB, a *sparse.CSR) *sparse.CSR {
	t.Helper()
	twin, err := sparse.Deserialize(a.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	return twin
}

// bothIC0 factors a on the path its summary selects and its twin on the
// CSR path.
func bothIC0(t testing.TB, a *sparse.CSR) (p, ref *IC0) {
	t.Helper()
	p, err := NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	if ref, err = NewIC0(csrTwin(t, a)); err != nil {
		t.Fatal(err)
	}
	if ref.Kernel() != "csr" {
		t.Fatalf("a deserialised matrix took the %s path", ref.Kernel())
	}
	return p, ref
}

// needSummary skips where no generator declares a stencil (no AVX2:
// sparse attaches the summary only beside the kernel that reads it).
func needSummary(t testing.TB) {
	if off, _, _ := sparse.Poisson3D(6).Stencil(); off == nil {
		t.Skip("no stencil summary on this machine: the CSR factor is the only path")
	}
}

func grid(nx, ny, nz int) string { return fmt.Sprintf("%dx%dx%d", nx, ny, nz) }

// sweepPaths runs body with the sweep kernel ("kernel", where this
// machine has one) and on diag3's row loops alone ("portable").
func sweepPaths(t *testing.T, body func(t *testing.T)) {
	defer func(k bool) { sweepKernel = k }(sweepKernel)
	for _, on := range []bool{true, false} {
		if on && !sweepKernel {
			continue
		}
		sweepKernel = on
		t.Run(map[bool]string{true: "kernel", false: "portable"}[on], body)
	}
}

// row returns row i of the factor, read from its table.
func (f *diag3) row(i int) coefs {
	return f.line(i/f.nx%f.ny, i/f.s2)[min(i%f.nx, f.k)]
}

func (c coefs) bits() [4]uint64 {
	return [4]uint64{math.Float64bits(c.sub), math.Float64bits(c.near), math.Float64bits(c.far), math.Float64bits(c.dinv)}
}

// csrRow is row i of the CSR factor in diag3's terms: l̃ at (i, i−1),
// (i, i−nx), (i, i−s2) and D⁻¹.
func csrRow(f *factor, i, nx, s2 int) coefs {
	c := coefs{sub: f.lsub[i], dinv: f.dinv[i]}
	for k := f.lptr[i]; k < f.lptr[i+1]; k++ {
		switch i - int(f.lcol[k]) {
		case nx:
			c.near = f.lval[k]
		case s2:
			c.far = f.lval[k]
		}
	}
	return c
}

// diagShapes are the grids the differential tests run: tails of every
// length from none to 36 rows (the clamp depth is 12 in 3-D, 17 on a
// 5-point grid), ny ≡ 0…3 (mod 4), and unit extents.
var diagShapes = []struct {
	name string
	a    func() *sparse.CSR
}{
	{"3x3x3", func() *sparse.CSR { return sparse.Poisson3D(3) }},
	{"6x6x6", func() *sparse.CSR { return sparse.Poisson3D(6) }},
	{"13x13x13", func() *sparse.CSR { return sparse.Poisson3D(13) }},
	{"16x17x19", func() *sparse.CSR { return sparse.Poisson3DAniso(16, 17, 19) }},
	{"17x5x3", func() *sparse.CSR { return sparse.Poisson3DAniso(17, 5, 3) }},
	{"21x6x4", func() *sparse.CSR { return sparse.Poisson3DAniso(21, 6, 4) }},
	{"30x11x5", func() *sparse.CSR { return sparse.Poisson3DAniso(30, 11, 5) }},
	{"32x32x32", func() *sparse.CSR { return sparse.Poisson3D(32) }},
	{"48x48x48", func() *sparse.CSR { return sparse.Poisson3D(48) }},
	{"5x7x4", func() *sparse.CSR { return sparse.Poisson3DAniso(5, 7, 4) }},
	{"7x3x11", func() *sparse.CSR { return sparse.Poisson3DAniso(7, 3, 11) }},
	// A unit extent leaves two lower diagonals.
	{"1x5x9", func() *sparse.CSR { return sparse.Poisson3DAniso(1, 5, 9) }},
	{"7x1x5", func() *sparse.CSR { return sparse.Poisson3DAniso(7, 1, 5) }},
	{"20x1x9", func() *sparse.CSR { return sparse.Poisson3DAniso(20, 1, 9) }},
	// 5-point: s2 = n.
	{"9x9x1", func() *sparse.CSR { return sparse.Poisson3DAniso(9, 9, 1) }},
	{"4x25x1", func() *sparse.CSR { return sparse.Poisson3DAniso(4, 25, 1) }},
	{"Poisson2D(40)", func() *sparse.CSR { return sparse.Poisson2D(40) }},
}

// TestDiag3MatchesCSR: on every grid shape the diagonal path takes,
// every row of the factor its table holds and every Apply are the CSR
// path's, bit for bit.
func TestDiag3MatchesCSR(t *testing.T) {
	needSummary(t)
	for _, g := range diagShapes {
		a := g.a()
		p, ref := bothIC0(t, a)
		if p.Kernel() != "diag3" {
			t.Errorf("%s: took the %s path", g.name, p.Kernel())
			continue
		}
		for i := 0; i < a.Rows; i++ {
			if got, want := p.d.row(i), csrRow(ref.f, i, p.d.nx, p.d.s2); got.bits() != want.bits() {
				t.Fatalf("%s: row %d of the table is %v, the CSR factor's %v", g.name, i, got, want)
			}
		}
		t.Run(g.name, func(t *testing.T) {
			sweepPaths(t, func(t *testing.T) {
				got, want := make([]float64, a.Rows), make([]float64, a.Rows)
				for seed := int64(0); seed < 3; seed++ {
					r := randomVec(a.Rows, seed)
					p.Apply(got, r)
					ref.Apply(want, r)
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("seed %d: row %d is %x, the CSR path gives %x", seed, i, got[i], want[i])
						}
					}
				}
			})
		})
	}
}

// TestDiag3SettleDepth: the clamp depth is 12 for the 7-point operator
// and 17 for the 5-point one, the table holds (k+4)·(k+1)² rows (k+1
// distinct in x), and a cap below the depth leaves a grid larger than
// the box it factors on the CSR path.
func TestDiag3SettleDepth(t *testing.T) {
	needSummary(t)
	for _, c := range []struct {
		a     *sparse.CSR
		k, tz int
	}{{sparse.Poisson3D(48), 12, 13}, {sparse.Poisson3DAniso(30, 20, 16), 12, 13}, {sparse.Poisson2D(60), 17, 1}} {
		off, coef, _ := c.a.Stencil()
		d, err := newDiag3(c.a.Rows, off, coef, settleCap)
		if err != nil || d == nil || d.k != c.k || len(d.tab) != (c.k+4)*(c.k+1)*c.tz {
			t.Fatalf("%d rows: err %v; want depth %d", c.a.Rows, err, c.k)
		}
		if d, err = newDiag3(c.a.Rows, off, coef, c.k-1); d != nil || err != nil {
			t.Errorf("%d rows, cap %d: %v, %v; want the CSR path", c.a.Rows, c.k-1, d, err)
		}
	}
}

// TestDiag3Declines: an offset that is the sum of two others puts terms
// in the factorization's inner sums that the diagonal arithmetic does
// not have, and fewer than two lower diagonals is not its shape; those
// matrices keep the CSR factor whatever they declare.
func TestDiag3Declines(t *testing.T) {
	for _, g := range [][3]int{
		{2, 2, 2},
		{2, 6, 6}, {2, 8, 1}, {1, 2, 9}, // s1 = 2 = 1+1
		{6, 2, 6}, {3, 2, 5}, // s2 = 2·s1
		{20, 1, 1}, // tridiagonal
	} {
		a := sparse.Poisson3DAniso(g[0], g[1], g[2])
		p, _ := bothIC0(t, a)
		if p.Kernel() != "csr" {
			t.Errorf("%s: took the %s path", grid(g[0], g[1], g[2]), p.Kernel())
		}
	}
	for name, a := range map[string]*sparse.CSR{
		"builder": randomSPD(40, 3, 1), "tridiag": tridiag(30, -1, 2, -1),
	} {
		if p, err := NewIC0(a); err != nil || p.Kernel() != "csr" {
			t.Errorf("%s: kernel %v, err %v", name, p.Kernel(), err)
		}
	}
}

// TestDiag3PivotFailure: a non-positive pivot is the same error from
// both paths. No generator builds such a matrix, so the summary is
// handed to newDiag3 with the diagonal lowered to 1, and the twin's
// diagonal entries (its Val is live) with it.
func TestDiag3PivotFailure(t *testing.T) {
	needSummary(t)
	a := sparse.Poisson3D(4)
	off, coef, _ := a.Stencil()
	bad := slices.Clone(coef)
	bad[slices.Index(off, 0)] = 1
	d, errDiag := newDiag3(a.Rows, off, bad, settleCap)
	twin := csrTwin(t, a)
	for i := 0; i < twin.Rows; i++ {
		for k := twin.RowPtr[i]; k < twin.RowPtr[i+1]; k++ {
			if twin.ColIdx[k] == i {
				twin.Val[k] = 1
			}
		}
	}
	_, errCSR := NewIC0(twin)
	if d != nil || errDiag == nil || errCSR == nil || errDiag.Error() != errCSR.Error() {
		t.Errorf("diagonal path: %v\n     CSR path: %v", errDiag, errCSR)
	}
}

// TestDiag3SignedZeroAndNonFinite pins the two limits of the identity
// that diag3.solve's comment states.
func TestDiag3SignedZeroAndNonFinite(t *testing.T) {
	needSummary(t)
	a := sparse.Poisson3D(5)
	p, ref := bothIC0(t, a)
	got, want := make([]float64, a.Rows), make([]float64, a.Rows)
	// Both paths hold the sub- and superdiagonal densely, so their own
	// +0 coefficients at the grid-line ends wash most −0 out of both: it
	// takes underflow to show the difference. r is the smallest
	// subnormal, positive where x = 0 and negative elsewhere; every
	// product underflows, y = r, and the backward sums of the negative
	// rows are all −0 — which the CSR kernel keeps and the +0 coefficient
	// of a row whose y-neighbour is absent turns into +0.
	r := make([]float64, a.Rows)
	for i := range r {
		r[i] = -math.SmallestNonzeroFloat64
		if i%5 == 0 {
			r[i] = math.SmallestNonzeroFloat64
		}
	}
	p.Apply(got, r)
	ref.Apply(want, r)
	flipped := 0
	for i := range got {
		if got[i] != 0 || want[i] != 0 {
			t.Fatalf("row %d: %g and %g, want zeros", i, got[i], want[i])
		}
		if math.Signbit(got[i]) != math.Signbit(want[i]) {
			flipped++
		}
	}
	if flipped == 0 {
		t.Error("no zero changed sign: the ±0 caveat in diag3.solve's comment no longer describes the kernel")
	}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		r = randomVec(a.Rows, 4)
		r[a.Rows/2] = bad
		p.Apply(got, r)
		ref.Apply(want, r)
		if allFinite(got) || allFinite(want) {
			t.Errorf("r holds %g and an output is finite throughout", bad)
		}
	}
}

func allFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// FuzzDiagSolve: three grid extents in 1…40, then raw bit patterns for
// r (repeated to length). Wherever the diagonal path is taken its Apply,
// with the sweep kernel and on the row loops alone, is the CSR path's
// bit for bit once −0 is folded into +0; if a sweep leaves the finite
// range on one path it does on the other. The seeds reach the line
// tails: extents k, k+1 and k+2 (k = 12), ny ≢ 0 (mod 4), and grids
// long enough in x for the kernel.
func FuzzDiagSolve(f *testing.F) {
	for _, dims := range [][3]byte{{4, 4, 4}, {10, 2, 0}, {0, 6, 2}, {8, 8, 0}, {11, 12, 13}, {20, 6, 3}, {39, 17, 5}, {16, 16, 16}} {
		seed := dims[:]
		for _, v := range []float64{-0.75, 3, 1e-3, -2.5e7, 0.1, 7, -1, math.Copysign(0, -1)} {
			seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
		}
		f.Add(seed)
	}
	kernel := sweepKernel
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		a := sparse.Poisson3DAniso(int(data[0])%40+1, int(data[1])%40+1, int(data[2])%40+1)
		p, ref := bothIC0(t, a)
		if p.Kernel() != "diag3" {
			return
		}
		var words []float64
		for data = data[3:]; len(data) >= 8; data = data[8:] {
			words = append(words, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		if len(words) == 0 {
			words = []float64{1}
		}
		r := make([]float64, a.Rows)
		for i := range r {
			r[i] = words[i%len(words)]
		}
		got, want := make([]float64, a.Rows), make([]float64, a.Rows)
		ref.Apply(want, r)
		defer func() { sweepKernel = kernel }()
		for _, on := range []bool{kernel, false} {
			sweepKernel = on
			p.Apply(got, r)
			if !allFinite(got) || !allFinite(want) {
				if allFinite(got) != allFinite(want) {
					t.Fatalf("%d rows, kernel %v: one path stayed finite (diag3 %v, csr %v)", a.Rows, on, allFinite(got), allFinite(want))
				}
				continue
			}
			for i := range got {
				// +0 added to either zero is +0, and changes nothing else.
				if g, w := got[i]+0, want[i]+0; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%d rows, kernel %v: row %d is %x, the CSR path gives %x", a.Rows, on, i, got[i], want[i])
				}
			}
		}
	})
}
