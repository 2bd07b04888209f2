package sparse

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"testing"
	_ "unsafe" // go:linkname

	"repro/internal/vec"
)

// vecUseAVX2 is internal/vec's dispatch flag, bound by name (vec
// exports no switch): the differential suite below runs the assembly
// and vec's Go stencil loop on one machine, and generates matrices with
// and without a summary.
//
//go:linkname vecUseAVX2 repro/internal/vec.useAVX2
var vecUseAVX2 bool

func needAVX2(t testing.TB) {
	if !vec.Accelerated() {
		t.Skip("no AVX2 on this machine: no generator attaches a summary, the row kernel is the only path")
	}
}

// referenceGrid3D and referenceGrid2D are the generators as they were
// before poissonGrid folded them into one: the triple loop growing
// ColIdx and Val by append.
func referenceGrid3D(nx, ny, nz int) *CSR {
	N := nx * ny * nz
	m := &CSR{Rows: N, Cols: N, RowPtr: make([]int, N+1)}
	idx := func(ix, iy, iz int) int { return (iz*ny+iy)*nx + ix }
	row := 0
	for iz := 0; iz < nz; iz++ {
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				if iz > 0 {
					m.ColIdx = append(m.ColIdx, idx(ix, iy, iz-1))
					m.Val = append(m.Val, -1)
				}
				if iy > 0 {
					m.ColIdx = append(m.ColIdx, idx(ix, iy-1, iz))
					m.Val = append(m.Val, -1)
				}
				if ix > 0 {
					m.ColIdx = append(m.ColIdx, idx(ix-1, iy, iz))
					m.Val = append(m.Val, -1)
				}
				m.ColIdx = append(m.ColIdx, row)
				m.Val = append(m.Val, 6)
				if ix < nx-1 {
					m.ColIdx = append(m.ColIdx, idx(ix+1, iy, iz))
					m.Val = append(m.Val, -1)
				}
				if iy < ny-1 {
					m.ColIdx = append(m.ColIdx, idx(ix, iy+1, iz))
					m.Val = append(m.Val, -1)
				}
				if iz < nz-1 {
					m.ColIdx = append(m.ColIdx, idx(ix, iy, iz+1))
					m.Val = append(m.Val, -1)
				}
				row++
				m.RowPtr[row] = len(m.Val)
			}
		}
	}
	return m
}

func referenceGrid2D(n int) *CSR {
	N := n * n
	m := &CSR{Rows: N, Cols: N, RowPtr: make([]int, N+1)}
	idx := func(ix, iy int) int { return iy*n + ix }
	row := 0
	for iy := 0; iy < n; iy++ {
		for ix := 0; ix < n; ix++ {
			if iy > 0 {
				m.ColIdx = append(m.ColIdx, idx(ix, iy-1))
				m.Val = append(m.Val, -1)
			}
			if ix > 0 {
				m.ColIdx = append(m.ColIdx, idx(ix-1, iy))
				m.Val = append(m.Val, -1)
			}
			m.ColIdx = append(m.ColIdx, row)
			m.Val = append(m.Val, 4)
			if ix < n-1 {
				m.ColIdx = append(m.ColIdx, idx(ix+1, iy))
				m.Val = append(m.Val, -1)
			}
			if iy < n-1 {
				m.ColIdx = append(m.ColIdx, idx(ix, iy+1))
				m.Val = append(m.Val, -1)
			}
			row++
			m.RowPtr[row] = len(m.Val)
		}
	}
	return m
}

// gridShape is one generator call and its pre-refactor reference.
type gridShape struct {
	name     string
	gen, ref func() *CSR
}

// gridShapes are the shapes every test below walks: cubes through the
// sizes where no row, fewer than four rows and then most rows qualify
// for the stencil kernel, squares (five diagonals), and grids with one
// or two extents of 1 (three diagonals), a long x extent, and three
// different extents.
func gridShapes() []gridShape {
	var shapes []gridShape
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 20} {
		shapes = append(shapes, gridShape{fmt.Sprintf("Poisson3D(%d)", n),
			func() *CSR { return Poisson3D(n) }, func() *CSR { return referenceGrid3D(n, n, n) }})
	}
	for n := 1; n <= 9; n++ {
		shapes = append(shapes, gridShape{fmt.Sprintf("Poisson2D(%d)", n),
			func() *CSR { return Poisson2D(n) }, func() *CSR { return referenceGrid2D(n) }})
	}
	for _, d := range [][3]int{{1, 1, 5}, {5, 1, 1}, {1, 7, 3}, {64, 8, 8}, {3, 4, 5}} {
		shapes = append(shapes, gridShape{fmt.Sprintf("Poisson3DAniso(%d,%d,%d)", d[0], d[1], d[2]),
			func() *CSR { return Poisson3DAniso(d[0], d[1], d[2]) }, func() *CSR { return referenceGrid3D(d[0], d[1], d[2]) }})
	}
	return shapes
}

// TestGridGeneratorMatchesReference: poissonGrid's exact allocation and
// indexed writes produce the arrays the append loops produced, and so
// the same serialised bytes — the summary is derived state.
func TestGridGeneratorMatchesReference(t *testing.T) {
	for _, s := range gridShapes() {
		got, want := s.gen(), s.ref()
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("%s: %dx%d, reference %dx%d", s.name, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		if len(got.RowPtr) != len(want.RowPtr) || len(got.ColIdx) != len(want.ColIdx) || len(got.Val) != len(want.Val) {
			t.Fatalf("%s: array lengths %d/%d/%d, reference %d/%d/%d", s.name,
				len(got.RowPtr), len(got.ColIdx), len(got.Val), len(want.RowPtr), len(want.ColIdx), len(want.Val))
		}
		for i := range want.RowPtr {
			if got.RowPtr[i] != want.RowPtr[i] {
				t.Fatalf("%s: RowPtr[%d] = %d, reference %d", s.name, i, got.RowPtr[i], want.RowPtr[i])
			}
		}
		for k := range want.Val {
			if got.ColIdx[k] != want.ColIdx[k] || math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
				t.Fatalf("%s: entry %d is (%d, %v), reference (%d, %v)", s.name, k, got.ColIdx[k], got.Val[k], want.ColIdx[k], want.Val[k])
			}
		}
		if !bytes.Equal(got.Serialize(), want.Serialize()) {
			t.Errorf("%s: Serialize differs from the reference's", s.name)
		}
	}
}

// TestStencilSummaryAgreesWithArrays: walking a row's set bits in
// ascending order walks its stored entries — each on the listed
// diagonal, with that diagonal's exact bits — so every entry has its bit
// and every bit its entry; the kernel's range keeps every diagonal
// inside x; and the summary is 2 B per row plus a few words, with no
// per-entry array.
func TestStencilSummaryAgreesWithArrays(t *testing.T) {
	needAVX2(t)
	for _, s := range gridShapes() {
		a := s.gen()
		// Diagonals of extent > 1 only, so the widest one decides
		// whether four rows keep every load inside x.
		var minOff, maxOff int
		for i := 0; i < a.Rows; i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				minOff, maxOff = min(minOff, a.ColIdx[k]-i), max(maxOff, a.ColIdx[k]-i)
			}
		}
		qualifying := a.Rows - maxOff + minOff
		st := a.st
		if (st != nil) != (qualifying >= 4) {
			t.Fatalf("%s: %d qualifying rows, summary attached: %v", s.name, qualifying, st != nil)
		}
		if st == nil {
			if a.Kernel() != "csr" {
				t.Errorf("%s: Kernel() = %q without a summary", s.name, a.Kernel())
			}
			continue
		}
		if want := fmt.Sprintf("stencil%d/avx2", len(st.off)); a.Kernel() != want {
			t.Errorf("%s: Kernel() = %q, want %q", s.name, a.Kernel(), want)
		}
		if len(st.off) != len(st.coef) || len(st.off) > 7 || len(st.mask) != a.Rows {
			t.Fatalf("%s: %d offsets, %d coefficients, %d masks for %d rows", s.name, len(st.off), len(st.coef), len(st.mask), a.Rows)
		}
		// Every slice the struct holds, whatever fields it grows.
		size := 0
		for v, f := reflect.ValueOf(*st), 0; f < v.NumField(); f++ {
			if fv := v.Field(f); fv.Kind() == reflect.Slice {
				size += fv.Len() * int(fv.Type().Elem().Size())
			}
		}
		if size > 2*a.Rows+7*16 {
			t.Errorf("%s: summary holds %d bytes for %d rows, over 2 B/row + 7 diagonals", s.name, size, a.Rows)
		}
		if st.off[0] != minOff || st.off[len(st.off)-1] != maxOff {
			t.Errorf("%s: offsets %v, entries span [%d, %d]", s.name, st.off, minOff, maxOff)
		}
		if st.lo != -minOff || st.hi > a.Rows-maxOff || st.hi+4 <= a.Rows-maxOff || (st.hi-st.lo)%4 != 0 {
			t.Errorf("%s: kernel rows [%d,%d) of %d with offsets %v", s.name, st.lo, st.hi, a.Rows, st.off)
		}
		for i := 0; i < a.Rows; i++ {
			k := a.RowPtr[i]
			for d := range st.off {
				if st.mask[i]>>d&1 == 0 {
					continue
				}
				if k == a.RowPtr[i+1] || a.ColIdx[k] != i+st.off[d] ||
					math.Float64bits(a.Val[k]) != math.Float64bits(st.coef[d]) {
					t.Fatalf("%s: row %d, bit %d (offset %d, value %v) does not match entry %d of the row", s.name, i, d, st.off[d], st.coef[d], k-a.RowPtr[i])
				}
				k++
			}
			if k != a.RowPtr[i+1] || bits.OnesCount16(st.mask[i]) != a.RowPtr[i+1]-a.RowPtr[i] {
				t.Fatalf("%s: row %d stores %d entries, mask %#b", s.name, i, a.RowPtr[i+1]-a.RowPtr[i], st.mask[i])
			}
		}
	}
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

const guardWords = 4

var guard = math.Float64frombits(0xDEADBEEFCAFEF00D)

// stencilPaths runs dst ← A·x (or b − A·x) four ways — the assembly,
// vec's Go stencil loop (the flag flipped under the same summary), the
// row kernel over all rows, and the triple-indexed reference — each into
// a dst filled with the guard value and fenced by guard words, and
// reports the first row where they differ or a write outside dst. The
// one latitude is which NaN a NaN is, as in vec's suite.
func stencilPaths(t testing.TB, name string, a *CSR, b, x []float64) {
	t.Helper()
	want := make([]float64, a.Rows)
	mulVecReference(a, want, x)
	if b != nil {
		for i := range want {
			want[i] = b[i] - want[i]
		}
	}
	run := func(path string, mul func(dst []float64)) {
		backing := make([]float64, guardWords+a.Rows+guardWords)
		for i := range backing {
			backing[i] = guard
		}
		dst := backing[guardWords : guardWords+a.Rows : guardWords+a.Rows]
		mul(dst)
		for i := range want {
			if !sameBits(dst[i], want[i]) {
				t.Fatalf("%s, %s: row %d = %v (%#x), reference %v (%#x)", name, path, i,
					dst[i], math.Float64bits(dst[i]), want[i], math.Float64bits(want[i]))
			}
		}
		for _, g := range append(backing[:guardWords:guardWords], backing[guardWords+a.Rows:]...) {
			if math.Float64bits(g) != math.Float64bits(guard) {
				t.Fatalf("%s, %s: wrote outside dst", name, path)
			}
		}
	}
	entry := func(dst []float64) {
		if b != nil {
			a.MulVecSub(dst, b, x)
		} else {
			a.MulVec(dst, x)
		}
	}
	have := vecUseAVX2
	defer func() { vecUseAVX2 = have }()
	run("avx2", entry) // the row kernel where the matrix has no summary
	vecUseAVX2 = false
	run("go stencil loop", entry)
	vecUseAVX2 = have
	run("row kernel", func(dst []float64) { a.mulRows(dst, b, x, 0, a.Rows) })
}

var specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -2.2250738585072009e-308, 1e300, -1e300, 1e-300,
}

// TestStencilKernelMatchesRowKernel: on every shape, those with no
// qualifying row included, MulVec and MulVecSub give the bits of the row
// kernel and of the reference loop on mixed-magnitude x, and with each
// special value at every ninth position of x from each of the nine
// starts: every position holds the value in exactly one pass, so every
// diagonal of every row, in whichever lane of its block, meets it.
func TestStencilKernelMatchesRowKernel(t *testing.T) {
	needAVX2(t)
	for _, s := range gridShapes() {
		a := s.gen()
		x := randomVector(a.Cols, 51)
		for i := range x {
			x[i] *= math.Pow(10, float64(i%7-3))
		}
		b := randomVector(a.Rows, 52)
		stencilPaths(t, s.name, a, nil, x)
		stencilPaths(t, s.name+" sub", a, b, x)
		xs := make([]float64, len(x))
		for _, sp := range specials {
			for start := 0; start < 9; start++ {
				copy(xs, x)
				for p := start; p < len(xs); p += 9 {
					xs[p] = sp
				}
				name := fmt.Sprintf("%s, %v at %d mod 9", s.name, sp, start)
				stencilPaths(t, name, a, nil, xs)
				stencilPaths(t, name+" sub", a, b, xs)
			}
		}
		// b itself non-finite: the subtraction is lane-wise too.
		bs := append([]float64(nil), b...)
		for i := range bs {
			bs[i] = specials[i%len(specials)]
		}
		stencilPaths(t, s.name+" special b", a, bs, x)
	}
}

// TestStencilMatchesWithoutSummary: a matrix generated with the flag
// off carries no summary and multiplies, on the row kernel, to the bits
// of the one generated with it on; so does a Deserialize'd copy.
func TestStencilMatchesWithoutSummary(t *testing.T) {
	needAVX2(t)
	with := Poisson3D(9)
	vecUseAVX2 = false
	without := Poisson3D(9)
	vecUseAVX2 = true // needAVX2: it was
	restored, err := Deserialize(with.Serialize())
	if err != nil {
		t.Fatal(err)
	}
	if with.Kernel() != "stencil7/avx2" || without.Kernel() != "csr" || restored.Kernel() != "csr" {
		t.Fatalf("kernels: generated %q, generated without AVX2 %q, deserialised %q", with.Kernel(), without.Kernel(), restored.Kernel())
	}
	x := randomVector(with.Cols, 53)
	want := make([]float64, with.Rows)
	got := make([]float64, with.Rows)
	with.MulVec(want, x)
	for name, m := range map[string]*CSR{"generated without AVX2": without, "deserialised": restored} {
		m.MulVec(got, x)
		if i := bitsDiffer(got, want); i >= 0 {
			t.Errorf("%s: row %d = %v, stencil kernel %v", name, i, got[i], want[i])
		}
	}
}

// fuzzStencilInput decodes bytes into one case: three grid extents in
// 1…12, whether b is present, then eight bytes per element of x (and of
// b after it) for as long as they last — raw bit patterns, so the fuzzer
// reaches every NaN, subnormal and infinity; the rest repeats.
func fuzzStencilInput(data []byte) (a *CSR, b, x []float64) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		v := data[0]
		data = data[1:]
		return v
	}
	a = Poisson3DAniso(int(next())%12+1, int(next())%12+1, int(next())%12+1)
	sub := next()&1 != 0
	var words []float64
	for len(data) >= 8 {
		words = append(words, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	if len(words) == 0 {
		words = []float64{1}
	}
	x = make([]float64, a.Cols)
	for i := range x {
		x[i] = words[i%len(words)]
	}
	if sub {
		b = make([]float64, a.Rows)
		for i := range b {
			b[i] = words[(len(x)+i)%len(words)]
		}
	}
	return a, b, x
}

// FuzzStencil: assembly ≡ Go stencil loop ≡ row kernel ≡ reference on
// arbitrary grid extents and arbitrary bit patterns in x and b, and no
// write outside dst.
func FuzzStencil(f *testing.F) {
	for _, dims := range [][4]byte{{5, 5, 5, 0}, {11, 2, 0, 1}, {0, 6, 2, 1}, {3, 0, 0, 0}} {
		seed := dims[:]
		for _, v := range append([]float64{-0.75, 3, 1e-3, -2.5e7, 0.1, 7, -1}, specials...) {
			seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		needAVX2(t)
		a, b, x := fuzzStencilInput(data)
		stencilPaths(t, fmt.Sprintf("%d rows, %s", a.Rows, a.Kernel()), a, b, x)
	})
}
