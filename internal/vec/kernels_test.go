package vec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The differential suite: every streaming kernel, with the assembly on
// and off, must leave the same bits in every vector and return the same
// bits. The only latitude is which NaN a NaN is — the payload and sign
// x86 propagates depend on operand order, which the Go compiler does
// not promise either, and nothing reads them.

// kernel is one streaming kernel in a uniform shape: a scalar, nvec
// equal-length vectors (updated in place where the kernel updates
// them) and up to two scalar results.
type kernel struct {
	name string
	nvec int
	run  func(a float64, v [][]float64) [2]float64
}

var kernels = []kernel{
	{"Dot", 2, func(_ float64, v [][]float64) [2]float64 { return [2]float64{Dot(v[0], v[1])} }},
	{"Norm2", 1, func(_ float64, v [][]float64) [2]float64 { return [2]float64{Norm2(v[0])} }},
	{"NormInf", 1, func(_ float64, v [][]float64) [2]float64 { return [2]float64{NormInf(v[0])} }},
	{"DotNorm2", 2, func(_ float64, v [][]float64) [2]float64 {
		d, n := DotNorm2(v[0], v[1], NormInf(v[0]))
		return [2]float64{d, n}
	}},
	{"Axpy", 2, func(a float64, v [][]float64) [2]float64 { Axpy(a, v[0], v[1]); return [2]float64{} }},
	{"AxpyDot", 3, func(a float64, v [][]float64) [2]float64 { return [2]float64{AxpyDot(a, v[0], v[1], v[2])} }},
	{"AxpyPairNormInf", 4, func(a float64, v [][]float64) [2]float64 {
		return [2]float64{AxpyPairNormInf(a, v[0], v[1], v[2], v[3])}
	}},
	{"Aypx", 2, func(a float64, v [][]float64) [2]float64 { Aypx(a, v[0], v[1]); return [2]float64{} }},
	{"Sub", 3, func(_ float64, v [][]float64) [2]float64 { Sub(v[0], v[1], v[2]); return [2]float64{} }},
	{"ScaleTo", 2, func(a float64, v [][]float64) [2]float64 { ScaleTo(v[0], a, v[1]); return [2]float64{} }},
	// The in-place forms the solvers use: r ← b − r, and x ← a·x.
	{"Sub dst=x", 2, func(_ float64, v [][]float64) [2]float64 { Sub(v[0], v[0], v[1]); return [2]float64{} }},
	{"Sub dst=y", 2, func(_ float64, v [][]float64) [2]float64 { Sub(v[1], v[0], v[1]); return [2]float64{} }},
	{"Scale", 1, func(a float64, v [][]float64) [2]float64 { Scale(a, v[0]); return [2]float64{} }},
}

// setAVX2 switches the dispatch for the rest of the test.
func setAVX2(t testing.TB, on bool) {
	prev := useAVX2
	useAVX2 = on
	t.Cleanup(func() { useAVX2 = prev })
}

// needAVX2 skips a test whose assembly half cannot run here.
func needAVX2(t testing.TB) {
	if !useAVX2 {
		t.Skip("no AVX2 on this machine: the Go loops are the only path")
	}
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

const guardWords = 4

var guard = math.Float64frombits(0xDEADBEEFCAFEF00D)

// guarded returns a copy of vals placed off elements into a fresh
// backing array with guardWords sentinel words on both sides, and that
// array. The slice's capacity is its length, so a Go loop that strays
// panics and an assembly loop that strays hits a sentinel.
func guarded(vals []float64, off int) (v, backing []float64) {
	backing = make([]float64, off+guardWords+len(vals)+guardWords)
	for i := range backing {
		backing[i] = guard
	}
	lo := off + guardWords
	v = backing[lo : lo+len(vals) : lo+len(vals)]
	copy(v, vals)
	return v, backing
}

func guardsIntact(v, backing []float64, off int) bool {
	for i, g := range backing {
		if i >= off+guardWords && i < off+guardWords+len(v) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(guard) {
			return false
		}
	}
	return true
}

// differ runs k on the same inputs with the assembly off and on, each
// vector starting offs[i] elements into its backing array, and reports
// the first disagreement or stray write.
func differ(t testing.TB, k kernel, a float64, in [][]float64, offs []int) {
	t.Helper()
	pass := func(on bool) (res [2]float64, vs, backings [][]float64) {
		prev := useAVX2
		useAVX2 = on
		defer func() { useAVX2 = prev }()
		for i := 0; i < k.nvec; i++ {
			v, b := guarded(in[i], offs[i])
			vs, backings = append(vs, v), append(backings, b)
		}
		return k.run(a, vs), vs, backings
	}
	want, wantV, _ := pass(false)
	got, gotV, backings := pass(true)
	n := len(in[0])
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s n=%d offs=%v a=%v: result %d is %v (%#x), Go loop %v (%#x)", k.name, n, offs, a,
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	for i := range gotV {
		for j := range gotV[i] {
			if !sameBits(gotV[i][j], wantV[i][j]) {
				t.Fatalf("%s n=%d offs=%v a=%v: vector %d differs at %d: %v, Go loop %v", k.name, n, offs, a,
					i, j, gotV[i][j], wantV[i][j])
			}
		}
		if !guardsIntact(gotV[i], backings[i], offs[i]) {
			t.Fatalf("%s n=%d offs=%v: wrote outside vector %d", k.name, n, offs, i)
		}
	}
}

func randomVecs(rng *rand.Rand, nvec, n int) [][]float64 {
	vs := make([][]float64, nvec)
	for i := range vs {
		vs[i] = make([]float64, n)
		for j := range vs[i] {
			// Mixed magnitudes, so sums round at every step.
			vs[i][j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		}
	}
	return vs
}

// TestKernelsMatchGoLoops: every length around the unroll boundary
// (the tail at every residue mod 4), every vector at every offset 0–3
// of its backing array (unaligned loads and stores), and the two
// harness sizes.
func TestKernelsMatchGoLoops(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(71))
	for _, k := range kernels {
		for n := 0; n <= 67; n++ {
			in := randomVecs(rng, k.nvec, n)
			for off := 0; off < 4; off++ {
				// Same offset everywhere, then each vector on its own.
				differ(t, k, -0.37, in, []int{off, off, off, off})
				differ(t, k, 1.25, in, []int{off, (off + 1) % 4, (off + 2) % 4, (off + 3) % 4})
			}
		}
		for _, n := range []int{36 * 36 * 36, 48 * 48 * 48} {
			differ(t, k, 0.61, randomVecs(rng, k.nvec, n), []int{0, 1, 2, 3})
		}
	}
}

var specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -2.2250738585072009e-308, 1e300, -1e300, 1e-300,
}

// TestKernelsSpecialValues: each special value in each position of
// each operand — positions 0–7 are every lane of the vector body twice,
// 8–10 the tail — and as the scalar, and whole vectors of one special
// (Norm2's zero, infinite and subnormal scales; the all-NaN residual).
func TestKernelsSpecialValues(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(72))
	const n = 11
	offs := []int{1, 0, 3, 2}
	for _, k := range kernels {
		for _, sp := range specials {
			base := randomVecs(rng, k.nvec, n)
			for vi := 0; vi < k.nvec; vi++ {
				for pos := 0; pos < n; pos++ {
					in := make([][]float64, k.nvec)
					for i := range in {
						in[i] = Clone(base[i])
					}
					in[vi][pos] = sp
					differ(t, k, 0.5, in, offs)
				}
				in := make([][]float64, k.nvec)
				for i := range in {
					in[i] = Clone(base[i])
				}
				Fill(in[vi], sp)
				differ(t, k, 0.5, in, offs)
			}
			differ(t, k, sp, base, offs)
		}
	}
}

// TestKernelsDoNotAllocate: the wrappers hand slices to the assembly
// without boxing anything, on either path.
func TestKernelsDoNotAllocate(t *testing.T) {
	vs := randomVecs(rand.New(rand.NewSource(73)), 4, 1023)
	for _, on := range []bool{false, true} {
		if on && !useAVX2 {
			continue
		}
		setAVX2(t, on)
		for _, k := range kernels {
			if avg := testing.AllocsPerRun(20, func() { k.run(1e-3, vs[:k.nvec]) }); avg != 0 {
				t.Errorf("%s (asm=%v): %v allocs/op", k.name, on, avg)
			}
		}
	}
}

// fuzzInput decodes bytes into one differential case: kernel, length,
// per-vector offsets, the scalar, then eight bytes per element for as
// long as they last (raw bit patterns, so the fuzzer reaches every NaN,
// subnormal and infinity); the rest repeats what was read.
func fuzzInput(data []byte) (k kernel, a float64, in [][]float64, offs []int) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	k = kernels[int(next())%len(kernels)]
	n := int(next()) % 68
	ob := next()
	offs = []int{int(ob) & 3, int(ob>>2) & 3, int(ob>>4) & 3, int(ob>>6) & 3}
	var words []float64
	for len(data) >= 8 {
		words = append(words, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	if len(words) == 0 {
		words = []float64{1}
	}
	a = words[0]
	in = make([][]float64, k.nvec)
	w := 1
	for i := range in {
		in[i] = make([]float64, n)
		for j := range in[i] {
			in[i][j] = words[w%len(words)]
			w++
		}
	}
	return k, a, in, offs
}

// FuzzKernels: assembly ≡ Go loop on arbitrary bit patterns, lengths
// and offsets, and no write outside [0, n) of any vector.
func FuzzKernels(f *testing.F) {
	for ki := range kernels {
		seed := []byte{byte(ki), 13, 0x1b}
		for _, v := range append([]float64{-0.75, 3, 1e-3, -2.5e7}, specials...) {
			seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		needAVX2(t)
		k, a, in, offs := fuzzInput(data)
		differ(t, k, a, in, offs)
	})
}

// TestGuardCatchesStrayWrite: the harness itself — a write one element
// past either end must be seen.
func TestGuardCatchesStrayWrite(t *testing.T) {
	for _, stray := range []int{-1, 5} {
		v, backing := guarded(make([]float64, 5), 2)
		backing[2+guardWords+stray] = 0
		if guardsIntact(v, backing, 2) {
			t.Errorf("a write at index %d went unnoticed", stray)
		}
	}
	v, backing := guarded(make([]float64, 5), 2)
	v[0], v[4] = 1, 1
	if !guardsIntact(v, backing, 2) {
		t.Error("a write inside the vector was reported as stray")
	}
}

// TestStencilMatchesGoLoop: the stencil kernel on shapes no grid
// generator produces — 1 to 16 diagonals at random offsets, random
// masks (empty and full rows included), a zero coefficient, every
// special value in x both under a set bit and under a clear one — with
// and without b, at every offset of dst in its backing array.
func TestStencilMatchesGoLoop(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(74))
	for nd := 1; nd <= 16; nd++ {
		for trial := 0; trial < 8; trial++ {
			const n = 64
			off := make([]int, nd)
			coef := make([]float64, nd)
			for d, o := range rng.Perm(25)[:nd] {
				off[d] = o - 12
				coef[d] = float64(rng.Intn(9) - 4) // zero among them
			}
			sort.Ints(off)
			lo := -min(off[0], 0)
			hi := lo + (n-max(off[nd-1], 0)-lo)&^3
			mask := make([]uint16, n)
			for i := range mask {
				switch rng.Intn(4) {
				case 0:
					mask[i] = 1<<nd - 1
				case 1:
					mask[i] = 0
				default:
					mask[i] = uint16(rng.Intn(1 << nd))
				}
			}
			in := randomVecs(rng, 2, n)
			x, b := in[0], in[1]
			for i := range x {
				if rng.Intn(3) == 0 {
					x[i] = specials[rng.Intn(len(specials))]
				}
			}
			for _, withB := range []bool{false, true} {
				var bb []float64
				if withB {
					bb = b
				}
				for o := 0; o < 4; o++ {
					pass := func(on bool) (dst, backing []float64) {
						useAVX2 = on
						defer func() { useAVX2 = true }() // needAVX2: it was
						dst, backing = guarded(make([]float64, n), o)
						Fill(dst, guard)
						StencilMulVec(dst, bb, x, off, coef, mask, lo, hi)
						return dst, backing
					}
					want, _ := pass(false)
					got, backing := pass(true)
					for i := range want {
						if !sameBits(got[i], want[i]) {
							t.Fatalf("off %v mask[%d]=%#b b=%v: row %d is %v, Go loop %v", off, i, mask[i], withB, i, got[i], want[i])
						}
					}
					if !guardsIntact(got, backing, o) {
						t.Fatalf("off %v rows [%d,%d): wrote outside dst", off, lo, hi)
					}
				}
			}
		}
	}
}

// TestStencilChecksItsArguments: the wrapper, not the assembly, refuses
// a range the loads would leave.
func TestStencilChecksItsArguments(t *testing.T) {
	x, dst := make([]float64, 16), make([]float64, 16)
	mask := make([]uint16, 16)
	off, coef := []int{-2, 0, 3}, []float64{1, 2, 3}
	StencilMulVec(dst, nil, x, off, coef, mask, 2, 10) // the widest legal range
	for name, call := range map[string]func(){
		"first row reaches before x":   func() { StencilMulVec(dst, nil, x, off, coef, mask, 1, 9) },
		"last row reaches past x":      func() { StencilMulVec(dst, nil, x, off, coef, mask, 6, 14) },
		"range not a multiple of 4":    func() { StencilMulVec(dst, nil, x, off, coef, mask, 2, 9) },
		"dst short":                    func() { StencilMulVec(dst[:9], nil, x, off, coef, mask, 2, 10) },
		"b short":                      func() { StencilMulVec(dst, x[:9], x, off, coef, mask, 2, 10) },
		"mask short":                   func() { StencilMulVec(dst, nil, x, off, coef, mask[:9], 2, 10) },
		"coefficients short":           func() { StencilMulVec(dst, nil, x, off, coef[:2], mask, 2, 10) },
		"no diagonals":                 func() { StencilMulVec(dst, nil, x, nil, nil, mask, 2, 10) },
		"more diagonals than a mask":   func() { StencilMulVec(dst, nil, x, make([]int, 17), make([]float64, 17), mask, 2, 10) },
		"unsorted offsets, one leaves": func() { StencilMulVec(dst, nil, x, []int{0, -3, 1}, coef, mask, 2, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}
