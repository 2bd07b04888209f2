package vec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
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
	{"ScaleTo dst=x", 1, func(a float64, v [][]float64) [2]float64 { ScaleTo(v[0], a, v[0]); return [2]float64{} }},
	{"Exp", 2, func(_ float64, v [][]float64) [2]float64 { Exp(v[0], v[1]); return [2]float64{} }},
	{"Exp dst=x", 1, func(_ float64, v [][]float64) [2]float64 { Exp(v[0], v[0]); return [2]float64{} }},
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
						in[i] = slices.Clone(base[i])
					}
					in[vi][pos] = sp
					differ(t, k, 0.5, in, offs)
				}
				in := make([][]float64, k.nvec)
				for i := range in {
					in[i] = slices.Clone(base[i])
				}
				for i := range in[vi] {
					in[vi][i] = sp
				}
				differ(t, k, 0.5, in, offs)
			}
			differ(t, k, sp, base, offs)
		}
	}
}

// TestNormInfChains: NormInf's body runs four max chains over each
// 16-element group, and a block past the last group joins the first.
// At each length of one or two groups plus every residue mod 16, a NaN,
// an infinity and the largest magnitude each land in every chain and
// lane and in the tail, and then a NaN lands in all four chains at
// once: the bits are the Go loop's, and a NaN never wins.
func TestNormInfChains(t *testing.T) {
	needAVX2(t)
	k := kernels[slices.IndexFunc(kernels, func(k kernel) bool { return k.name == "NormInf" })]
	rng := rand.New(rand.NewSource(75))
	for n := 16; n < 48; n++ {
		base := randomVecs(rng, 1, n)[0]
		for pos := 0; pos < n; pos++ {
			for _, sp := range []float64{math.NaN(), math.Inf(-1), -1e300} {
				in := slices.Clone(base)
				in[pos] = sp
				differ(t, k, 0, [][]float64{in}, []int{pos % 4})
			}
		}
		for lane := 0; lane < 4; lane++ {
			in := slices.Clone(base)
			for c := 0; c < 4; c++ {
				in[4*c+lane] = math.NaN()
			}
			differ(t, k, 0, [][]float64{in}, []int{lane})
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

// stencilMask is a random mask over n rows for diagonals off: blocks of
// four full rows (runs of them, so pairs of full blocks occur), rows
// empty, rows full and random rows, some with bits at or above
// len(off) set, which every path ignores — full rows among them, with
// every bit up to the seventh set whatever the count. A bit whose
// neighbour leaves [0, n) is cleared, as the contract asks.
func stencilMask(rng *rand.Rand, off []int, n int) []uint16 {
	nd := len(off)
	mask := make([]uint16, n)
	for i := range mask {
		switch mode := rng.Intn(8); {
		case i/4%3 != 0 && i/12%2 != 0:
			mask[i] = 0x7F
		case i/4%3 != 0 || mode == 0:
			mask[i] = 1<<nd - 1
		case mode == 1:
			mask[i] = 0
		default:
			mask[i] = uint16(rng.Intn(1 << 16))
		}
		for d, o := range off {
			if i+o < 0 || i+o >= n {
				mask[i] &^= 1 << d
			}
		}
	}
	return mask
}

// TestStencilMatchesGoLoop: the stencil kernel on shapes no grid
// generator produces — every supported count of diagonals (1 to 7) at
// random offsets, random masks over the whole of x (so the first and
// last rows' absent neighbours fall outside it), a zero coefficient,
// every special value in x both under a set bit and under a clear one —
// with and without b, from every start of the range modulo four, at
// every offset of dst in its backing array.
func TestStencilMatchesGoLoop(t *testing.T) {
	needAVX2(t)
	rng := rand.New(rand.NewSource(74))
	for nd := 1; nd <= 7; nd++ {
		for trial := 0; trial < 16; trial++ {
			const n = 64
			off := make([]int, nd)
			coef := make([]float64, nd)
			for d, o := range rng.Perm(25)[:nd] {
				off[d] = o - 12
				coef[d] = float64(rng.Intn(9) - 4) // zero among them
			}
			sort.Ints(off)
			mask := stencilMask(rng, off, n)
			lo := trial % 4
			hi := lo + (n-lo)&^3
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
						dst, backing = guarded(slices.Repeat([]float64{guard}, n), o)
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

// TestStencilNeighbourRule: for every supported count of diagonals, a
// call whose every set bit's neighbour lies inside x passes on both
// paths though clear bits point outside x, and setting any one bit
// whose neighbour leaves x — in any row of the range, on either side —
// panics in Go, before the assembly runs.
func TestStencilNeighbourRule(t *testing.T) {
	const n = 24
	x := make([]float64, n)
	dst := make([]float64, n)
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	for nd := 1; nd <= 7; nd++ {
		off := []int{-9, -4, -1, 0, 1, 4, 9}[7-nd:] // offsets of both signs from nd = 4 on
		if nd < 4 {
			off = []int{-5, 0, 3}[:nd]
		}
		coef := make([]float64, nd)
		for d := range coef {
			coef[d] = float64(d + 1)
		}
		mask := make([]uint16, n)
		for i := range mask {
			for d, o := range off {
				if i+o >= 0 && i+o < n {
					mask[i] |= 1 << d
				}
			}
		}
		for _, on := range []bool{false, useAVX2} {
			func() {
				have := useAVX2
				defer func() { useAVX2 = have }()
				useAVX2 = on
				StencilMulVec(dst, nil, x, off, coef, mask, 0, n)
			}()
		}
		for i := range mask {
			for d, o := range off {
				if i+o >= 0 && i+o < n {
					continue
				}
				mask[i] |= 1 << d
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%d diagonals %v: row %d's bit for offset %d leaves x, no panic", nd, off, i, o)
						}
					}()
					StencilMulVec(dst, nil, x, off, coef, mask, 0, n)
				}()
				// A range that excludes the row does not look at it.
				if lo := (i/4 + 1) * 4; lo < n {
					StencilMulVec(dst, nil, x, off, coef, mask, lo, n)
				} else {
					StencilMulVec(dst, nil, x, off, coef, mask, 0, i&^3)
				}
				mask[i] &^= 1 << d
			}
		}
	}
}

// TestStencilChecksItsArguments: the wrapper, not the assembly, refuses
// a call the kernel cannot take.
func TestStencilChecksItsArguments(t *testing.T) {
	x, dst := make([]float64, 16), make([]float64, 16)
	off, coef := []int{-2, 0, 3}, []float64{1, 2, 3}
	mask := make([]uint16, 16)
	for i := range mask {
		mask[i] = 0b010
	}
	StencilMulVec(dst, nil, x, off, coef, mask, 0, 16) // clear bits pointing outside x
	for name, call := range map[string]func(){
		"range not a multiple of 4": func() { StencilMulVec(dst, nil, x, off, coef, mask, 2, 9) },
		"negative start":            func() { StencilMulVec(dst, nil, x, off, coef, mask, -4, 4) },
		"dst short":                 func() { StencilMulVec(dst[:9], nil, x, off, coef, mask, 0, 12) },
		"b short":                   func() { StencilMulVec(dst, x[:9], x, off, coef, mask, 0, 12) },
		"mask short":                func() { StencilMulVec(dst, nil, x, off, coef, mask[:9], 0, 12) },
		"coefficients short":        func() { StencilMulVec(dst, nil, x, off, coef[:2], mask, 0, 12) },
		"no diagonals":              func() { StencilMulVec(dst, nil, x, nil, nil, mask, 0, 12) },
		"more than seven diagonals": func() { StencilMulVec(dst, nil, x, make([]int, 8), make([]float64, 8), mask, 0, 12) },
		"infinite coefficient":      func() { StencilMulVec(dst, nil, x, off, []float64{1, math.Inf(-1), 3}, mask, 0, 12) },
		"NaN coefficient":           func() { StencilMulVec(dst, nil, x, off, []float64{math.NaN(), 2, 3}, mask, 0, 12) },
		"x too short for a set bit": func() { StencilMulVec(dst, nil, x[:10], off, coef, mask, 0, 12) },
		"unsorted offsets, one leaves": func() {
			StencilMulVec(dst, nil, x, []int{0, -3, 1}, coef, []uint16{0b011, 0b011, 0b011, 0b011}, 0, 4)
		},
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
