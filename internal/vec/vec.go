// Package vec provides dense vector kernels used by the iterative
// solvers. All kernels operate on []float64 slices in place where
// possible to avoid allocation inside solver loops.
//
// The streaming kernels the solvers run every step (Dot, Norm2, NormInf,
// DotNorm2, Axpy, AxpyDot, AxpyPairNormInf, Aypx, Sub, ScaleTo) have an
// AVX2 body on amd64, taken when the CPU has AVX2. It holds the four
// accumulators of the Go loop as the four lanes of one register, over
// the leading len&^3 elements; the Go loop then finds only the tail
// left, and the combine is shared. The two are bitwise identical (up to
// which NaN a NaN result is), so the Go loops are the portable path and
// the oracle the assembly is tested against. StencilMulVec, the banded
// product package sparse runs generated grid operators through, has an
// AVX2 body on the same terms: lane k is row i+k. So does Exp, the
// elementwise math.Exp the lossy restore runs, where math.Exp itself
// takes its FMA path.
package vec

import (
	"fmt"
	"math"
)

// Dot returns the inner product x·y. It panics if the lengths differ,
// because a length mismatch in a solver is always a programming error.
//
// The sum runs over four independent accumulators: the partial sums
// have no loop-carried dependency, so the CPU overlaps the
// multiply-adds (a measurable speedup on every superscalar core), and
// pairwise-combining four shorter sums also carries less rounding
// error than one long serial sum.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vec: Dot length mismatch %d != %d", len(x), len(y)))
	}
	var s0, s1, s2, s3 float64
	i := 0
	if useAVX2 {
		i = len(x) &^ 3
		s0, s1, s2, s3 = dotAVX2(x, y)
	}
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Norm2 returns the Euclidean norm ‖x‖₂, scaled by the largest
// magnitude so that components near the float64 overflow (or
// underflow) threshold square safely. The scaled sum of squares uses
// four independent accumulators like Dot.
func Norm2(x []float64) float64 {
	scale := NormInf(x)
	if scale == 0 {
		// NormInf skips NaN, so this is the zero vector or NaN among
		// zeros, and a NaN residual must not read as a converged one.
		for _, v := range x {
			if v != v {
				return v
			}
		}
		return 0
	}
	if math.IsInf(scale, 0) {
		// An infinite component makes the norm +Inf; the scaled loop
		// would produce Inf·0 = NaN instead.
		return math.Inf(1)
	}
	var s0, s1, s2, s3 float64
	if scale >= tinyNormal {
		// Multiplying by 1/scale is exact enough here and much cheaper
		// than a divide per element.
		inv := 1 / scale
		i := 0
		if useAVX2 {
			i = len(x) &^ 3
			s0, s1, s2, s3 = sumSquaresAVX2(x, inv)
		}
		for ; i+4 <= len(x); i += 4 {
			r0, r1, r2, r3 := x[i]*inv, x[i+1]*inv, x[i+2]*inv, x[i+3]*inv
			s0 += r0 * r0
			s1 += r1 * r1
			s2 += r2 * r2
			s3 += r3 * r3
		}
		for ; i < len(x); i++ {
			r := x[i] * inv
			s0 += r * r
		}
	} else {
		// Subnormal maximum: 1/scale would overflow, divide instead.
		for _, v := range x {
			r := v / scale
			s0 += r * r
		}
	}
	return scale * math.Sqrt((s0+s1)+(s2+s3))
}

// DotNorm2 returns x·y and ‖x‖₂ from one pass over x, given scale =
// NormInf(x) from a pass the caller has already made over x. Each
// result is accumulated exactly as Dot(x, y) and Norm2(x) accumulate
// it, so both are bitwise equal to the two separate calls.
func DotNorm2(x, y []float64, scale float64) (dot, norm float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vec: DotNorm2 length mismatch %d != %d", len(x), len(y)))
	}
	if scale == 0 || math.IsInf(scale, 0) || scale < tinyNormal {
		// Norm2's special cases: no second pass to save.
		return Dot(x, y), Norm2(x)
	}
	var s0, s1, s2, s3 float64
	var n0, n1, n2, n3 float64
	inv := 1 / scale
	i := 0
	if useAVX2 {
		i = len(x) &^ 3
		s0, s1, s2, s3, n0, n1, n2, n3 = dotNorm2AVX2(x, y, inv)
	}
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
		r0, r1, r2, r3 := x[i]*inv, x[i+1]*inv, x[i+2]*inv, x[i+3]*inv
		n0 += r0 * r0
		n1 += r1 * r1
		n2 += r2 * r2
		n3 += r3 * r3
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
		r := x[i] * inv
		n0 += r * r
	}
	return (s0 + s1) + (s2 + s3), scale * math.Sqrt((n0+n1)+(n2+n3))
}

// AxpyPairNormInf computes x ← x + a·p and r ← r − a·q in one pass
// (the CG solution and residual update) and returns NormInf(r) of the
// updated r.
func AxpyPairNormInf(a float64, x, p, r, q []float64) float64 {
	if len(p) != len(x) || len(r) != len(x) || len(q) != len(x) {
		panic("vec: AxpyPairNormInf length mismatch")
	}
	var m float64
	if useAVX2 {
		n := len(x) &^ 3
		// No lane holds a NaN, so the maximum does not depend on the
		// order it is taken in.
		m0, m1, m2, m3 := axpyPairNormInfAVX2(a, x, p, r, q)
		m = max(m0, m1, m2, m3)
		x, p, r, q = x[n:], p[n:], r[n:], q[n:]
	}
	for i := range x {
		x[i] += a * p[i]
		r[i] -= a * q[i]
		if v := math.Abs(r[i]); v > m {
			m = v
		}
	}
	return m
}

// AxpyDot computes y ← a·x + y and returns y·z for the updated y, from
// one pass over y. The update is Axpy's and the sum is accumulated
// exactly as Dot accumulates it, so y and the result are bitwise equal
// to Axpy(a, x, y) followed by Dot(y, z). It is one projection of
// GMRES's modified Gram–Schmidt fused with the next one's inner
// product.
func AxpyDot(a float64, x, y, z []float64) float64 {
	if len(x) != len(y) || len(z) != len(y) {
		panic(fmt.Sprintf("vec: AxpyDot length mismatch %d, %d, %d", len(x), len(y), len(z)))
	}
	var s0, s1, s2, s3 float64
	if useAVX2 {
		n := len(y) &^ 3
		s0, s1, s2, s3 = axpyDotAVX2(a, x, y, z)
		x, y, z = x[n:], y[n:], z[n:]
	}
	for ; len(x) >= 4 && len(y) >= 4 && len(z) >= 4; x, y, z = x[4:], y[4:], z[4:] {
		y0 := y[0] + a*x[0]
		y1 := y[1] + a*x[1]
		y2 := y[2] + a*x[2]
		y3 := y[3] + a*x[3]
		y[0], y[1], y[2], y[3] = y0, y1, y2, y3
		s0 += y0 * z[0]
		s1 += y1 * z[1]
		s2 += y2 * z[2]
		s3 += y3 * z[3]
	}
	x, z = x[:len(y)], z[:len(y)]
	for i := range y {
		y[i] += a * x[i]
		s0 += y[i] * z[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// tinyNormal is the smallest positive normal float64; below it the
// reciprocal 1/scale overflows to +Inf.
const tinyNormal = 2.2250738585072014e-308

// NormInf returns the maximum-magnitude component of x.
func NormInf(x []float64) float64 {
	var m0, m1, m2, m3 float64
	i := 0
	if useAVX2 {
		i = len(x) &^ 3
		m0, m1, m2, m3 = normInfAVX2(x)
	}
	for ; i+4 <= len(x); i += 4 {
		if a := math.Abs(x[i]); a > m0 {
			m0 = a
		}
		if a := math.Abs(x[i+1]); a > m1 {
			m1 = a
		}
		if a := math.Abs(x[i+2]); a > m2 {
			m2 = a
		}
		if a := math.Abs(x[i+3]); a > m3 {
			m3 = a
		}
	}
	for ; i < len(x); i++ {
		if a := math.Abs(x[i]); a > m0 {
			m0 = a
		}
	}
	return max(m0, m1, m2, m3) // no lane holds a NaN
}

// Axpy computes y ← a·x + y.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vec: Axpy length mismatch %d != %d", len(x), len(y)))
	}
	if useAVX2 {
		n := len(x) &^ 3
		axpyAVX2(a, x, y)
		x, y = x[n:], y[n:]
	}
	for i, v := range x {
		y[i] += float64(a * v) // rounded as the assembly rounds it: no fused multiply-add
	}
}

// Aypx computes y ← x + a·y (the PETSc VecAYPX kernel used by CG's
// direction update p ← z + β·p).
func Aypx(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("vec: Aypx length mismatch %d != %d", len(x), len(y)))
	}
	if useAVX2 {
		n := len(x) &^ 3
		aypxAVX2(a, x, y)
		x, y = x[n:], y[n:]
	}
	for i, v := range x {
		y[i] = v + a*y[i]
	}
}

// ScaleTo computes dst ← a·x (GMRES's normalisation of a new basis
// vector). dst may be x.
func ScaleTo(dst []float64, a float64, x []float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("vec: ScaleTo length mismatch %d != %d", len(dst), len(x)))
	}
	if useAVX2 {
		n := len(x) &^ 3
		scaleToAVX2(dst, a, x)
		dst, x = dst[n:], x[n:]
	}
	for i, v := range x {
		dst[i] = a * v
	}
}

// Zero sets every component of x to zero.
func Zero(x []float64) { clear(x) }

// Sub computes dst ← x − y (the residual b − A·x once A·x is formed).
// dst may be x or y.
func Sub(dst, x, y []float64) {
	if len(x) != len(y) || len(dst) != len(x) {
		panic("vec: Sub length mismatch")
	}
	if useAVX2 {
		n := len(dst) &^ 3
		subAVX2(dst, x, y)
		dst, x, y = dst[n:], x[n:], y[n:]
	}
	for i := range dst {
		dst[i] = x[i] - y[i]
	}
}

// MaxAbsDiff returns max_i |x_i − y_i|, used by tests to assert
// error-bound compliance of lossy compressors.
func MaxAbsDiff(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("vec: MaxAbsDiff length mismatch")
	}
	var m float64
	for i := range x {
		if d := math.Abs(x[i] - y[i]); d > m {
			m = d
		}
	}
	return m
}

// Range returns (min, max) over the components of x; (0, 0) for an
// empty vector. Lossy compressors use the value range to convert
// range-relative bounds into absolute bounds.
func Range(x []float64) (lo, hi float64) {
	if len(x) == 0 {
		return 0, 0
	}
	lo, hi = x[0], x[0]
	for _, v := range x[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Exp sets dst[i] = math.Exp(x[i]), bit for bit; dst may be x. Where
// math.Exp itself takes its AVX+FMA path, the AVX2 body runs that path
// on four elements at a time; a group of four with a lane outside ±708
// or a NaN goes through math.Exp, as does the tail.
func Exp(dst, x []float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("vec: Exp length mismatch %d != %d", len(dst), len(x)))
	}
	i := 0
	for useAVX2 && hasFMA && i+4 <= len(x) {
		i += expAVX2(dst[i:], x[i:])
		for end := min(i+4, len(x)); i < end; i++ { // the group it stopped at, or the tail
			dst[i] = math.Exp(x[i])
		}
	}
	for ; i < len(x); i++ {
		dst[i] = math.Exp(x[i])
	}
}

// Accelerated reports whether the kernels run their AVX2 bodies. A
// caller that would build a data layout only the assembly makes
// worthwhile asks first.
func Accelerated() bool { return useAVX2 }

// StencilMulVec computes rows [lo, hi) of the product with a banded
// matrix held as a stencil: its entries lie on the diagonals off
// (column − row), diagonal d carries the one value coef[d], and row i
// stores an entry on diagonal d iff bit d of mask[i] is set. It writes
// dst[i] ← Σ_d coef[d]·x[i+off[d]] over the set bits, summed from +0 in
// ascending d — the order and the bits of a CSR row loop — or b[i] −
// that sum when b is not nil. dst must not alias x.
//
// A stencil has one to seven diagonals with finite coefficients, and
// hi−lo is a multiple of four. Every set bit's neighbour i+off[d] must
// lie inside x; a clear bit's may lie anywhere, so a grid's boundary
// rows are taken like any other. The AVX2 body loads x under the mask
// bits: an absent entry adds c·(+0) = ±0, which a sum that started at
// +0 (so never −0) absorbs bit for bit. The checks are here, not in the
// assembly.
func StencilMulVec(dst, b, x []float64, off []int, coef []float64, mask []uint16, lo, hi int) {
	if len(off) == 0 || len(off) > 7 || len(coef) != len(off) {
		panic(fmt.Sprintf("vec: StencilMulVec has %d offsets, %d coefficients", len(off), len(coef)))
	}
	if lo < 0 || hi < lo || (hi-lo)%4 != 0 || hi > len(dst) || hi > len(mask) || (b != nil && hi > len(b)) {
		panic(fmt.Sprintf("vec: StencilMulVec rows [%d,%d) of dst %d, b %d, mask %d", lo, hi, len(dst), len(b), len(mask)))
	}
	for d, o := range off {
		if math.IsInf(coef[d], 0) || math.IsNaN(coef[d]) {
			panic(fmt.Sprintf("vec: StencilMulVec diagonal %d has coefficient %v", o, coef[d]))
		}
		// Row i reaches before x when i < −o and past it when i ≥ len(x) − o.
		head, tail := mask[lo:max(lo, min(hi, -o))], mask[min(hi, max(lo, len(x)-o)):hi]
		if (maskOr(head)|maskOr(tail))>>d&1 != 0 {
			panic(fmt.Sprintf("vec: StencilMulVec diagonal %d has a set bit whose neighbour leaves x (%d) on rows [%d,%d)", o, len(x), lo, hi))
		}
	}
	if useAVX2 {
		var offs [7]int
		var coefs [7]float64
		pad := 7 - len(off)
		copy(offs[pad:], off)
		copy(coefs[pad:], coef)
		stencilAVX2(dst, b, x, &offs, &coefs, mask, lo, hi, pad)
		return
	}
	for i := lo; i < hi; i++ {
		var s float64
		for d, o := range off {
			if mask[i]>>d&1 != 0 {
				s += coef[d] * x[i+o]
			}
		}
		if b != nil {
			s = b[i] - s
		}
		dst[i] = s
	}
}

// maskOr is the OR of m's words, eight to a step: at 32³, 1–2% of the
// kernel's time for the 2,000-odd rows within reach of an end of x.
func maskOr(m []uint16) (w uint16) {
	for ; len(m) >= 8; m = m[8:] {
		w |= m[0] | m[1] | m[2] | m[3] | m[4] | m[5] | m[6] | m[7]
	}
	for _, v := range m {
		w |= v
	}
	return w
}
