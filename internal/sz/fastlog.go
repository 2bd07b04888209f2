package sz

import "math"

// The pointwise-relative mode spends most of its non-Huffman time in
// math.Log: one call per finite nonzero value. fastLog replaces it on
// the compression side with a 128-entry table method (the standard
// invc/logc reduction used by fast libm implementations): for
// x = 2^k · m with m ∈ [1, 2), pick the table row i from the top seven
// mantissa bits, whose center c = 1 + (i+0.5)/128 satisfies
// |m/c − 1| ≤ 2^-8, and evaluate
//
//	ln(x) = k·ln2 + ln(c) + ln1p(m·(1/c) − 1)
//
// with a degree-5 Taylor polynomial for ln1p. The result is not
// correctly rounded — the dominant error is the final summation
// rounding at |ln x| up to ~709, plus the ln2 constant's rounding
// scaled by k — but its absolute error is below fastLogErr for every
// normal positive float64, verified exhaustively over the exponent
// range in the package tests.
//
// The error bound stays exact: the encoder quantizes the approximate
// logs under a bound tightened by fastLogErr (see appendLogTransform),
// so the reconstruction is within ln(1+eb) of the *true* logarithm and
// the decoded value within eb·|x| of the original. The row kernel
// (fused_amd64.s) evaluates the same steps four lanes at a time. The
// decoder reads the tightened bound from the stream and exponentiates
// with vec.Exp, which is math.Exp bit for bit (its FMA path four lanes
// at a time where the CPU has it), so streams need no format change.

// fastLogErr bounds |fastLog(b) − ln(x)| over all normal positive x.
// Budget: ≤ 2 summation roundings at |y| ≤ 710 (2 · 5.7e-14), the ln2
// constant error scaled by |k| ≤ 1074 (4.2e-14), table and polynomial
// terms (< 1e-15). The 1e-12 constant leaves ~6× headroom and is
// asserted against an exponent-range sweep in the tests.
const fastLogErr = 1e-12

// logTab holds 1/c and ln(c) per table row, side by side: the row
// kernel (fused_amd64.s) reads it too.
var logTab [128]struct{ invC, lnC float64 }

func init() {
	for i := range logTab {
		c := 1 + (float64(i)+0.5)/128
		logTab[i].invC = 1 / c
		logTab[i].lnC = math.Log(c)
	}
}

// fastLog returns ln(x) for the IEEE-754 bits b of a positive, finite,
// normal float64, within fastLogErr of the true value. It is small
// enough to inline into the quantizer loop that calls it.
func fastLog(b uint64) float64 {
	t := &logTab[b>>45&127] // top 7 mantissa bits
	// exact subtraction: m·invc ∈ [1−2^-8, 1+2^-8]
	r := math.Float64frombits(b&(1<<52-1)|1023<<52)*t.invC - 1
	// ln1p(r) = r − r²·(1/2 − r/3 + r²/4 − r³/5) + O(r⁶), r⁶/6 < 6e-16.
	r2 := r * r
	q := 0.5 - r*(1.0/3-r*(0.25-r*0.2))
	return math.Ln2*float64(int(b>>52)-1023) + t.lnC + (r - r2*q)
}
