package precond

import (
	"fmt"
	"math"
	"slices"
)

// diag3 is IC(0) of a matrix whose strict lower triangle lies on the
// diagonals 1 < s1 < s2 (a 5-point grid has no third: s2 = n), held as
// the same M = L̃·D·L̃ᵀ as the CSR factor but by diagonals: sub[i],
// near[i] and far[i] are l̃ at (i, i−1), (i, i−s1) and (i, i−s2), zero
// where the row stores nothing, and Ũ = L̃ᵀ is the same arrays read at
// i+1, i+s1 and i+s2. No index array and no transposed copy: 40 B a row
// a sweep against the CSR layout's 56–60.
type diag3 struct {
	s1, s2    int
	sub       []float64 // length n+1: sub[n] = 0 is the last row's absent superdiagonal
	near, far []float64 // far is nil when s2 = n
	dinv      []float64
}

// newDiag3 factors the n-row matrix a stencil summary
// (sparse.CSR.Stencil) declares, or returns nil when there is none or it
// is not one it takes: the strict lower triangle must be the diagonals
// 1, s1 and at most s2, and no offset may be the sum of two — 2 = 1+1,
// s2 = 1+s1, s2 = s1+s1 — which is exactly when every Σ l_ij·l_kj of the
// row-oriented factorization in NewIC0 is empty, so that what is left
// of it is the arithmetic below, in its order.
func newDiag3(n int, off []int, coef []float64, mask []uint16) (*diag3, error) {
	c, ok := slices.BinarySearch(off, 0)
	if !ok || c < 2 || c > 3 || off[c-1] != -1 {
		return nil, nil
	}
	f := &diag3{s1: -off[c-2], s2: n}
	if c == 3 {
		f.s2 = -off[0]
		f.far = make([]float64, n)
	}
	if f.s1 == 2 || f.s2 == f.s1+1 || f.s2 == 2*f.s1 {
		return nil, nil
	}
	f.sub, f.near, f.dinv = make([]float64, n+1), make([]float64, n), make([]float64, n)
	// Until the last pass dinv holds L's diagonal l_kk. entry is one
	// lower entry a_ik of the current row: it returns l̃_ik and takes
	// l_ik² out of the row's pivot d.
	diag := f.dinv
	var d float64
	entry := func(a float64, k int) float64 {
		l := a / diag[k]
		d -= l * l
		return l / diag[k]
	}
	for i, m := range mask[:n] {
		d = coef[c]
		if c == 3 && m&1 != 0 {
			f.far[i] = entry(coef[0], i-f.s2)
		}
		if m&(1<<(c-2)) != 0 {
			f.near[i] = entry(coef[c-2], i-f.s1)
		}
		if m&(1<<(c-1)) != 0 {
			f.sub[i] = entry(coef[c-1], i-1)
		}
		if !(d > 0) {
			return nil, fmt.Errorf("precond: IC(0) pivot %d non-positive (%g); matrix not SPD enough", i, d)
		}
		diag[i] = math.Sqrt(d)
	}
	for i, l := range diag {
		f.dinv[i] = 1 / (l * l)
	}
	return f, nil
}

// solve computes dst ← L̃⁻ᵀ·D⁻¹·L̃⁻¹·r in factor.solve's order — forward
// far, near, sub; backward ·dinv, near, far, sup — so the one link of
// the chain through the neighbouring row is still a multiply and a
// subtract, and everything else is streamed. dst and r must not alias.
//
// Where the CSR kernel skips an absent entry this one subtracts
// 0·dst[j]. For finite r the two agree bit for bit except on the sign
// of a zero: a partial sum that is exactly −0 stays −0 there and
// becomes +0 here (−0 − (−0) = +0). A non-finite r yields a non-finite
// dst from both, not necessarily in the same rows (0·Inf is NaN).
func (f *diag3) solve(dst, r []float64) {
	n, s1, s2 := len(f.dinv), f.s1, f.s2
	dst, r = dst[:n], r[:n]
	sub, near, far, dinv := f.sub[:n+1], f.near[:n], f.far, f.dinv[:n]
	prev := 0.0
	for i := range dst {
		s := r[i]
		if i >= s2 {
			s -= far[i] * dst[i-s2]
		}
		if i >= s1 {
			s -= near[i] * dst[i-s1]
		}
		s -= sub[i] * prev
		dst[i] = s
		prev = s
	}
	prev = 0
	for i := n - 1; i >= 0; i-- {
		s := dst[i] * dinv[i]
		if j := i + s1; j < n {
			s -= near[j] * dst[j]
		}
		if j := i + s2; j < n {
			s -= far[j] * dst[j]
		}
		s -= sub[i+1] * prev
		dst[i] = s
		prev = s
	}
}
