package precond

import (
	"fmt"
	"math"
)

// factor is an incomplete factorization M = L̃·D·Ũ in the one layout
// the triangular-solve kernel reads. L̃ is unit lower and Ũ unit upper;
// neither diagonal is stored, and D⁻¹ is the vector dinv. Of each
// strict triangle, the diagonal next to the main one is a dense vector
// (lsub[i] = l̃_{i,i−1}, usup[i] = ũ_{i,i+1}, zero where the pattern has
// no entry) and the rest is CSR with int32 row pointers and column
// indices, 12 bytes per entry, columns ascending within a row.
type factor struct {
	n          int
	lptr, uptr []int32 // CSR row pointers, length n+1
	lcol, ucol []int32
	lval, uval []float64
	lsub, usup []float64
	dinv       []float64
}

// newFactor returns a factor for n rows with zeroed row pointers, for
// the caller to count CSR row lengths into before calling alloc.
func newFactor(n int) (*factor, error) {
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("precond: %d rows exceed the factor's int32 index range", n)
	}
	return &factor{n: n, lptr: make([]int32, n+1), uptr: make([]int32, n+1)}, nil
}

// alloc turns the row lengths counted into lptr[i+1] and uptr[i+1]
// into row pointers and allocates every array at its exact size. nl
// and nu are the totals of those counts, summed by the caller in int
// so that an overflow is seen here and not wrapped.
func (f *factor) alloc(nl, nu int) error {
	if nl > math.MaxInt32 || nu > math.MaxInt32 {
		return fmt.Errorf("precond: %d lower and %d upper factor entries exceed the int32 index range", nl, nu)
	}
	for i := 0; i < f.n; i++ {
		f.lptr[i+1] += f.lptr[i]
		f.uptr[i+1] += f.uptr[i]
	}
	f.lcol, f.lval = make([]int32, nl), make([]float64, nl)
	f.ucol, f.uval = make([]int32, nu), make([]float64, nu)
	f.lsub, f.usup = make([]float64, f.n), make([]float64, f.n)
	f.dinv = make([]float64, f.n)
	return nil
}

// solve computes dst ← Ũ⁻¹·D⁻¹·L̃⁻¹·r. dst and r must not alias.
//
// Both sweeps are latency-bound on the recurrence through the
// neighbouring row, so the kernel keeps that chain to one multiply and
// one subtract per row: nothing divides, the multiply by dinv starts
// the backward sum before any x_j is needed, and the neighbour's value
// comes from a register (prev, against lsub/usup) rather than from the
// store that has just written it. Everything gathered through lcol and
// ucol is at least two rows old.
func (f *factor) solve(dst, r []float64) {
	n := f.n
	dst, r = dst[:n], r[:n]
	// Forward: y_i = r_i − Σ_{k<i} l̃_ik·y_k.
	lptr, lcol, lval, lsub := f.lptr[:n+1], f.lcol, f.lval, f.lsub[:n]
	prev := 0.0
	for i := range dst {
		s := r[i]
		for k := lptr[i]; k < lptr[i+1]; k++ {
			s -= lval[k] * dst[lcol[k]]
		}
		s -= lsub[i] * prev
		dst[i] = s
		prev = s
	}
	// Backward: x_i = y_i·dinv_i − Σ_{j>i} ũ_ij·x_j.
	uptr, ucol, uval, usup, dinv := f.uptr[:n+1], f.ucol, f.uval, f.usup[:n], f.dinv[:n]
	prev = 0
	for i := n - 1; i >= 0; i-- {
		s := dst[i] * dinv[i]
		for k := uptr[i]; k < uptr[i+1]; k++ {
			s -= uval[k] * dst[ucol[k]]
		}
		s -= usup[i] * prev
		dst[i] = s
		prev = s
	}
}
