// Package precond implements the preconditioners the paper's PETSc
// configuration uses: Jacobi (diagonal) and block Jacobi with ILU(0)
// or IC(0) inside each block. A preconditioner approximates M⁻¹ and is
// applied once per iteration of PCG or left-preconditioned GMRES.
//
// Both incomplete factorizations are M = L̃·D·Ũ with L̃ unit lower, Ũ
// unit upper and D⁻¹ stored, so that neither sweep divides — IC(0) as
// L̃·D·L̃ᵀ, ILU(0) as L·D·(D⁻¹U). The general layout and its
// triangular-solve kernel are factor.go: the sub- and superdiagonal are
// dense vectors and the rest of each triangle is CSR with int32
// indices, which limits a factor to 2³¹−1 rows and 2³¹−1 entries per
// triangle; the constructors return an error beyond that. IC(0) of a
// matrix that declares a grid stencil (sparse.CSR.Stencil) is instead
// held and applied by diagonals (diag.go): the same numbers in the same
// order, no index at all. Apply reads r while it writes dst: the two
// must not alias.
package precond

import (
	"fmt"
	"math"

	"repro/internal/sparse"
)

// Interface applies dst ← M⁻¹·r. dst and r have equal length and must
// not alias.
type Interface interface {
	Apply(dst, r []float64)
}

// Identity is the no-op preconditioner (M = I).
type Identity struct{}

// Apply copies r into dst.
func (Identity) Apply(dst, r []float64) { copy(dst, r) }

// Jacobi is the diagonal preconditioner M = diag(A). Zero diagonal
// entries are replaced by 1, matching PETSc's PCJACOBI behaviour on
// saddle-point systems such as the KKT matrices of the paper's Fig. 3.
type Jacobi struct {
	invDiag []float64
}

// NewJacobi builds a Jacobi preconditioner from the matrix diagonal.
func NewJacobi(diag []float64) *Jacobi {
	inv := make([]float64, len(diag))
	for i, d := range diag {
		if d == 0 {
			inv[i] = 1
		} else {
			inv[i] = 1 / d
		}
	}
	return &Jacobi{invDiag: inv}
}

// NewJacobiFromMatrix extracts the diagonal of a and builds the
// preconditioner.
func NewJacobiFromMatrix(a *sparse.CSR) *Jacobi {
	d := make([]float64, a.Rows)
	a.Diag(d)
	return NewJacobi(d)
}

// Apply computes dst ← D⁻¹·r.
func (j *Jacobi) Apply(dst, r []float64) {
	if len(dst) != len(j.invDiag) || len(r) != len(j.invDiag) {
		panic("precond: Jacobi.Apply length mismatch")
	}
	for i := range dst {
		dst[i] = j.invDiag[i] * r[i]
	}
}

// ilu0 computes the ILU(0) factorization (zero fill-in, pattern of A
// preserved, IKJ order) of the diagonal block A[lo:hi, lo:hi] straight
// into the compact layout: L̃ = L, Ũ = D⁻¹·U, dinv = 1/u_ii. A missing
// or zero pivot is replaced by a small multiple of the largest row
// entry to keep the factorization usable, mirroring PETSc's shift
// strategies; that is what lets saddle-point blocks through.
func ilu0(a *sparse.CSR, lo, hi int) (*factor, error) {
	n := hi - lo
	f, err := newFactor(n)
	if err != nil {
		return nil, err
	}
	var nl, nu int
	for i := 0; i < n; i++ {
		for k := a.RowPtr[lo+i]; k < a.RowPtr[lo+i+1]; k++ {
			switch j := a.ColIdx[k] - lo; {
			case j >= 0 && j < i-1:
				f.lptr[i+1]++
				nl++
			case j > i+1 && j < n:
				f.uptr[i+1]++
				nu++
			}
		}
	}
	if err := f.alloc(nl, nu); err != nil {
		return nil, err
	}
	// Row i is eliminated in w, a dense copy of the row; in marks the
	// columns of its pattern (the diagonal always). Until the last
	// pass dinv holds the pivots u_ii, and usup and uval the unscaled U.
	w := make([]float64, n)
	in := make([]bool, n)
	piv := f.dinv
	// eliminate returns l_ik for column k of the current row and
	// subtracts l_ik times the strict upper part of row k from it, on
	// the intersection of the two patterns.
	eliminate := func(k int) float64 {
		lik := w[k] / piv[k]
		if in[k+1] {
			w[k+1] -= lik * f.usup[k]
		}
		for kk := f.uptr[k]; kk < f.uptr[k+1]; kk++ {
			if j := f.ucol[kk]; in[j] {
				w[j] -= lik * f.uval[kk]
			}
		}
		w[k], in[k] = 0, false
		return lik
	}
	for i := 0; i < n; i++ {
		kl, ku := f.lptr[i], f.uptr[i]
		for k := a.RowPtr[lo+i]; k < a.RowPtr[lo+i+1]; k++ {
			j := a.ColIdx[k] - lo
			if j < 0 || j >= n {
				continue
			}
			w[j], in[j] = a.Val[k], true
			switch {
			case j < i-1:
				f.lcol[kl] = int32(j)
				kl++
			case j > i+1:
				f.ucol[ku] = int32(j)
				ku++
			}
		}
		in[i] = true
		for k := f.lptr[i]; k < f.lptr[i+1]; k++ {
			f.lval[k] = eliminate(int(f.lcol[k]))
		}
		if i > 0 && in[i-1] {
			f.lsub[i] = eliminate(i - 1)
		}
		if i+1 < n && in[i+1] {
			f.usup[i] = w[i+1]
			w[i+1], in[i+1] = 0, false
		}
		for k := f.uptr[i]; k < f.uptr[i+1]; k++ {
			j := f.ucol[k]
			f.uval[k] = w[j]
			w[j], in[j] = 0, false
		}
		piv[i] = w[i]
		if piv[i] == 0 {
			piv[i] = f.shiftPivot(i)
		}
		w[i], in[i] = 0, false
	}
	for i := 0; i < n; i++ {
		f.usup[i] /= piv[i]
		for k := f.uptr[i]; k < f.uptr[i+1]; k++ {
			f.uval[k] /= piv[i]
		}
		f.dinv[i] = 1 / piv[i]
	}
	return f, nil
}

// shiftPivot returns a replacement for a zero pivot in row i: a small
// multiple of the row's largest magnitude (or 1 for an empty row).
func (f *factor) shiftPivot(i int) float64 {
	m := math.Max(math.Abs(f.lsub[i]), math.Abs(f.usup[i]))
	for _, v := range f.lval[f.lptr[i]:f.lptr[i+1]] {
		m = math.Max(m, math.Abs(v))
	}
	for _, v := range f.uval[f.uptr[i]:f.uptr[i+1]] {
		m = math.Max(m, math.Abs(v))
	}
	if m == 0 {
		return 1
	}
	return 1e-8 * m
}

// BlockILU0 is PETSc's default preconditioner shape: block Jacobi with
// an ILU(0) factorization inside each block. Couplings between blocks
// are dropped, which is what makes the preconditioner embarrassingly
// parallel (each MPI rank factors its own diagonal block).
//
// Each block is held as M = L̃·D·Ũ in the package's compact layout
// (L̃ = L, Ũ = D⁻¹·U, D = diag(u_ii)), which limits a block to 2³¹−1
// rows and as many entries in each triangle.
type BlockILU0 struct {
	starts  []int // block boundaries, len nb+1
	factors []*factor
}

// NewBlockILU0 partitions the rows of a into nb contiguous blocks and
// factors each diagonal block with ILU(0).
func NewBlockILU0(a *sparse.CSR, nb int) (*BlockILU0, error) {
	if nb <= 0 {
		return nil, fmt.Errorf("precond: block count must be positive, got %d", nb)
	}
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("precond: BlockILU0 needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if nb > a.Rows {
		nb = a.Rows
	}
	p := &BlockILU0{starts: partitionStarts(a.Rows, nb)}
	for bk := 0; bk < nb; bk++ {
		lo, hi := p.starts[bk], p.starts[bk+1]
		if lo == hi {
			p.factors = append(p.factors, nil)
			continue
		}
		f, err := ilu0(a, lo, hi)
		if err != nil {
			return nil, fmt.Errorf("precond: block %d: %w", bk, err)
		}
		p.factors = append(p.factors, f)
	}
	return p, nil
}

// partitionStarts returns the contiguous partition of n rows into nb
// blocks: block k is rows [starts[k], starts[k+1]).
func partitionStarts(n, nb int) []int {
	starts := make([]int, nb+1)
	for k := range starts {
		starts[k] = k * n / nb
	}
	return starts
}

// Apply computes dst ← M⁻¹·r block by block. dst and r must not alias.
func (p *BlockILU0) Apply(dst, r []float64) {
	n := p.starts[len(p.starts)-1]
	if len(dst) != n || len(r) != n {
		panic("precond: BlockILU0.Apply length mismatch")
	}
	for bk, f := range p.factors {
		if f == nil {
			continue
		}
		lo, hi := p.starts[bk], p.starts[bk+1]
		f.solve(dst[lo:hi], r[lo:hi])
	}
}

// IC0 is the incomplete Cholesky factorization with zero fill-in for
// symmetric positive definite matrices: A ≈ L·Lᵀ on the pattern of the
// lower triangle of A.
//
// It is held root-free as M = L̃·D·L̃ᵀ (L̃ = L·diag(l_kk)⁻¹, D =
// diag(l_kk²)): the same preconditioner, applied without a division. A
// matrix whose declared stencil newDiag3 takes is held by diagonals;
// every other in the package's CSR layout, with Ũ = L̃ᵀ stored row-wise
// so that the backward sweep gathers like the forward one, which limits
// the matrix to 2³¹−1 rows and as many strictly-lower entries. The two
// are the same factor and the same Apply bit for bit, up to the sign of
// a zero (diag3.solve).
type IC0 struct {
	n int
	f *factor // nil when d is set
	d *diag3
}

// Kernel names the layout the factor is held and applied in: "diag3"
// for a matrix whose declared stencil newDiag3 takes, "csr" for every
// other.
func (p *IC0) Kernel() string {
	if p.d != nil {
		return "diag3"
	}
	return "csr"
}

// NewIC0 factors the SPD matrix a. It returns an error if a pivot
// becomes non-positive (a is not SPD enough for IC(0)); callers should
// fall back to BlockILU0 in that case. Only the lower triangle of a is
// read.
func NewIC0(a *sparse.CSR) (*IC0, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("precond: IC(0) needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	off, coef, mask := a.Stencil()
	d, err := newDiag3(n, off, coef, mask)
	if err != nil {
		return nil, err
	}
	if d != nil {
		return &IC0{n: n, d: d}, nil
	}
	f, err := newFactor(n)
	if err != nil {
		return nil, err
	}
	// Ũ = L̃ᵀ: an entry (i, j) below the subdiagonal is one CSR entry of
	// row i of L̃ and one of row j of Ũ.
	var nl int
	for i := 0; i < n; i++ {
		hasDiag := false
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			switch j := a.ColIdx[k]; {
			case j < i-1:
				f.lptr[i+1]++
				f.uptr[j+1]++
				nl++
			case j == i:
				hasDiag = true
			}
		}
		if !hasDiag {
			return nil, fmt.Errorf("precond: IC(0) requires stored diagonal in row %d", i)
		}
	}
	if err := f.alloc(nl, nl); err != nil {
		return nil, err
	}
	// Row-oriented incomplete Cholesky. pos[j] is the position in lval
	// of column j of the current row (or -1). Until the last pass lsub
	// and lval hold L and dinv its diagonal l_kk.
	pos := make([]int32, n)
	for j := range pos {
		pos[j] = -1
	}
	diag := f.dinv
	// reduce returns l_ik = (s − Σ_{j<k} l_ij·l_kj) / l_kk for s = a_ik,
	// the sum taken over the columns the current row shares with row k.
	reduce := func(s float64, k int) float64 {
		for kk := f.lptr[k]; kk < f.lptr[k+1]; kk++ {
			if p := pos[f.lcol[kk]]; p >= 0 {
				s -= f.lval[p] * f.lval[kk]
			}
		}
		if k > 0 && pos[k-1] >= 0 {
			s -= f.lval[pos[k-1]] * f.lsub[k]
		}
		return s / diag[k]
	}
	for i := 0; i < n; i++ {
		lo, hi := f.lptr[i], f.lptr[i+1]
		var d, sub float64
		hasSub := false
		for k, ka := lo, a.RowPtr[i]; ka < a.RowPtr[i+1]; ka++ {
			switch j := a.ColIdx[ka]; {
			case j < i-1:
				f.lcol[k], f.lval[k] = int32(j), a.Val[ka]
				pos[j] = k
				k++
			case j == i-1:
				sub, hasSub = a.Val[ka], true
			case j == i:
				d = a.Val[ka]
			}
		}
		// Diagonal: l_ii² = a_ii − Σ l_ik².
		for k := lo; k < hi; k++ {
			l := reduce(f.lval[k], int(f.lcol[k]))
			f.lval[k] = l
			d -= l * l
		}
		if hasSub {
			l := reduce(sub, i-1)
			f.lsub[i] = l
			d -= l * l
		}
		for k := lo; k < hi; k++ {
			pos[f.lcol[k]] = -1
		}
		if !(d > 0) {
			return nil, fmt.Errorf("precond: IC(0) pivot %d non-positive (%g); matrix not SPD enough", i, d)
		}
		diag[i] = math.Sqrt(d)
	}
	// Scale the columns of L to unit diagonal and transpose into Ũ.
	// Rows are visited in order, so Ũ's columns ascend; pos is now the
	// fill position of each row of Ũ.
	copy(pos, f.uptr[:n])
	for i := 0; i < n; i++ {
		for k := f.lptr[i]; k < f.lptr[i+1]; k++ {
			j := f.lcol[k]
			f.lval[k] /= diag[j]
			f.ucol[pos[j]], f.uval[pos[j]] = int32(i), f.lval[k]
			pos[j]++
		}
		if i > 0 {
			f.lsub[i] /= diag[i-1]
			f.usup[i-1] = f.lsub[i]
		}
	}
	for i, l := range diag {
		f.dinv[i] = 1 / (l * l)
	}
	return &IC0{n: n, f: f}, nil
}

// Apply computes dst ← (L·Lᵀ)⁻¹·r. dst and r must not alias.
func (p *IC0) Apply(dst, r []float64) {
	if len(dst) != p.n || len(r) != p.n {
		panic("precond: IC0.Apply length mismatch")
	}
	if p.d != nil {
		p.d.solve(dst, r)
		return
	}
	p.f.solve(dst, r)
}
