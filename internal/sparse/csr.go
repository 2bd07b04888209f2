// Package sparse provides compressed sparse row (CSR) matrices and the
// problem generators used by the paper's evaluation (3D Poisson,
// KKT-like saddle point, random SPD).
package sparse

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/parallel"
	"repro/internal/vec"
)

// CSR is a sparse matrix in compressed sparse row format. Column
// indices within each row are strictly increasing.
//
// A matrix returned by this package's constructors must not be
// modified: the grid generators attach a stencil summary of the arrays,
// and the multiply reads that summary, not Val, on the rows it covers.
// A hand-assembled &CSR{…} carries no summary and reads Val live on
// every multiply.
type CSR struct {
	Rows, Cols int
	RowPtr     []int // length Rows+1
	ColIdx     []int // length NNZ
	Val        []float64

	st *stencil // nil unless a grid generator declared one
}

// stencil summarises a matrix whose entries lie on a few diagonals,
// each carrying one value: 2 B per row and O(diagonals), no copy of an
// index or a value. It is derived state — Serialize does not write it.
type stencil struct {
	off    []int     // diagonal offsets (column − row), ascending: CSR's column order
	coef   []float64 // the value every entry on diagonal d holds
	mask   []uint16  // per row: bit d ⇔ the row stores an entry on diagonal d
	lo, hi int       // rows the stencil kernel takes: every diagonal inside x, hi−lo a multiple of 4
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// Kernel names the path MulVec and MulVecSub take on this matrix:
// "stencil7/avx2" (seven diagonals) for a generated grid operator on a
// machine with AVX2, "csr" for the row kernel.
func (m *CSR) Kernel() string {
	if m.st == nil {
		return "csr"
	}
	return fmt.Sprintf("stencil%d/avx2", len(m.st.off))
}

// Stencil returns the summary a grid generator declared for this
// matrix, or nils when it carries none: the diagonal offsets (column −
// row) in ascending order, the one value every entry on each diagonal
// holds, and per row a mask whose bit d says the row stores an entry on
// diagonal d. The slices are the matrix's own and must not be written.
func (m *CSR) Stencil() (off []int, coef []float64, mask []uint16) {
	if m.st == nil {
		return nil, nil, nil
	}
	return m.st.off, m.st.coef, m.st.mask
}

// At returns the value at (i, j); zero if no entry is stored. It is a
// binary search per call and intended for tests and small matrices,
// not for inner loops.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("sparse: At(%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	k := lo + sort.SearchInts(m.ColIdx[lo:hi], j)
	if k < hi && m.ColIdx[k] == j {
		return m.Val[k]
	}
	return 0
}

// parallelMinNNZ is the matrix size below which MulVec stays serial:
// under ~32k stored entries the multiply finishes in tens of
// microseconds and goroutine scheduling would dominate, so small
// solves keep their exact serial cost profile.
const parallelMinNNZ = 1 << 15

// mulRows is the one CSR row kernel: for rows in [lo, hi) it computes
// dst[i] ← Σ_k A[i,k]·x[k], or dst[i] ← b[i] − Σ_k A[i,k]·x[k] when b is
// not nil. The three arrays are hoisted into locals, the row end is
// carried from one row to the next, and the inner loop ranges over the
// row's own sub-slices, so it reloads no slice header and checks no
// bound but the gather x[j]. Each row's sum is accumulated left to
// right, so a row-partitioned parallel multiply is bitwise identical
// to the serial one.
func (m *CSR) mulRows(dst, b, x []float64, lo, hi int) {
	colIdx, val := m.ColIdx, m.Val
	ends := m.RowPtr[lo+1 : hi+1]
	dst = dst[lo:hi][:len(ends)]
	if b != nil {
		b = b[lo:hi][:len(ends)]
	}
	start := m.RowPtr[lo]
	for i, end := range ends {
		cols := colIdx[start:end]
		vals := val[start:end][:len(cols)]
		var s float64
		for k, j := range cols {
			s += vals[k] * x[j]
		}
		if b != nil {
			s = b[i] - s
		}
		dst[i] = s
		start = end
	}
}

// mulVec runs mulRows over all rows: serially below parallelMinNNZ,
// by row ranges across the worker pool above it. A matrix with a
// stencil summary gives its middle rows to vec.StencilMulVec instead —
// the same sum in the same order, bit for bit, four rows per register —
// on the caller's goroutine: at ≤ 0.2 ms a multiply the fan-out costs
// more than a second worker returns. The head and tail rows, where a
// diagonal would leave x, stay on mulRows.
func (m *CSR) mulVec(dst, b, x []float64) {
	if st := m.st; st != nil {
		m.mulRows(dst, b, x, 0, st.lo)
		vec.StencilMulVec(dst, b, x, st.off, st.coef, st.mask, st.lo, st.hi)
		m.mulRows(dst, b, x, st.hi, m.Rows)
		return
	}
	if m.NNZ() < parallelMinNNZ {
		m.mulRows(dst, b, x, 0, m.Rows)
		return
	}
	parallel.For(m.Rows, parallel.Grain(m.Rows, 512, 4), func(lo, hi int) {
		m.mulRows(dst, b, x, lo, hi)
	})
}

// MulVec computes dst ← A·x. dst must not alias x. Large matrices are
// processed by row ranges across the parallel worker pool; because
// rows are independent and each row sums in serial order, the result
// is bitwise identical to the serial kernel at any worker count.
func (m *CSR) MulVec(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("sparse: MulVec dims: A is %dx%d, x has %d, dst has %d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	m.mulVec(dst, nil, x)
}

// MulVecSub computes dst ← b − A·x (the residual kernel). The
// subtraction is fused into the row loop so dst is touched once per
// row instead of twice.
func (m *CSR) MulVecSub(dst, b, x []float64) {
	if len(b) != m.Rows {
		panic("sparse: MulVecSub b length mismatch")
	}
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("sparse: MulVecSub dims: A is %dx%d, x has %d, dst has %d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	m.mulVec(dst, b, x)
}

// Diag extracts the main diagonal into dst (length Rows). Missing
// diagonal entries yield zero.
func (m *CSR) Diag(dst []float64) {
	if len(dst) != m.Rows {
		panic("sparse: Diag length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = 0
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if m.ColIdx[k] == i {
				dst[i] = m.Val[k]
				break
			}
		}
	}
}

// Transpose returns Aᵀ as a new CSR matrix.
func (m *CSR) Transpose() *CSR {
	counts := make([]int, m.Cols+1)
	for _, j := range m.ColIdx {
		counts[j+1]++
	}
	for j := 0; j < m.Cols; j++ {
		counts[j+1] += counts[j]
	}
	t := &CSR{
		Rows:   m.Cols,
		Cols:   m.Rows,
		RowPtr: counts,
		ColIdx: make([]int, m.NNZ()),
		Val:    make([]float64, m.NNZ()),
	}
	next := make([]int, m.Cols)
	copy(next, counts[:m.Cols])
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			p := next[j]
			t.ColIdx[p] = i
			t.Val[p] = m.Val[k]
			next[j]++
		}
	}
	return t
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

// SubmatrixRows returns the block of rows [lo, hi) as a new CSR matrix
// that keeps the original (global) column space.
func (m *CSR) SubmatrixRows(lo, hi int) *CSR {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("sparse: SubmatrixRows [%d,%d) out of range %d", lo, hi, m.Rows))
	}
	s, e := m.RowPtr[lo], m.RowPtr[hi]
	sub := &CSR{
		Rows:   hi - lo,
		Cols:   m.Cols,
		RowPtr: make([]int, hi-lo+1),
		ColIdx: make([]int, e-s),
		Val:    make([]float64, e-s),
	}
	for i := lo; i <= hi; i++ {
		sub.RowPtr[i-lo] = m.RowPtr[i] - s
	}
	copy(sub.ColIdx, m.ColIdx[s:e])
	copy(sub.Val, m.Val[s:e])
	return sub
}

// Builder accumulates coordinate-format entries and compresses them
// into a CSR matrix. Duplicate (i, j) entries are summed, matching the
// usual finite-element assembly convention.
type Builder struct {
	rows, cols int
	is, js     []int
	vs         []float64
}

// NewBuilder returns a Builder for a rows×cols matrix.
func NewBuilder(rows, cols int) *Builder {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("sparse: invalid builder dims %dx%d", rows, cols))
	}
	return &Builder{rows: rows, cols: cols}
}

// Add records entry (i, j) += v. Zero values are kept out to preserve
// sparsity.
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: Add(%d,%d) out of range %dx%d", i, j, b.rows, b.cols))
	}
	if v == 0 {
		return
	}
	b.is = append(b.is, i)
	b.js = append(b.js, j)
	b.vs = append(b.vs, v)
}

// Build compresses the accumulated entries into a CSR matrix.
func (b *Builder) Build() *CSR {
	type key struct{ i, j int }
	order := make([]int, len(b.is))
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(a, c int) bool {
		ka, kc := order[a], order[c]
		if b.is[ka] != b.is[kc] {
			return b.is[ka] < b.is[kc]
		}
		return b.js[ka] < b.js[kc]
	})
	m := &CSR{Rows: b.rows, Cols: b.cols, RowPtr: make([]int, b.rows+1)}
	last := key{-1, -1}
	for _, k := range order {
		cur := key{b.is[k], b.js[k]}
		if cur == last {
			m.Val[len(m.Val)-1] += b.vs[k]
			continue
		}
		m.ColIdx = append(m.ColIdx, cur.j)
		m.Val = append(m.Val, b.vs[k])
		m.RowPtr[cur.i+1]++
		last = cur
	}
	for i := 0; i < b.rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// Serialize encodes the matrix into a portable byte stream (little
// endian). The checkpoint library stores static variables (A, M, b)
// with this encoding.
func (m *CSR) Serialize() []byte {
	n := 16 + 8*(len(m.RowPtr)+len(m.ColIdx)) + 8*len(m.Val)
	buf := make([]byte, 0, n)
	var scratch [8]byte
	putInt := func(v int) {
		binary.LittleEndian.PutUint64(scratch[:], uint64(v))
		buf = append(buf, scratch[:]...)
	}
	putInt(m.Rows)
	putInt(m.Cols)
	for _, v := range m.RowPtr {
		putInt(v)
	}
	for _, v := range m.ColIdx {
		putInt(v)
	}
	for _, v := range m.Val {
		binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
		buf = append(buf, scratch[:]...)
	}
	return buf
}

// Deserialize decodes a matrix produced by Serialize.
func Deserialize(buf []byte) (*CSR, error) {
	if len(buf) < 16 {
		return nil, fmt.Errorf("sparse: truncated header (%d bytes)", len(buf))
	}
	off := 0
	getInt := func() int {
		v := int(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
		return v
	}
	rows, cols := getInt(), getInt()
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("sparse: invalid dims %dx%d", rows, cols)
	}
	// Every size below is bounded by len(buf) before it is multiplied
	// or allocated: a header cannot make the decoder overflow or
	// allocate more than a constant factor of the bytes it was given.
	words := (len(buf) - 16) / 8
	if rows >= words {
		return nil, fmt.Errorf("sparse: truncated row pointers (%d rows in %d bytes)", rows, len(buf))
	}
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i := range m.RowPtr {
		m.RowPtr[i] = getInt()
	}
	if m.RowPtr[0] != 0 {
		return nil, fmt.Errorf("sparse: row pointers start at %d, not 0", m.RowPtr[0])
	}
	for i := 0; i < rows; i++ {
		if m.RowPtr[i+1] < m.RowPtr[i] {
			return nil, fmt.Errorf("sparse: row pointers decrease at row %d", i)
		}
	}
	nnz := m.RowPtr[rows]
	if nnz > words || len(buf) != 16+8*(rows+1)+16*nnz {
		return nil, fmt.Errorf("sparse: payload size %d does not match nnz %d", len(buf), nnz)
	}
	m.ColIdx = make([]int, nnz)
	for i := range m.ColIdx {
		m.ColIdx[i] = getInt()
		if m.ColIdx[i] < 0 || m.ColIdx[i] >= cols {
			return nil, fmt.Errorf("sparse: column index %d out of range", m.ColIdx[i])
		}
	}
	// The type's invariant, which At's binary search relies on.
	for i := 0; i < rows; i++ {
		for k := m.RowPtr[i] + 1; k < m.RowPtr[i+1]; k++ {
			if m.ColIdx[k] <= m.ColIdx[k-1] {
				return nil, fmt.Errorf("sparse: row %d: column %d follows %d, columns must strictly increase", i, m.ColIdx[k], m.ColIdx[k-1])
			}
		}
	}
	m.Val = make([]float64, nnz)
	for i := range m.Val {
		m.Val[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	return m, nil
}
