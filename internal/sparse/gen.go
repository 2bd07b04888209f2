package sparse

import (
	"math"
	"math/rand"

	"repro/internal/vec"
)

// Poisson3D returns the n³×n³ system matrix of the paper's Eq. (15):
// the 7-point stencil on an n×n×n grid. The paper writes the operator
// with −6 on the diagonal and +1 off-diagonal; we return the
// sign-flipped matrix (+6 diagonal, −1 off-diagonal) so that the
// matrix is symmetric positive definite as required by CG. Solving
// A·x = b with our A is identical to solving the paper's system with
// right-hand side −b, so every convergence result carries over.
func Poisson3D(n int) *CSR {
	if n <= 0 {
		panic("sparse: Poisson3D needs n > 0")
	}
	return poissonGrid(n, n, n, 6)
}

// Poisson3DAniso returns the 7-point stencil operator on an
// nx×ny×nz grid (diagonal 6, off-diagonal −1), with the x index
// fastest in the row ordering. The paper's evaluation grids are cubic
// at dimension 1088–2160; an anisotropic grid with a paper-scale nx
// reproduces the 1D traversal smoothness of the paper's checkpoint
// data (runs of nx smoothly varying values) at laptop-scale total
// size, which is what the compression-ratio measurements need.
func Poisson3DAniso(nx, ny, nz int) *CSR {
	if nx <= 0 || ny <= 0 || nz <= 0 {
		panic("sparse: Poisson3DAniso needs positive dims")
	}
	return poissonGrid(nx, ny, nz, 6)
}

// Poisson2D returns the n²×n² 5-point stencil matrix (diagonal 4,
// off-diagonal −1), the 2D analogue used for smaller tests and as the
// (1,1) block of the KKT generator.
func Poisson2D(n int) *CSR {
	if n <= 0 {
		panic("sparse: Poisson2D needs n > 0")
	}
	return poissonGrid(n, n, 1, 4)
}

// poissonGrid is the one grid generator: center on the diagonal, −1
// towards each neighbour inside the nx×ny×nz grid, x fastest. Arrays
// are allocated at their exact size and written by index.
//
// It also declares the matrix's stencil summary from the six boundary
// tests it evaluates anyway: the diagonals are the neighbour directions
// of extent > 1 (an extent-1 direction stores nothing) in CSR's column
// order −z, −y, −x, center, +x, +y, +z, and a row's mask has the bit of
// each neighbour it stored. The summary is attached where the AVX2
// kernel exists and at least four rows keep every diagonal inside x.
func poissonGrid(nx, ny, nz int, center float64) *CSR {
	N := nx * ny * nz
	nnz := 7*N - 2*(nx*ny+ny*nz+nx*nz)
	m := &CSR{
		Rows:   N,
		Cols:   N,
		RowPtr: make([]int, N+1),
		ColIdx: make([]int, nnz),
		Val:    make([]float64, nnz),
	}
	st := &stencil{mask: make([]uint16, N)}
	var bit [7]uint16 // −z, −y, −x, center, +x, +y, +z; 0 for an extent-1 direction
	for k, d := range [7]struct {
		extent, off int
		coef        float64
	}{
		{nz, -nx * ny, -1}, {ny, -nx, -1}, {nx, -1, -1}, {2, 0, center}, {nx, 1, -1}, {ny, nx, -1}, {nz, nx * ny, -1},
	} {
		if d.extent > 1 {
			bit[k] = 1 << len(st.off)
			st.off = append(st.off, d.off)
			st.coef = append(st.coef, d.coef)
		}
	}
	colIdx, val := m.ColIdx, m.Val
	put := func(k, j int, v float64) int {
		colIdx[k], val[k] = j, v
		return k + 1
	}
	row, k := 0, 0
	for iz := 0; iz < nz; iz++ {
		for iy := 0; iy < ny; iy++ {
			for ix := 0; ix < nx; ix++ {
				var mask uint16
				if iz > 0 {
					k, mask = put(k, row-nx*ny, -1), mask|bit[0]
				}
				if iy > 0 {
					k, mask = put(k, row-nx, -1), mask|bit[1]
				}
				if ix > 0 {
					k, mask = put(k, row-1, -1), mask|bit[2]
				}
				k, mask = put(k, row, center), mask|bit[3]
				if ix < nx-1 {
					k, mask = put(k, row+1, -1), mask|bit[4]
				}
				if iy < ny-1 {
					k, mask = put(k, row+nx, -1), mask|bit[5]
				}
				if iz < nz-1 {
					k, mask = put(k, row+nx*ny, -1), mask|bit[6]
				}
				st.mask[row] = mask
				row++
				m.RowPtr[row] = k
			}
		}
	}
	st.lo = -st.off[0]
	st.hi = st.lo + (N-st.off[len(st.off)-1]-st.lo)&^3
	if vec.Accelerated() && st.hi-st.lo >= 4 {
		m.st = st
	}
	return m
}

// Tridiag returns the n×n tridiagonal matrix with sub-diagonal a,
// diagonal b, and super-diagonal c. The classic 1D Poisson operator is
// Tridiag(n, -1, 2, -1).
func Tridiag(n int, a, b, c float64) *CSR {
	if n <= 0 {
		panic("sparse: Tridiag needs n > 0")
	}
	m := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for i := 0; i < n; i++ {
		if i > 0 && a != 0 {
			m.ColIdx = append(m.ColIdx, i-1)
			m.Val = append(m.Val, a)
		}
		if b != 0 {
			m.ColIdx = append(m.ColIdx, i)
			m.Val = append(m.Val, b)
		}
		if i < n-1 && c != 0 {
			m.ColIdx = append(m.ColIdx, i+1)
			m.Val = append(m.Val, c)
		}
		m.RowPtr[i+1] = len(m.Val)
	}
	return m
}

// KKT returns a symmetric indefinite saddle-point matrix
//
//	[ H  Bᵀ ]
//	[ B  0  ]
//
// with H the gridN²×gridN² 2D Poisson operator and B a sparse
// difference-constraint block with nc rows. This is our stand-in for
// the SuiteSparse KKT240 matrix used in the paper's Fig. 3: KKT240 is
// a symmetric indefinite KKT system from 3D PDE-constrained
// optimization; this generator reproduces the structural features that
// make such systems hard for GMRES (indefiniteness, zero diagonal
// block), at a size that fits in a test machine.
func KKT(gridN, nc int, seed int64) *CSR {
	h := Poisson2D(gridN)
	m := h.Rows
	if nc <= 0 {
		nc = m / 4
	}
	if nc > m {
		panic("sparse: KKT constraint count exceeds primal size")
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(m+nc, m+nc)
	// H block.
	for i := 0; i < m; i++ {
		for k := h.RowPtr[i]; k < h.RowPtr[i+1]; k++ {
			b.Add(i, h.ColIdx[k], h.Val[k])
		}
	}
	// B and Bᵀ blocks: each constraint couples two distinct primal
	// unknowns with coefficients +1/−1 (a difference constraint), the
	// typical structure of equality-constrained discretizations.
	for i := 0; i < nc; i++ {
		j1 := rng.Intn(m)
		j2 := rng.Intn(m)
		for j2 == j1 {
			j2 = rng.Intn(m)
		}
		b.Add(m+i, j1, 1)
		b.Add(m+i, j2, -1)
		b.Add(j1, m+i, 1)
		b.Add(j2, m+i, -1)
	}
	return b.Build()
}

// RandomSPD returns a random sparse symmetric positive definite matrix
// with about extraPerRow off-diagonal entries per row, made strictly
// diagonally dominant. Used by property tests as an "arbitrary SPD
// system" source.
func RandomSPD(n, extraPerRow int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n, n)
	rowAbs := make([]float64, n)
	for i := 0; i < n; i++ {
		for e := 0; e < extraPerRow; e++ {
			j := rng.Intn(n)
			if j == i {
				continue
			}
			v := rng.NormFloat64()
			b.Add(i, j, v)
			b.Add(j, i, v)
			rowAbs[i] += math.Abs(v)
			rowAbs[j] += math.Abs(v)
		}
	}
	for i := 0; i < n; i++ {
		b.Add(i, i, rowAbs[i]+1+rng.Float64())
	}
	return b.Build()
}

// SmoothField returns an n-vector sampled from a smooth superposition
// of sines. Iterative-method solution vectors for PDE systems are
// smooth, which is exactly why SZ-style prediction compresses them so
// well; tests and experiments use this as a realistic solver state.
func SmoothField(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	a1, a2, a3 := 1+rng.Float64(), rng.Float64(), 0.3*rng.Float64()
	p1, p2, p3 := rng.Float64()*math.Pi, rng.Float64()*math.Pi, rng.Float64()*math.Pi
	x := make([]float64, n)
	for i := range x {
		t := float64(i) / float64(n)
		x[i] = a1*math.Sin(2*math.Pi*t+p1) +
			a2*math.Sin(8*math.Pi*t+p2) +
			a3*math.Sin(32*math.Pi*t+p3)
	}
	return x
}

// RHSForSolution returns b = A·xExact, so that xExact is the known
// solution of A·x = b. Tests use it to measure true solution error.
func RHSForSolution(a *CSR, xExact []float64) []float64 {
	b := make([]float64, a.Rows)
	a.MulVec(b, xExact)
	return b
}

// OnesRHS returns the all-ones right-hand side of length n, the
// conventional test load for Poisson problems.
func OnesRHS(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	return b
}
