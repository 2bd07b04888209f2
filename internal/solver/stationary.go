package solver

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/sparse"
)

// StationaryKind selects the sweep performed by a Stationary solver.
type StationaryKind int

// The four representative stationary methods analyzed in paper §4.4.1.
const (
	KindJacobi StationaryKind = iota
	KindGaussSeidel
	KindSOR
	KindSSOR
)

// String returns the conventional method name.
func (k StationaryKind) String() string {
	switch k {
	case KindJacobi:
		return "Jacobi"
	case KindGaussSeidel:
		return "Gauss-Seidel"
	case KindSOR:
		return "SOR"
	case KindSSOR:
		return "SSOR"
	}
	return fmt.Sprintf("StationaryKind(%d)", int(k))
}

// Stationary iterates x ← G·x + c for the classical splittings. The
// only dynamic variable is x itself, which makes these methods the
// cleanest fit for lossy checkpointing (paper Theorem 2 bounds the
// extra iterations).
//
// The true residual r = b − A·x is derived state: every Step, Restart
// and RestoreDynamic ends by recomputing it from x, and a checkpoint
// never stores it. Jacobi uses it as its update, in the fixed-point
// form x ← x + D⁻¹·r that Fox et al. analyse under lossy state, so a
// Jacobi step (sparse.JacobiSweep, then the norm) passes over the
// matrix once. Gauss-Seidel, SOR and SSOR sweep the matrix in place and
// then refresh r.
type Stationary struct {
	a     *sparse.CSR
	b     []float64
	kind  StationaryKind
	omega float64
	opts  Options

	x, r      []float64
	diag      []float64 // a_ii, divided by in the SOR sweeps; nil for Jacobi
	dinv      []float64 // 1/a_ii, multiplied by in the Jacobi step; nil otherwise
	it        int
	rnorm     float64
	threshold float64
}

// NewStationary constructs a stationary solver of the given kind for
// A·x = b. omega is the relaxation factor for SOR/SSOR (ignored by
// Jacobi and Gauss-Seidel; 1 ≤ omega < 2 accelerates, omega = 1
// reduces SOR to Gauss-Seidel).
func NewStationary(kind StationaryKind, a *sparse.CSR, b []float64, x0 []float64, omega float64, opts Options) (*Stationary, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("solver: stationary method needs square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if a.Rows != len(b) {
		return nil, fmt.Errorf("solver: b has %d entries for %d×%d matrix", len(b), a.Rows, a.Cols)
	}
	if (kind == KindSOR || kind == KindSSOR) && (omega <= 0 || omega >= 2) {
		return nil, fmt.Errorf("solver: SOR relaxation omega = %g outside (0,2)", omega)
	}
	n := a.Rows
	s := &Stationary{
		a:     a,
		b:     append([]float64(nil), b...),
		kind:  kind,
		omega: omega,
		opts:  opts.withDefaults(),
		x:     make([]float64, n),
		r:     make([]float64, n),
	}
	diag := make([]float64, n)
	a.Diag(diag)
	for i, d := range diag {
		if d == 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, fmt.Errorf("solver: stationary method needs a nonzero finite diagonal (row %d has %g)", i, d)
		}
	}
	if kind == KindJacobi {
		for i, d := range diag {
			diag[i] = 1 / d
		}
		s.dinv = diag
	} else {
		s.diag = diag
	}
	s.threshold = s.opts.RTol*SeqSpace{}.Norm2(b) + aTol
	if x0 == nil {
		x0 = make([]float64, n)
	}
	checkDims("x0", n, len(x0))
	s.Restart(x0)
	return s, nil
}

// Restart adopts x as the current iterate; stationary methods carry no
// auxiliary state, so this is a copy plus a residual refresh.
func (s *Stationary) Restart(x []float64) {
	checkDims("restart x", len(s.b), len(x))
	adopt(s.x, x)
	s.refreshResidual()
}

func (s *Stationary) refreshResidual() {
	s.a.MulVecSub(s.r, s.b, s.x)
	s.rnorm = SeqSpace{}.Norm2(s.r)
}

// Step performs one sweep and returns the true residual norm.
func (s *Stationary) Step() float64 {
	s.it++
	switch s.kind {
	case KindJacobi:
		// x_i ← x_i + r_i/a_ii with r = b − A·x from the previous
		// refresh, which in exact arithmetic is the textbook x_i ←
		// (b_i − Σ_{j≠i} a_ij·x_j)/a_ii, then the refresh of r. Bit
		// for bit this is Richardson with precond.Jacobi and ω = 1: the
		// same reciprocal diagonal, the same rounding, the same
		// residual kernel and norm.
		s.a.JacobiSweep(s.x, s.r, s.b, s.dinv)
		s.rnorm = SeqSpace{}.Norm2(s.r)
		return s.rnorm
	case KindGaussSeidel:
		s.sorSweep(1, false)
	case KindSOR:
		s.sorSweep(s.omega, false)
	case KindSSOR:
		s.sorSweep(s.omega, false)
		s.sorSweep(s.omega, true)
	}
	s.refreshResidual()
	return s.rnorm
}

// sorSweep performs one in-place successive-overrelaxation sweep; a
// backward sweep (reverse row order) combined with a forward one
// yields the symmetric method SSOR.
func (s *Stationary) sorSweep(omega float64, backward bool) {
	rowPtr, colIdx, val := s.a.RowPtr, s.a.ColIdx, s.a.Val
	x, b, diag := s.x, s.b, s.diag
	n := len(x)
	for ii := 0; ii < n; ii++ {
		i := ii
		if backward {
			i = n - 1 - ii
		}
		start, end := rowPtr[i], rowPtr[i+1]
		cols := colIdx[start:end]
		vals := val[start:end][:len(cols)]
		sum := b[i]
		for k, j := range cols {
			if j != i {
				sum -= vals[k] * x[j]
			}
		}
		gs := sum / diag[i]
		x[i] = (1-omega)*x[i] + omega*gs
	}
}

// Iteration returns the number of sweeps since construction.
func (s *Stationary) Iteration() int { return s.it }

// Converged reports rnorm ≤ RTol·‖b‖ + aTol.
func (s *Stationary) Converged(rnorm float64) bool { return rnorm <= s.threshold }

// ResidualNorm returns ‖b − A·x‖ after the latest sweep.
func (s *Stationary) ResidualNorm() float64 { return s.rnorm }

// X returns the live iterate. Every kind updates it in place, so it is
// the same slice for the lifetime of the solver.
func (s *Stationary) X() []float64 { return s.x }

// DynamicView exposes (i, x): stationary methods have no other dynamic
// variables.
func (s *Stationary) DynamicView() DynamicState {
	return DynamicState{Iteration: s.it, Vectors: map[string][]float64{"x": s.x}}
}

// RestoreDynamic reinstates (i, x).
func (s *Stationary) RestoreDynamic(st DynamicState) error {
	x, ok := st.Vectors["x"]
	if !ok {
		return errors.New("solver: stationary restore needs the x vector")
	}
	s.it = st.Iteration
	s.Restart(x)
	return nil
}

var _ Checkpointable = (*Stationary)(nil)
