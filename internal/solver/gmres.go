package solver

import (
	"errors"
	"math"

	"repro/internal/precond"
	"repro/internal/vec"
)

// GMRES is the restarted generalized minimal residual method
// GMRES(k) of Saad and Schultz with left preconditioning, modified
// Gram–Schmidt orthogonalization, and Givens rotations for the
// incremental least-squares solve. The paper runs GMRES(30), PETSc's
// recommended restart length.
//
// Because the method is restarted anyway, its only dynamic variable in
// both checkpointing schemes is the current approximate solution x:
// recovery materializes x and begins a fresh Krylov cycle.
type GMRES struct {
	a     Operator
	m     precond.Interface
	b     []float64
	space Space
	fused fusedReducer // space's one-pass kernels, nil if it has none
	opts  Options
	k     int

	x []float64
	v [][]float64 // k+1 basis vectors
	h [][]float64 // (k+1)×k Hessenberg
	g []float64   // least-squares RHS, length k+1
	c []float64   // Givens cosines
	s []float64   // Givens sines
	j int         // inner index within the current cycle

	w         []float64 // scratch
	t         []float64 // scratch
	y         []float64 // least-squares solution scratch, length k
	it        int
	rnorm     float64
	threshold float64
}

// NewGMRES constructs GMRES(k) for A·x = b with left preconditioner m
// and initial guess x0 (nil means zero). Convergence is tested on the
// preconditioned residual norm against RTol·‖M⁻¹b‖ + ATol, PETSc's
// default left-preconditioned criterion.
func NewGMRES(a Operator, m precond.Interface, b []float64, x0 []float64, k int, space Space, opts Options) *GMRES {
	if k <= 0 {
		k = 30
	}
	if m == nil {
		m = precond.Identity{}
	}
	n := len(b)
	s := &GMRES{
		a:     a,
		m:     m,
		b:     append([]float64(nil), b...),
		space: space,
		opts:  opts.withDefaults(),
		k:     k,
		x:     make([]float64, n),
		g:     make([]float64, k+1),
		c:     make([]float64, k),
		s:     make([]float64, k),
		w:     make([]float64, n),
		t:     make([]float64, n),
		y:     make([]float64, k),
	}
	s.fused, _ = space.(fusedReducer)
	s.v = make([][]float64, k+1)
	for i := range s.v {
		s.v[i] = make([]float64, n)
	}
	s.h = make([][]float64, k+1)
	for i := range s.h {
		s.h[i] = make([]float64, k)
	}
	// Reference norm: ‖M⁻¹·b‖.
	s.m.Apply(s.w, s.b)
	s.threshold = s.opts.RTol*space.Norm2(s.w) + s.opts.ATol
	if x0 == nil {
		x0 = make([]float64, n)
	}
	checkDims("x0", n, len(x0))
	s.Restart(x0)
	return s
}

// Restart adopts x as the new initial guess and begins a fresh Krylov
// cycle; the iteration counter and threshold are preserved.
func (s *GMRES) Restart(x []float64) {
	checkDims("restart x", len(s.b), len(x))
	adopt(s.x, x)
	s.beginCycle()
}

// beginCycle computes the preconditioned residual and seeds the Arnoldi
// basis.
func (s *GMRES) beginCycle() {
	s.a.MulVec(s.t, s.x)
	vec.Sub(s.t, s.b, s.t)
	s.m.Apply(s.w, s.t)
	beta := s.space.Norm2(s.w)
	s.rnorm = beta
	s.j = 0
	for i := range s.g {
		s.g[i] = 0
	}
	s.g[0] = beta
	if beta > 0 {
		vec.ScaleTo(s.v[0], 1/beta, s.w)
	} else {
		vec.Zero(s.v[0])
	}
}

// Step performs one Arnoldi iteration and returns the preconditioned
// residual-norm estimate |g[j+1]|. When the cycle fills (j = k) or the
// estimate converges, the iterate is materialized and, if not yet
// converged, a new cycle begins.
func (s *GMRES) Step() float64 {
	j := s.j
	// w ← M⁻¹·A·v_j
	s.a.MulVec(s.t, s.v[j])
	s.m.Apply(s.w, s.t)
	// Modified Gram–Schmidt: h_ij = w·v_i, w ← w − h_ij·v_i for i = 0…j.
	// A local Space runs each projection and the next inner product as
	// one pass over w, with the bits the two separate kernels produce.
	w, v := s.w, s.v
	hij := s.space.Dot(w, v[0])
	for i := 0; i < j; i++ {
		s.h[i][j] = hij
		if s.fused != nil {
			hij = s.fused.axpyDot(-hij, v[i], w, v[i+1])
		} else {
			vec.Axpy(-hij, v[i], w)
			hij = s.space.Dot(w, v[i+1])
		}
	}
	s.h[j][j] = hij
	vec.Axpy(-hij, v[j], w)
	hj1 := s.space.Norm2(s.w)
	s.h[j+1][j] = hj1
	if hj1 > 0 {
		vec.ScaleTo(s.v[j+1], 1/hj1, s.w)
	} else {
		// Happy breakdown: the Krylov space is invariant; the
		// least-squares solve below yields the exact solution.
		vec.Zero(s.v[j+1])
	}
	// Apply accumulated Givens rotations to the new column.
	for i := 0; i < j; i++ {
		h1, h2 := s.h[i][j], s.h[i+1][j]
		s.h[i][j] = s.c[i]*h1 + s.s[i]*h2
		s.h[i+1][j] = -s.s[i]*h1 + s.c[i]*h2
	}
	// New rotation annihilating h[j+1][j].
	h1, h2 := s.h[j][j], s.h[j+1][j]
	r := math.Hypot(h1, h2)
	if r == 0 {
		s.c[j], s.s[j] = 1, 0
	} else {
		s.c[j], s.s[j] = h1/r, h2/r
	}
	s.h[j][j] = r
	s.h[j+1][j] = 0
	gj := s.g[j]
	s.g[j] = s.c[j] * gj
	s.g[j+1] = -s.s[j] * gj

	s.j++
	s.it++
	s.rnorm = math.Abs(s.g[s.j])

	if s.Converged(s.rnorm) || s.j == s.k {
		s.materialize()
		if !s.Converged(s.rnorm) {
			s.beginCycle()
		}
	}
	return s.rnorm
}

// addCorrection solves the j×j triangular system of the cycle so far
// and adds the Krylov correction Σ y_i·v_i into dst.
func (s *GMRES) addCorrection(dst []float64) {
	y := s.y[:s.j]
	for i := len(y) - 1; i >= 0; i-- {
		sum := s.g[i]
		for l := i + 1; l < len(y); l++ {
			sum -= s.h[i][l] * y[l]
		}
		y[i] = 0
		if s.h[i][i] != 0 {
			y[i] = sum / s.h[i][i]
		}
	}
	for i, yi := range y {
		if yi != 0 {
			vec.Axpy(yi, s.v[i], dst)
		}
	}
}

// materialize folds the cycle's correction into x and ends the cycle.
func (s *GMRES) materialize() {
	s.addCorrection(s.x)
	s.j = 0
	s.g[0] = 0 // mark the cycle consumed; beginCycle recomputes
}

// CurrentX materializes the current approximate solution into a fresh
// slice without disturbing the in-progress cycle. It is what a
// mid-cycle checkpoint saves.
func (s *GMRES) CurrentX() []float64 { return s.CurrentXInto(nil) }

// CurrentXInto is CurrentX writing into dst's backing array when its
// capacity suffices, so a caller that checkpoints repeatedly
// materializes into one buffer it owns and allocates nothing.
func (s *GMRES) CurrentXInto(dst []float64) []float64 {
	dst = append(dst[:0], s.x...)
	s.addCorrection(dst)
	return dst
}

// Iteration returns the number of inner iterations since construction.
func (s *GMRES) Iteration() int { return s.it }

// Converged reports rnorm ≤ RTol·‖M⁻¹b‖ + ATol.
func (s *GMRES) Converged(rnorm float64) bool { return rnorm <= s.threshold }

// ResidualNorm returns the current preconditioned residual estimate.
func (s *GMRES) ResidualNorm() float64 { return s.rnorm }

// X returns the solution materialized at the last cycle boundary. Use
// CurrentX for the up-to-the-iteration value.
func (s *GMRES) X() []float64 { return s.x }

// RestartLength returns k.
func (s *GMRES) RestartLength() int { return s.k }

// DynamicView exposes (i, x) — for a restarted method the approximate
// solution is the only dynamic variable. As with X(), x is the iterate
// of the last cycle boundary: a restore lands there, and a mid-cycle
// checkpoint saves CurrentXInto's materialization in its place.
func (s *GMRES) DynamicView() DynamicState {
	return DynamicState{Iteration: s.it, Vectors: map[string][]float64{"x": s.x}}
}

// RestoreDynamic re-seeds the solver from the saved iterate.
func (s *GMRES) RestoreDynamic(st DynamicState) error {
	x, ok := st.Vectors["x"]
	if !ok {
		return errors.New("solver: GMRES restore needs the x vector")
	}
	s.it = st.Iteration
	s.Restart(x)
	return nil
}

var (
	_ Stepper        = (*GMRES)(nil)
	_ Restartable    = (*GMRES)(nil)
	_ Checkpointable = (*GMRES)(nil)
)
