package solver

import (
	"errors"

	"repro/internal/precond"
	"repro/internal/vec"
)

// CG is the preconditioned conjugate gradient method (paper
// Algorithm 1) in step form. The dynamic variables of the traditional
// checkpointing scheme are (i, ρ, p, x); the residual r is a
// recomputed variable, rebuilt as r = b − A·x during recovery.
type CG struct {
	a     Operator
	m     precond.Interface
	b     []float64
	space Space
	fused fusedReducer // space's one-pass reductions, nil if it has none
	opts  Options

	x, r, z, p, q []float64
	rho           float64
	it            int
	rnorm         float64
	threshold     float64
}

// NewCG constructs a CG solver for A·x = b with preconditioner m and
// initial guess x0 (nil means zero). The convergence threshold is
// RTol·‖b‖ + aTol, fixed for the lifetime of the solver.
func NewCG(a Operator, m precond.Interface, b []float64, x0 []float64, space Space, opts Options) *CG {
	if m == nil {
		m = precond.Identity{}
	}
	n := len(b)
	s := &CG{
		a:     a,
		m:     m,
		b:     append([]float64(nil), b...),
		space: space,
		opts:  opts.withDefaults(),
		x:     make([]float64, n),
		r:     make([]float64, n),
		z:     make([]float64, n),
		p:     make([]float64, n),
		q:     make([]float64, n),
	}
	s.fused, _ = space.(fusedReducer)
	normb := space.Norm2(b)
	s.threshold = s.opts.RTol*normb + aTol
	if x0 == nil {
		x0 = make([]float64, n)
	}
	checkDims("x0", n, len(x0))
	s.Restart(x0)
	return s
}

// Restart adopts x as a new initial guess and rebuilds r, p = M⁻¹·r
// and ρ = r·p — the lossy recovery path (Algorithm 2 lines 8–13). z is
// not rebuilt: Step writes it before reading it, so the preconditioner
// applies straight into p. The iteration counter and the convergence
// threshold are preserved.
func (s *CG) Restart(x []float64) {
	checkDims("restart x", len(s.b), len(x))
	adopt(s.x, x)
	s.a.MulVec(s.r, s.x) // r ← A·x
	vec.Sub(s.r, s.b, s.r)
	s.m.Apply(s.p, s.r)
	s.rho = s.space.Dot(s.r, s.p)
	s.rnorm = s.space.Norm2(s.r)
}

// Step performs one CG iteration (paper Algorithm 1 lines 10–17) and
// returns the true residual norm ‖b − A·x‖.
func (s *CG) Step() float64 {
	s.a.MulVec(s.q, s.p)
	pq := s.space.Dot(s.p, s.q)
	s.it++
	if pq == 0 {
		// Breakdown: direction has zero curvature (already converged
		// or the matrix is not SPD). Leave the state unchanged.
		return s.rnorm
	}
	alpha := s.rho / pq
	// The update tracks max|r_i| as it goes, which is what lets a
	// local Space take ρ = r·z and ‖r‖ from one pass over r, with the
	// bits the two reductions would return.
	rmax := vec.AxpyPairNormInf(alpha, s.x, s.p, s.r, s.q)
	s.m.Apply(s.z, s.r)
	var rhoNew float64
	if s.fused != nil {
		rhoNew, s.rnorm = s.fused.dotNorm2(s.r, s.z, rmax)
	} else {
		rhoNew = s.space.Dot(s.r, s.z)
		s.rnorm = s.space.Norm2(s.r)
	}
	beta := rhoNew / s.rho
	s.rho = rhoNew
	vec.Aypx(beta, s.z, s.p) // p ← z + β·p
	return s.rnorm
}

// Iteration returns the number of Steps performed since construction.
func (s *CG) Iteration() int { return s.it }

// Converged reports rnorm ≤ RTol·‖b‖ + aTol.
func (s *CG) Converged(rnorm float64) bool { return rnorm <= s.threshold }

// ResidualNorm returns the residual norm after the latest Step.
func (s *CG) ResidualNorm() float64 { return s.rnorm }

// X returns the live approximate solution vector.
func (s *CG) X() []float64 { return s.x }

// Preconditioner returns M, as the solver was built with it.
func (s *CG) Preconditioner() precond.Interface { return s.m }

// Rho returns the current ρ scalar (a dynamic variable).
func (s *CG) Rho() float64 { return s.rho }

// R returns the live residual vector. Callers must copy before
// mutating — the exact-state ABFT guard retains a redundant copy of it
// every iteration (Pachajoa/Levonyak's node-level redundancy).
func (s *CG) R() []float64 { return s.r }

// P returns the live search direction (a dynamic variable).
func (s *CG) P() []float64 { return s.p }

// DynamicView exposes (i, ρ, p, x) — the traditional checkpoint of
// Algorithm 1 line 4.
func (s *CG) DynamicView() DynamicState {
	return DynamicState{
		Iteration: s.it,
		Scalars:   map[string]float64{"rho": s.rho},
		Vectors:   map[string][]float64{"x": s.x, "p": s.p},
	}
}

// RestoreDynamic reinstates (i, ρ, p, x) and recomputes r = b − A·x,
// the one recomputed variable the next Step reads. z = M⁻¹·r is not
// recomputed: Step overwrites z before anything reads it, so applying
// the preconditioner here would be work no iterate depends on.
func (s *CG) RestoreDynamic(st DynamicState) error {
	x, okX := st.Vectors["x"]
	p, okP := st.Vectors["p"]
	rho, okR := st.Scalars["rho"]
	if !okX || !okP || !okR {
		return errors.New("solver: CG restore needs x, p vectors and rho scalar")
	}
	checkDims("restored x", len(s.b), len(x))
	checkDims("restored p", len(s.b), len(p))
	s.it = st.Iteration
	adopt(s.x, x)
	adopt(s.p, p)
	s.rho = rho
	s.a.MulVec(s.r, s.x)
	vec.Sub(s.r, s.b, s.r)
	s.rnorm = s.space.Norm2(s.r)
	return nil
}

var _ Checkpointable = (*CG)(nil)
