package solver

import (
	"errors"

	"repro/internal/precond"
	"repro/internal/vec"
)

// BiCGSTAB is the stabilized bi-conjugate gradient method (van der
// Vorst), a Krylov solver for general nonsymmetric systems. The paper
// lists extending lossy checkpointing to additional iterative methods
// as future work; BiCGSTAB is the natural next candidate (PETSc's
// KSPBCGS), and like CG it fits the scheme by restarting from the
// decompressed iterate after a lossy recovery.
type BiCGSTAB struct {
	a     Operator
	m     precond.Interface
	b     []float64
	space Space
	opts  Options

	x, r, rhat, p, v, s, t, ph, sh []float64

	rho, alpha, omega float64
	it                int
	rnorm             float64
	threshold         float64
}

// NewBiCGSTAB constructs a right-preconditioned BiCGSTAB solver for
// A·x = b with initial guess x0 (nil means zero).
func NewBiCGSTAB(a Operator, m precond.Interface, b []float64, x0 []float64, space Space, opts Options) *BiCGSTAB {
	if m == nil {
		m = precond.Identity{}
	}
	n := len(b)
	s := &BiCGSTAB{
		a:     a,
		m:     m,
		b:     append([]float64(nil), b...),
		space: space,
		opts:  opts.withDefaults(),
		x:     make([]float64, n),
		r:     make([]float64, n),
		rhat:  make([]float64, n),
		p:     make([]float64, n),
		v:     make([]float64, n),
		s:     make([]float64, n),
		t:     make([]float64, n),
		ph:    make([]float64, n),
		sh:    make([]float64, n),
	}
	s.threshold = s.opts.RTol*space.Norm2(b) + s.opts.ATol
	if x0 == nil {
		x0 = make([]float64, n)
	}
	checkDims("x0", n, len(x0))
	s.Restart(x0)
	return s
}

// Restart adopts x as a fresh initial guess: r is recomputed, the
// shadow residual r̂ is reset to r, and the recurrence scalars return
// to their initial values — the lossy recovery path.
func (s *BiCGSTAB) Restart(x []float64) {
	checkDims("restart x", len(s.b), len(x))
	adopt(s.x, x)
	s.a.MulVec(s.r, s.x)
	vec.Sub(s.r, s.b, s.r)
	copy(s.rhat, s.r)
	for i := range s.p {
		s.p[i] = 0
		s.v[i] = 0
	}
	s.rho, s.alpha, s.omega = 1, 1, 1
	s.rnorm = s.space.Norm2(s.r)
}

// Step performs one BiCGSTAB iteration (one application of A via p and
// one via s) and returns the true residual norm.
func (s *BiCGSTAB) Step() float64 {
	s.it++
	rhoNew := s.space.Dot(s.rhat, s.r)
	if rhoNew == 0 || s.omega == 0 {
		// Breakdown: restart the recurrence from the current iterate,
		// the standard remedy.
		s.Restart(s.x)
		return s.rnorm
	}
	beta := (rhoNew / s.rho) * (s.alpha / s.omega)
	s.rho = rhoNew
	for i := range s.p {
		s.p[i] = s.r[i] + beta*(s.p[i]-s.omega*s.v[i])
	}
	s.m.Apply(s.ph, s.p)
	s.a.MulVec(s.v, s.ph)
	d := s.space.Dot(s.rhat, s.v)
	if d == 0 {
		s.Restart(s.x)
		return s.rnorm
	}
	s.alpha = s.rho / d
	for i := range s.s {
		s.s[i] = s.r[i] - s.alpha*s.v[i]
	}
	// Early exit on half-step convergence.
	if sn := s.space.Norm2(s.s); sn <= s.threshold {
		vec.Axpy(s.alpha, s.ph, s.x)
		copy(s.r, s.s)
		s.rnorm = sn
		return s.rnorm
	}
	s.m.Apply(s.sh, s.s)
	s.a.MulVec(s.t, s.sh)
	tt := s.space.Dot(s.t, s.t)
	if tt == 0 {
		s.Restart(s.x)
		return s.rnorm
	}
	s.omega = s.space.Dot(s.t, s.s) / tt
	for i := range s.x {
		s.x[i] += s.alpha*s.ph[i] + s.omega*s.sh[i]
	}
	for i := range s.r {
		s.r[i] = s.s[i] - s.omega*s.t[i]
	}
	s.rnorm = s.space.Norm2(s.r)
	return s.rnorm
}

// Iteration returns the number of Steps performed since construction.
func (s *BiCGSTAB) Iteration() int { return s.it }

// Converged reports rnorm ≤ RTol·‖b‖ + ATol.
func (s *BiCGSTAB) Converged(rnorm float64) bool { return rnorm <= s.threshold }

// ResidualNorm returns the residual norm after the latest Step.
func (s *BiCGSTAB) ResidualNorm() float64 { return s.rnorm }

// X returns the live approximate solution.
func (s *BiCGSTAB) X() []float64 { return s.x }

// DynamicView exposes the full recurrence state (x, r̂, p, v and the
// scalars) — the traditional checkpoint for BiCGSTAB.
func (s *BiCGSTAB) DynamicView() DynamicState {
	return DynamicState{
		Iteration: s.it,
		Scalars:   map[string]float64{"rho": s.rho, "alpha": s.alpha, "omega": s.omega},
		Vectors:   map[string][]float64{"x": s.x, "rhat": s.rhat, "p": s.p, "v": s.v},
	}
}

// RestoreDynamic reinstates the recurrence and recomputes r = b − A·x.
func (s *BiCGSTAB) RestoreDynamic(st DynamicState) error {
	for _, name := range []string{"x", "rhat", "p", "v"} {
		if _, ok := st.Vectors[name]; !ok {
			return errors.New("solver: BiCGSTAB restore needs vector " + name)
		}
	}
	for _, name := range []string{"rho", "alpha", "omega"} {
		if _, ok := st.Scalars[name]; !ok {
			return errors.New("solver: BiCGSTAB restore needs scalar " + name)
		}
	}
	s.it = st.Iteration
	adopt(s.x, st.Vectors["x"])
	adopt(s.rhat, st.Vectors["rhat"])
	adopt(s.p, st.Vectors["p"])
	adopt(s.v, st.Vectors["v"])
	s.rho = st.Scalars["rho"]
	s.alpha = st.Scalars["alpha"]
	s.omega = st.Scalars["omega"]
	s.a.MulVec(s.r, s.x)
	vec.Sub(s.r, s.b, s.r)
	s.rnorm = s.space.Norm2(s.r)
	return nil
}

var (
	_ Stepper        = (*BiCGSTAB)(nil)
	_ Restartable    = (*BiCGSTAB)(nil)
	_ Checkpointable = (*BiCGSTAB)(nil)
)
