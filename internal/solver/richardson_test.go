package solver

import (
	"errors"

	"repro/internal/precond"
	"repro/internal/vec"
)

// Richardson is the operator-form stationary iteration
// x ← x + ω·M⁻¹·(b − A·x). With M = diag(A) and ω = 1 it is exactly
// the Jacobi method (on a SeqSpace, bit for bit what
// Stationary{KindJacobi} computes), but expressed through
// Operator/Space, so it runs on any wrapped operator and is the oracle
// the fused Jacobi sweep is tested against.
type Richardson struct {
	a     Operator
	m     precond.Interface
	b     []float64
	space Space
	omega float64
	opts  Options

	x, r, z   []float64
	it        int
	rnorm     float64
	threshold float64
}

// NewRichardson constructs the preconditioned Richardson iteration.
// m = nil means the identity; omega ≤ 0 defaults to 1.
func NewRichardson(a Operator, m precond.Interface, b []float64, x0 []float64, omega float64, space Space, opts Options) *Richardson {
	if m == nil {
		m = precond.Identity{}
	}
	if omega <= 0 {
		omega = 1
	}
	n := len(b)
	s := &Richardson{
		a:     a,
		m:     m,
		b:     append([]float64(nil), b...),
		space: space,
		omega: omega,
		opts:  opts.withDefaults(),
		x:     make([]float64, n),
		r:     make([]float64, n),
		z:     make([]float64, n),
	}
	s.threshold = s.opts.RTol*space.Norm2(b) + aTol
	if x0 == nil {
		x0 = make([]float64, n)
	}
	checkDims("x0", n, len(x0))
	s.Restart(x0)
	return s
}

// Restart adopts x as the current iterate.
func (s *Richardson) Restart(x []float64) {
	checkDims("restart x", len(s.b), len(x))
	adopt(s.x, x)
	s.refreshResidual()
}

func (s *Richardson) refreshResidual() {
	s.a.MulVec(s.r, s.x)
	vec.Sub(s.r, s.b, s.r)
	s.rnorm = s.space.Norm2(s.r)
}

// Step performs x ← x + ω·M⁻¹·r and returns the new residual norm.
func (s *Richardson) Step() float64 {
	s.m.Apply(s.z, s.r)
	vec.Axpy(s.omega, s.z, s.x)
	s.it++
	s.refreshResidual()
	return s.rnorm
}

// Iteration returns the number of sweeps since construction.
func (s *Richardson) Iteration() int { return s.it }

// Converged reports rnorm ≤ RTol·‖b‖ + aTol.
func (s *Richardson) Converged(rnorm float64) bool { return rnorm <= s.threshold }

// ResidualNorm returns the residual norm after the latest Step.
func (s *Richardson) ResidualNorm() float64 { return s.rnorm }

// X returns the live iterate.
func (s *Richardson) X() []float64 { return s.x }

// DynamicView exposes (i, x).
func (s *Richardson) DynamicView() DynamicState {
	return DynamicState{Iteration: s.it, Vectors: map[string][]float64{"x": s.x}}
}

// RestoreDynamic reinstates (i, x).
func (s *Richardson) RestoreDynamic(st DynamicState) error {
	x, ok := st.Vectors["x"]
	if !ok {
		return errors.New("solver: Richardson restore needs the x vector")
	}
	s.it = st.Iteration
	s.Restart(x)
	return nil
}

var _ Checkpointable = (*Richardson)(nil)
