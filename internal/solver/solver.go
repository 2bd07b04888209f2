// Package solver implements the iterative methods evaluated by the
// paper — stationary methods (Jacobi, Gauss-Seidel, SOR, SSOR), the
// preconditioned conjugate gradient method, and restarted GMRES(k) —
// with a step-based API so that checkpoint/recovery logic can be
// interleaved with iterations exactly as in the paper's Algorithms 1
// and 2.
//
// Solvers are written against two small abstractions: Operator (apply
// the system matrix) and Space (inner products and norms), so a caller
// can wrap either — a checksummed operator (abft), a timed one (the
// benchmark harness) — without the solver knowing.
package solver

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// Operator applies a linear operator: dst ← A·x.
type Operator interface {
	MulVec(dst, x []float64)
}

// Space provides the reductions a Krylov method needs.
type Space interface {
	Dot(x, y []float64) float64
	Norm2(x []float64) float64
}

// SeqSpace is the sequential Space: plain dot products and norms.
type SeqSpace struct{}

// Dot returns x·y.
func (SeqSpace) Dot(x, y []float64) float64 { return vec.Dot(x, y) }

// Norm2 returns ‖x‖₂.
func (SeqSpace) Norm2(x []float64) float64 { return vec.Norm2(x) }

// fusedReducer is the optional fast path of a Space whose reductions
// are local, each result bitwise equal to what the separate kernels
// return: x·y and ‖x‖₂ from one pass over x, given max|x_i| (CG), and
// y ← a·x + y with the updated y·z from one pass over y (GMRES's
// Gram–Schmidt). A solver takes it when its Space has it. A Space that
// wraps another (to time or count calls) must hold it in a field, not
// embed it, or the promoted methods bypass the wrapper.
type fusedReducer interface {
	dotNorm2(x, y []float64, xmax float64) (dot, norm float64)
	axpyDot(a float64, x, y, z []float64) float64
}

func (SeqSpace) dotNorm2(x, y []float64, xmax float64) (float64, float64) {
	return vec.DotNorm2(x, y, xmax)
}

func (SeqSpace) axpyDot(a float64, x, y, z []float64) float64 {
	return vec.AxpyDot(a, x, y, z)
}

// Options control convergence testing. The zero value picks the
// paper's/PETSc's defaults. A solver stops when the (possibly
// preconditioned) residual norm drops below RTol times its
// right-hand-side norm plus aTol.
type Options struct {
	// RTol is the relative convergence tolerance. PETSc's default is
	// 1e-5.
	RTol float64
	// MaxIter caps the number of iterations (default 100000).
	MaxIter int
}

// aTol is the absolute floor on the residual norm.
const aTol = 1e-50

func (o Options) withDefaults() Options {
	if o.RTol == 0 {
		o.RTol = 1e-5
	}
	if o.MaxIter == 0 {
		o.MaxIter = 100000
	}
	return o
}

// Stepper is the iteration-level view of a solver: one Step per
// iteration, a live solution vector, and a convergence test that is
// invariant under restarts (the threshold is fixed against the
// right-hand side at construction, so recovering from a checkpoint
// does not move the goalposts).
type Stepper interface {
	// Step performs one iteration and returns the residual norm used
	// for convergence testing.
	Step() float64
	// Iteration returns the number of Steps performed since
	// construction. Restarts do not reset it.
	Iteration() int
	// Converged reports whether the given residual norm meets the
	// convergence criterion.
	Converged(rnorm float64) bool
	// ResidualNorm returns the residual norm after the most recent
	// Step (or initialization).
	ResidualNorm() float64
	// X returns the live approximate solution (owned block in
	// distributed mode). Callers must copy before mutating.
	X() []float64
}

// DynamicState is the set of dynamic variables (paper §3) that a
// traditional checkpoint must save for a given solver: the iteration
// number, solver-specific scalars (CG's ρ), and solver-specific
// vectors (x, and p for CG).
type DynamicState struct {
	Iteration int
	Scalars   map[string]float64
	Vectors   map[string][]float64
}

// Clone returns a frozen deep copy of st, for callers that keep a state
// across solver steps.
func (st DynamicState) Clone() DynamicState {
	c := DynamicState{Iteration: st.Iteration, Scalars: maps.Clone(st.Scalars), Vectors: maps.Clone(st.Vectors)}
	for k, v := range c.Vectors {
		c.Vectors[k] = slices.Clone(v)
	}
	return c
}

// Checkpointable is the contract every solver here meets and every
// checkpoint scheme and recovery tier is written against: the traditional
// scheme (Algorithm 1) saves and reinstates the dynamic variables, and
// the lossy scheme (Algorithm 2), a restart from the initial guess and
// ABFT's backward/forward recovery restart from a vector.
type Checkpointable interface {
	Stepper
	// Restart adopts x as a new initial guess mid-run: it becomes a
	// fresh starting point and all auxiliary Krylov state is rebuilt.
	// x may be the solver's own X() (a restore that decoded in place);
	// the solver then skips the copy. The iteration counter runs on.
	Restart(x []float64)
	// DynamicView returns the dynamic variables without copying them:
	// the vectors are the solver's own and change with its next Step,
	// Restart or RestoreDynamic. A checkpoint encodes them before then
	// and a restore decodes into them; Clone the view to keep it.
	DynamicView() DynamicState
	// RestoreDynamic reinstates previously captured dynamic variables
	// and recomputes the recomputed variables (paper §3), e.g. CG's
	// residual r = b − A·x. Vectors that are the solver's own (a
	// DynamicView filled in place) are adopted without a copy.
	RestoreDynamic(DynamicState) error
}

// New builds method on A·x = b. It holds the one recipe per method that
// every front end runs — cmd/repro's figures and cmd/solve alike:
//   - "cg" is conjugate gradients preconditioned by IC(0) of a;
//   - "gmres" is unpreconditioned GMRES(5): the paper's GMRES(30) ran
//     about 196 restart cycles, and at the grids a workstation solves
//     in seconds k = 30 leaves about 3, so a lossy restart costs far
//     more than the paper's (README, "Experiments and benchmarks");
//   - "jacobi", "gs", "sor" (ω = 1.5) and "ssor" (ω = 1.2) are the
//     stationary sweeps.
func New(method string, a *sparse.CSR, b []float64, opts Options) (Checkpointable, error) {
	switch method {
	case "cg":
		m, err := precond.NewIC0(a)
		if err != nil {
			return nil, err
		}
		return NewCG(a, m, b, nil, SeqSpace{}, opts), nil
	case "gmres":
		return NewGMRES(a, nil, b, nil, 5, SeqSpace{}, opts), nil
	}
	kind, ok := map[string]StationaryKind{"jacobi": KindJacobi, "gs": KindGaussSeidel, "sor": KindSOR, "ssor": KindSSOR}[method]
	if !ok {
		return nil, fmt.Errorf("solver: unknown method %q", method)
	}
	s, err := NewStationary(kind, a, b, nil, map[string]float64{"sor": 1.5, "ssor": 1.2}[method], opts)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Result summarizes a completed solve.
type Result struct {
	Converged     bool
	Iterations    int
	FinalResidual float64 // absolute residual norm at exit
}

// RunToConvergence drives a Stepper until convergence or the iteration
// cap. The optional callback runs after every iteration (checkpoint
// hooks, failure injection, residual recording); returning an error
// aborts the solve.
func RunToConvergence(s Stepper, opts Options, cb func(it int, rnorm float64) error) (*Result, error) {
	opts = opts.withDefaults()
	res := &Result{}
	rnorm := s.ResidualNorm()
	if s.Converged(rnorm) {
		res.Converged = true
		res.FinalResidual = rnorm
		return res, nil
	}
	for n := 0; n < opts.MaxIter; n++ {
		rnorm = s.Step()
		if cb != nil {
			if err := cb(s.Iteration(), rnorm); err != nil {
				return res, err
			}
		}
		if s.Converged(rnorm) {
			res.Converged = true
			break
		}
	}
	res.Iterations = s.Iteration()
	res.FinalResidual = rnorm
	return res, nil
}

// adopt copies src into the solver's vector dst, unless src already is
// dst — a restore that decoded in place.
func adopt(dst, src []float64) {
	if len(src) > 0 && &dst[0] != &src[0] {
		copy(dst, src)
	}
}

// checkDims panics with a helpful message when a solver is constructed
// with inconsistent vector lengths.
func checkDims(what string, n int, got int) {
	if n != got {
		panic(fmt.Sprintf("solver: %s length %d does not match system size %d", what, got, n))
	}
}
