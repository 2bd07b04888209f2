package solver

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	_ "unsafe" // go:linkname

	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// solveAndCheck runs s to convergence and asserts the final iterate is
// close to xExact in the relative 2-norm.
func solveAndCheck(t *testing.T, s Stepper, xExact []float64, tol float64) *Result {
	t.Helper()
	res, err := RunToConvergence(s, Options{MaxIter: 50000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge in %d iterations (rnorm %g)", res.Iterations, res.FinalResidual)
	}
	diff := make([]float64, len(xExact))
	vec.Sub(diff, s.X(), xExact)
	rel := vec.Norm2(diff) / vec.Norm2(xExact)
	if rel > tol {
		t.Fatalf("solution error %g exceeds %g after %d its", rel, tol, res.Iterations)
	}
	return res
}

func poissonSystem(t *testing.T, n int) (*sparse.CSR, []float64, []float64) {
	t.Helper()
	a := sparse.Poisson2D(n)
	xe := sparse.SmoothField(a.Rows, 7)
	b := sparse.RHSForSolution(a, xe)
	return a, b, xe
}

func TestCGSolvesPoisson(t *testing.T) {
	a, b, xe := poissonSystem(t, 10)
	s := NewCG(a, nil, b, nil, SeqSpace{}, Options{RTol: 1e-10})
	res := solveAndCheck(t, s, xe, 1e-7)
	if res.Iterations > a.Rows {
		t.Fatalf("CG took %d iterations on %d unknowns", res.Iterations, a.Rows)
	}
}

func TestCGWithJacobiPreconditioner(t *testing.T) {
	a, b, xe := poissonSystem(t, 10)
	m := precond.NewJacobiFromMatrix(a)
	s := NewCG(a, m, b, nil, SeqSpace{}, Options{RTol: 1e-10})
	solveAndCheck(t, s, xe, 1e-7)
}

func TestCGWithBlockILU0ConvergesFaster(t *testing.T) {
	a, b, _ := poissonSystem(t, 16)
	plain := NewCG(a, nil, b, nil, SeqSpace{}, Options{RTol: 1e-8})
	resPlain, _ := RunToConvergence(plain, Options{MaxIter: 5000}, nil)
	m, err := precond.NewBlockILU0(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc := NewCG(a, m, b, nil, SeqSpace{}, Options{RTol: 1e-8})
	resPC, _ := RunToConvergence(pc, Options{MaxIter: 5000}, nil)
	if !resPlain.Converged || !resPC.Converged {
		t.Fatal("both solves must converge")
	}
	if resPC.Iterations >= resPlain.Iterations {
		t.Fatalf("ILU(0) should accelerate CG: %d vs %d iterations",
			resPC.Iterations, resPlain.Iterations)
	}
}

func TestCGWithIC0(t *testing.T) {
	a, b, xe := poissonSystem(t, 12)
	m, err := precond.NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	s := NewCG(a, m, b, nil, SeqSpace{}, Options{RTol: 1e-10})
	solveAndCheck(t, s, xe, 1e-7)
}

func TestCGNonzeroInitialGuess(t *testing.T) {
	a, b, xe := poissonSystem(t, 8)
	x0 := make([]float64, a.Rows)
	for i := range x0 {
		x0[i] = 0.5
	}
	s := NewCG(a, nil, b, x0, SeqSpace{}, Options{RTol: 1e-10})
	solveAndCheck(t, s, xe, 1e-7)
}

func TestCGImmediateConvergenceOnExactGuess(t *testing.T) {
	a, b, xe := poissonSystem(t, 6)
	s := NewCG(a, nil, b, xe, SeqSpace{}, Options{RTol: 1e-8})
	if !s.Converged(s.ResidualNorm()) {
		t.Fatalf("exact guess should already satisfy the test; rnorm = %g", s.ResidualNorm())
	}
}

func TestCGRestartPreservesIterationCount(t *testing.T) {
	a, b, _ := poissonSystem(t, 8)
	s := NewCG(a, nil, b, nil, SeqSpace{}, Options{})
	for i := 0; i < 5; i++ {
		s.Step()
	}
	x := append([]float64(nil), s.X()...)
	s.Restart(x)
	if s.Iteration() != 5 {
		t.Fatalf("Restart reset the iteration counter: %d", s.Iteration())
	}
}

func TestCGCaptureRestoreRoundTrip(t *testing.T) {
	// Traditional checkpointing (Algorithm 1): capturing (i, ρ, p, x)
	// and restoring must continue bit-identically.
	a, b, _ := poissonSystem(t, 8)
	s1 := NewCG(a, nil, b, nil, SeqSpace{}, Options{RTol: 1e-12})
	for i := 0; i < 10; i++ {
		s1.Step()
	}
	st := s1.DynamicView().Clone()
	// Run s1 forward 10 more steps.
	var want []float64
	for i := 0; i < 10; i++ {
		s1.Step()
	}
	want = append(want, s1.X()...)

	// A second solver restored from the checkpoint must reproduce the
	// same trajectory.
	s2 := NewCG(a, nil, b, nil, SeqSpace{}, Options{RTol: 1e-12})
	if err := s2.RestoreDynamic(st); err != nil {
		t.Fatal(err)
	}
	if s2.Iteration() != 10 {
		t.Fatalf("restored iteration = %d, want 10", s2.Iteration())
	}
	for i := 0; i < 10; i++ {
		s2.Step()
	}
	// Recovery recomputes r = b − A·x (a "recomputed variable", paper
	// §3), which differs from the incrementally updated residual in
	// the last bits, so the trajectories agree to rounding — not
	// bitwise.
	if d := vec.MaxAbsDiff(want, s2.X()); d > 1e-12*vec.NormInf(want) {
		t.Fatalf("restored trajectory diverged by %g", d)
	}
}

// countingPrecond counts the preconditioner applications it forwards.
type countingPrecond struct {
	inner precond.Interface
	calls int
}

func (c *countingPrecond) Apply(dst, r []float64) { c.calls++; c.inner.Apply(dst, r) }

// TestCGRecoveryAppliesOnlyWhatTheNextStepReads pins the work each CG
// recovery does with the preconditioner: an exact restore applies it
// not at all (Step writes z = M⁻¹·r before reading it), a restart once
// (p = M⁻¹·r). It then checks that z really is dead: a solver whose z
// holds NaN, restored from a state captured where the uninterrupted
// solve's r is b − A·x bit for bit (right after a restart), steps on
// with the same bits in x, r, p, ρ and the residual norm.
func TestCGRecoveryAppliesOnlyWhatTheNextStepReads(t *testing.T) {
	a, ic0, b := ic0System(t, 12)
	opts := Options{RTol: 1e-14}
	m := &countingPrecond{inner: ic0}
	s := NewCG(a, m, b, nil, SeqSpace{}, opts)
	for i := 0; i < 5; i++ {
		s.Step()
	}
	for _, tc := range []struct {
		name    string
		recover func() error
		applies int
	}{
		{"RestoreDynamic", func() error { return s.RestoreDynamic(s.DynamicView().Clone()) }, 0},
		{"Restart", func() error { s.Restart(append([]float64(nil), s.X()...)); return nil }, 1},
	} {
		m.calls = 0
		if err := tc.recover(); err != nil {
			t.Fatal(err)
		}
		if m.calls != tc.applies {
			t.Errorf("%s applied M⁻¹ %d times, want %d", tc.name, m.calls, tc.applies)
		}
	}

	ref := NewCG(a, ic0, b, nil, SeqSpace{}, opts)
	for i := 0; i < 6; i++ {
		ref.Step()
	}
	ref.Restart(append([]float64(nil), ref.X()...))
	saved := ref.DynamicView().Clone()
	restored := NewCG(a, ic0, b, nil, SeqSpace{}, opts)
	for i := range restored.z {
		restored.z[i] = math.NaN()
	}
	if err := restored.RestoreDynamic(saved); err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 10; step++ {
		requireSameBits(t, step, "Step()", []float64{ref.Step()}, []float64{restored.Step()})
		requireSameBits(t, step, "rnorm", []float64{ref.ResidualNorm()}, []float64{restored.ResidualNorm()})
		requireSameBits(t, step, "rho", []float64{ref.Rho()}, []float64{restored.Rho()})
		requireSameBits(t, step, "x", ref.X(), restored.X())
		requireSameBits(t, step, "r", ref.R(), restored.R())
		requireSameBits(t, step, "p", ref.P(), restored.P())
	}
}

func TestCGRestoreRejectsMissingFields(t *testing.T) {
	a, b, _ := poissonSystem(t, 4)
	s := NewCG(a, nil, b, nil, SeqSpace{}, Options{})
	if err := s.RestoreDynamic(DynamicState{}); err == nil {
		t.Fatal("expected error for empty state")
	}
}

func TestGMRESSolvesPoisson(t *testing.T) {
	a, b, xe := poissonSystem(t, 10)
	s := NewGMRES(a, nil, b, nil, 30, SeqSpace{}, Options{RTol: 1e-10})
	solveAndCheck(t, s, xe, 1e-6)
}

func TestGMRESSolvesNonsymmetric(t *testing.T) {
	// Convection-diffusion-like: Poisson plus a skew part.
	base := sparse.Poisson2D(8)
	bld := sparse.NewBuilder(base.Rows, base.Cols)
	for i := 0; i < base.Rows; i++ {
		for k := base.RowPtr[i]; k < base.RowPtr[i+1]; k++ {
			bld.Add(i, base.ColIdx[k], base.Val[k])
		}
		if i+1 < base.Rows {
			bld.Add(i, i+1, 0.3) // asymmetric coupling
		}
	}
	a := bld.Build()
	if at := a.Transpose(); slices.Equal(at.RowPtr, a.RowPtr) && slices.Equal(at.ColIdx, a.ColIdx) && slices.Equal(at.Val, a.Val) {
		t.Fatal("test matrix should be nonsymmetric")
	}
	xe := sparse.SmoothField(a.Rows, 3)
	b := sparse.RHSForSolution(a, xe)
	s := NewGMRES(a, nil, b, nil, 30, SeqSpace{}, Options{RTol: 1e-12})
	solveAndCheck(t, s, xe, 1e-6)
}

func TestGMRESSolvesKKTWithJacobi(t *testing.T) {
	// The Fig. 3 configuration: GMRES + Jacobi preconditioner on a
	// symmetric indefinite KKT system. The zero-diagonal guard in the
	// Jacobi preconditioner is what makes this work at all.
	a := sparse.KKT(6, 18, 5)
	xe := sparse.SmoothField(a.Rows, 9)
	b := sparse.RHSForSolution(a, xe)
	d := make([]float64, a.Rows)
	a.Diag(d)
	m := precond.NewJacobi(d)
	s := NewGMRES(a, m, b, nil, 30, SeqSpace{}, Options{RTol: 1e-12})
	res, err := RunToConvergence(s, Options{MaxIter: 20000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("GMRES did not converge on KKT: rnorm %g after %d its",
			res.FinalResidual, res.Iterations)
	}
	r := make([]float64, a.Rows)
	a.MulVecSub(r, b, s.X())
	if rel := vec.Norm2(r) / vec.Norm2(b); rel > 1e-8 {
		t.Fatalf("true relative residual %g too large", rel)
	}
}

func TestGMRESRestartLengthMatters(t *testing.T) {
	// Tiny restart length must still converge (slower) on SPD systems.
	a, b, xe := poissonSystem(t, 8)
	short := NewGMRES(a, nil, b, nil, 5, SeqSpace{}, Options{RTol: 1e-9})
	long := NewGMRES(a, nil, b, nil, 60, SeqSpace{}, Options{RTol: 1e-9})
	resShort := solveAndCheck(t, short, xe, 1e-5)
	resLong := solveAndCheck(t, long, xe, 1e-5)
	if resShort.Iterations < resLong.Iterations {
		t.Fatalf("GMRES(5) should not beat GMRES(60): %d vs %d",
			resShort.Iterations, resLong.Iterations)
	}
}

func TestGMRESCurrentXMidCycle(t *testing.T) {
	a, b, _ := poissonSystem(t, 8)
	s := NewGMRES(a, nil, b, nil, 30, SeqSpace{}, Options{RTol: 1e-10})
	for i := 0; i < 7; i++ { // mid-cycle
		s.Step()
	}
	x := s.CurrentX()
	// The materialized iterate must have residual close to the
	// estimate tracked by the Givens recurrence (identical up to
	// rounding for left preconditioning with identity M).
	r := make([]float64, a.Rows)
	a.MulVecSub(r, b, x)
	got := vec.Norm2(r)
	want := s.ResidualNorm()
	if math.Abs(got-want) > 1e-8*(1+want) {
		t.Fatalf("CurrentX residual %g vs tracked estimate %g", got, want)
	}
	// And CurrentX must not perturb the solver.
	before := s.ResidualNorm()
	_ = s.CurrentX()
	if s.ResidualNorm() != before {
		t.Fatal("CurrentX mutated solver state")
	}
}

func TestGMRESRestartFromOwnIterateDoesNotDiverge(t *testing.T) {
	a, b, _ := poissonSystem(t, 8)
	s := NewGMRES(a, nil, b, nil, 10, SeqSpace{}, Options{RTol: 1e-10})
	for i := 0; i < 12; i++ {
		s.Step()
	}
	rBefore := s.ResidualNorm()
	s.Restart(s.CurrentX())
	if s.ResidualNorm() > rBefore*1.0001 {
		t.Fatalf("restart from own iterate increased residual: %g -> %g",
			rBefore, s.ResidualNorm())
	}
}

func TestStationaryKinds(t *testing.T) {
	a := sparse.Poisson2D(6)
	xe := sparse.SmoothField(a.Rows, 5)
	b := sparse.RHSForSolution(a, xe)
	cases := []struct {
		kind  StationaryKind
		omega float64
	}{
		{KindJacobi, 0},
		{KindGaussSeidel, 0},
		{KindSOR, 1.5},
		{KindSSOR, 1.2},
	}
	iters := map[StationaryKind]int{}
	for _, c := range cases {
		s, err := NewStationary(c.kind, a, b, nil, c.omega, Options{RTol: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		res := solveAndCheck(t, s, xe, 1e-4)
		iters[c.kind] = res.Iterations
	}
	if iters[KindGaussSeidel] >= iters[KindJacobi] {
		t.Fatalf("Gauss-Seidel (%d its) should beat Jacobi (%d its)",
			iters[KindGaussSeidel], iters[KindJacobi])
	}
	if iters[KindSOR] >= iters[KindGaussSeidel] {
		t.Fatalf("SOR(1.5) (%d its) should beat Gauss-Seidel (%d its)",
			iters[KindSOR], iters[KindGaussSeidel])
	}
}

func TestStationaryValidation(t *testing.T) {
	a := tridiag(3, -1, 2, -1)
	b := []float64{1, 1, 1}
	if _, err := NewStationary(KindSOR, a, b, nil, 2.5, Options{}); err == nil {
		t.Fatal("expected error for omega outside (0,2)")
	}
	if _, err := NewStationary(KindJacobi, a, []float64{1}, nil, 0, Options{}); err == nil {
		t.Fatal("expected error for b length mismatch")
	}
	zd := sparse.NewBuilder(2, 2)
	zd.Add(0, 1, 1)
	zd.Add(1, 0, 1)
	if _, err := NewStationary(KindJacobi, zd.Build(), []float64{1, 1}, nil, 0, Options{}); err == nil {
		t.Fatal("expected error for zero diagonal")
	}
	// A non-finite diagonal is as unusable as a zero one: it turns every
	// update of its row into NaN or 0 without any error.
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := tridiag(3, -1, 2, -1)
		bad.Val[bad.RowPtr[1]+1] = d // row 1's diagonal
		for _, kind := range []StationaryKind{KindJacobi, KindSOR} {
			_, err := NewStationary(kind, bad, b, nil, 1.2, Options{})
			if err == nil || !strings.Contains(err.Error(), "row 1") {
				t.Fatalf("%v with diagonal %v in row 1: error %v, want one naming row 1", kind, d, err)
			}
		}
	}
}

// vecUseAVX2 is internal/vec's dispatch flag, bound by name (vec
// exports no switch), so one machine runs a solve on both of vec's
// paths.
//
//go:linkname vecUseAVX2 repro/internal/vec.useAVX2
var vecUseAVX2 bool

// TestRichardsonEqualsJacobi: Richardson with M = diag(A), ω = 1 and
// Stationary{KindJacobi} are the same iteration x ← x + D⁻¹·(b − A·x):
// the iterates and the residual history agree to the bit, on a square,
// a cube with Rows mod 4 = 1, 1-D lines of every Rows mod 4 and a
// summary-free copy of a cube, on vec's assembly and on its Go loops,
// from a smooth solution and from zero and subnormal right-hand sides
// (Norm2's zero and subnormal scales).
func TestRichardsonEqualsJacobi(t *testing.T) {
	cube := sparse.Poisson3D(9)
	shapes := map[string]*sparse.CSR{
		"Poisson2D(5)":             sparse.Poisson2D(5),
		"Poisson3D(9)":             cube,
		"Poisson3D(9), no summary": {Rows: cube.Rows, Cols: cube.Cols, RowPtr: cube.RowPtr, ColIdx: cube.ColIdx, Val: cube.Val},
	}
	for _, n := range []int{6, 7, 8, 29} {
		shapes[fmt.Sprintf("Poisson3DAniso(%d,1,1)", n)] = sparse.Poisson3DAniso(n, 1, 1)
	}
	have := vecUseAVX2
	defer func() { vecUseAVX2 = have }()
	for name, a := range shapes {
		smooth := sparse.RHSForSolution(a, sparse.SmoothField(a.Rows, 1))
		tiny := slices.Clone(smooth)
		for i := range tiny {
			tiny[i] *= 1e-310
		}
		for rhs, b := range map[string][]float64{"smooth": smooth, "zero": make([]float64, a.Rows), "subnormal": tiny} {
			for _, asm := range []bool{false, have} {
				vecUseAVX2 = asm
				j, err := NewStationary(KindJacobi, a, b, nil, 0, Options{RTol: 1e-8})
				if err != nil {
					t.Fatal(err)
				}
				r := NewRichardson(a, precond.NewJacobiFromMatrix(a), b, nil, 1, SeqSpace{}, Options{RTol: 1e-8})
				what := fmt.Sprintf("%s, %s b, asm %v: ", name, rhs, asm)
				for i := 0; i < 30; i++ {
					requireSameBits(t, i, what+"residual (Jacobi, Richardson)", []float64{j.Step()}, []float64{r.Step()})
					requireSameBits(t, i, what+"x (Jacobi, Richardson)", j.X(), r.X())
				}
			}
		}
	}
}

func TestStationaryCaptureRestore(t *testing.T) {
	a := sparse.Poisson2D(5)
	b := sparse.OnesRHS(a.Rows)
	s, err := NewStationary(KindJacobi, a, b, nil, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.Step()
	}
	st := s.DynamicView().Clone()
	for i := 0; i < 20; i++ {
		s.Step()
	}
	want := append([]float64(nil), s.X()...)

	s2, _ := NewStationary(KindJacobi, a, b, nil, 0, Options{})
	if err := s2.RestoreDynamic(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s2.Step()
	}
	if d := vec.MaxAbsDiff(want, s2.X()); d != 0 {
		t.Fatalf("restored Jacobi diverged by %g", d)
	}
}

func TestRunToConvergenceCallbackAbort(t *testing.T) {
	a, b, _ := poissonSystem(t, 6)
	s := NewCG(a, nil, b, nil, SeqSpace{}, Options{})
	sentinel := errSentinel{}
	_, err := RunToConvergence(s, Options{}, func(it int, rnorm float64) error {
		if it == 3 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("callback error not propagated: %v", err)
	}
	if s.Iteration() != 3 {
		t.Fatalf("solve continued after abort: %d iterations", s.Iteration())
	}
}

type errSentinel struct{}

func (errSentinel) Error() string { return "sentinel" }

func TestRunToConvergenceRespectsMaxIter(t *testing.T) {
	a, b, _ := poissonSystem(t, 10)
	s, err := NewStationary(KindJacobi, a, b, nil, 0, Options{RTol: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunToConvergence(s, Options{MaxIter: 7, RTol: 1e-14}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("should not converge in 7 Jacobi sweeps at rtol 1e-14")
	}
	if res.Iterations != 7 {
		t.Fatalf("Iterations = %d, want 7", res.Iterations)
	}
}
