package solver

import (
	"testing"

	"repro/internal/precond"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// nonsymmetricSystem builds a convection-diffusion-like system that
// CG cannot handle but BiCGSTAB should.
func nonsymmetricSystem(t *testing.T, n int) (*sparse.CSR, []float64, []float64) {
	t.Helper()
	base := sparse.Poisson2D(n)
	bld := sparse.NewBuilder(base.Rows, base.Cols)
	for i := 0; i < base.Rows; i++ {
		for k := base.RowPtr[i]; k < base.RowPtr[i+1]; k++ {
			bld.Add(i, base.ColIdx[k], base.Val[k])
		}
		if i+1 < base.Rows {
			bld.Add(i, i+1, 0.5)
		}
		if i > 0 {
			bld.Add(i, i-1, -0.2)
		}
	}
	a := bld.Build()
	xe := sparse.SmoothField(a.Rows, 23)
	b := sparse.RHSForSolution(a, xe)
	return a, b, xe
}

func TestBiCGSTABSolvesNonsymmetric(t *testing.T) {
	a, b, xe := nonsymmetricSystem(t, 10)
	s := NewBiCGSTAB(a, nil, b, nil, SeqSpace{}, Options{RTol: 1e-10})
	solveAndCheck(t, s, xe, 1e-6)
}

func TestBiCGSTABSolvesSPD(t *testing.T) {
	a, b, xe := poissonSystem(t, 10)
	s := NewBiCGSTAB(a, nil, b, nil, SeqSpace{}, Options{RTol: 1e-10})
	solveAndCheck(t, s, xe, 1e-6)
}

func TestBiCGSTABWithPreconditioner(t *testing.T) {
	a, b, xe := nonsymmetricSystem(t, 12)
	m, err := precond.NewBlockILU0(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	pc := NewBiCGSTAB(a, m, b, nil, SeqSpace{}, Options{RTol: 1e-10})
	resPC := solveAndCheck(t, pc, xe, 1e-6)

	plain := NewBiCGSTAB(a, nil, b, nil, SeqSpace{}, Options{RTol: 1e-10})
	resPlain := solveAndCheck(t, plain, xe, 1e-6)
	if resPC.Iterations >= resPlain.Iterations {
		t.Fatalf("ILU(0) should accelerate BiCGSTAB: %d vs %d",
			resPC.Iterations, resPlain.Iterations)
	}
}

func TestBiCGSTABFasterThanGMRESPerMatVec(t *testing.T) {
	// Not a strict theorem, but on this family BiCGSTAB (2 matvecs per
	// iteration) should converge within a comparable matvec budget to
	// GMRES(30). Guard against gross regressions.
	a, b, _ := nonsymmetricSystem(t, 10)
	bi := NewBiCGSTAB(a, nil, b, nil, SeqSpace{}, Options{RTol: 1e-8})
	resBi, _ := RunToConvergence(bi, Options{MaxIter: 10000}, nil)
	gm := NewGMRES(a, nil, b, nil, 30, SeqSpace{}, Options{RTol: 1e-8})
	resGM, _ := RunToConvergence(gm, Options{MaxIter: 10000}, nil)
	if !resBi.Converged || !resGM.Converged {
		t.Fatal("both must converge")
	}
	if 2*resBi.Iterations > 20*resGM.Iterations {
		t.Fatalf("BiCGSTAB used %d matvecs vs GMRES %d — out of family",
			2*resBi.Iterations, resGM.Iterations)
	}
}

func TestBiCGSTABRestartFromOwnIterate(t *testing.T) {
	a, b, xe := nonsymmetricSystem(t, 8)
	s := NewBiCGSTAB(a, nil, b, nil, SeqSpace{}, Options{RTol: 1e-10})
	for i := 0; i < 10; i++ {
		s.Step()
	}
	s.Restart(append([]float64(nil), s.X()...))
	solveAndCheck(t, s, xe, 1e-6)
	if s.Iteration() < 10 {
		t.Fatal("restart must not reset the iteration counter")
	}
}

func TestBiCGSTABCaptureRestoreRoundTrip(t *testing.T) {
	a, b, _ := nonsymmetricSystem(t, 8)
	s1 := NewBiCGSTAB(a, nil, b, nil, SeqSpace{}, Options{RTol: 1e-12})
	for i := 0; i < 8; i++ {
		s1.Step()
	}
	st := s1.DynamicView().Clone()
	for i := 0; i < 8; i++ {
		s1.Step()
	}
	want := append([]float64(nil), s1.X()...)

	s2 := NewBiCGSTAB(a, nil, b, nil, SeqSpace{}, Options{RTol: 1e-12})
	if err := s2.RestoreDynamic(st); err != nil {
		t.Fatal(err)
	}
	if s2.Iteration() != 8 {
		t.Fatalf("restored iteration %d, want 8", s2.Iteration())
	}
	for i := 0; i < 8; i++ {
		s2.Step()
	}
	if d := vec.MaxAbsDiff(want, s2.X()); d > 1e-10*(1+vec.NormInf(want)) {
		t.Fatalf("restored trajectory diverged by %g", d)
	}
}

func TestBiCGSTABRestoreRejectsPartialState(t *testing.T) {
	a, b, _ := nonsymmetricSystem(t, 6)
	s := NewBiCGSTAB(a, nil, b, nil, SeqSpace{}, Options{})
	st := s.DynamicView().Clone()
	delete(st.Vectors, "rhat")
	if err := s.RestoreDynamic(st); err == nil {
		t.Fatal("expected error for missing rhat")
	}
	st2 := s.DynamicView().Clone()
	delete(st2.Scalars, "omega")
	if err := s.RestoreDynamic(st2); err == nil {
		t.Fatal("expected error for missing omega")
	}
}

func TestBiCGSTABExactGuess(t *testing.T) {
	a, b, xe := nonsymmetricSystem(t, 6)
	s := NewBiCGSTAB(a, nil, b, xe, SeqSpace{}, Options{RTol: 1e-8})
	if !s.Converged(s.ResidualNorm()) {
		t.Fatalf("exact guess should satisfy the test, rnorm %g", s.ResidualNorm())
	}
}
