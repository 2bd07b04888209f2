package solver

import (
	"math"
	"testing"

	"repro/internal/sparse"
	"repro/internal/vec"
)

// TestJacobiRateMatchesSpectralRadius: for Tridiag(n, −1, 2, −1) the
// Jacobi iteration matrix has spectral radius cos(π/(n+1)); the
// empirical per-sweep error contraction must converge to it.
func TestJacobiRateMatchesSpectralRadius(t *testing.T) {
	n := 30
	a := tridiag(n, -1, 2, -1)
	xe := sparse.SmoothField(n, 5)
	b := sparse.RHSForSolution(a, xe)
	s, err := NewStationary(KindJacobi, a, b, nil, 0, Options{RTol: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Cos(math.Pi / float64(n+1))

	// Let transients die out, then measure the contraction over a
	// window (the asymptotic rate is the dominant eigenvalue).
	for i := 0; i < 200; i++ {
		s.Step()
	}
	e0 := errNorm(s.X(), xe)
	const window = 100
	for i := 0; i < window; i++ {
		s.Step()
	}
	e1 := errNorm(s.X(), xe)
	got := math.Pow(e1/e0, 1.0/window)
	if math.Abs(got-want) > 0.002 {
		t.Fatalf("empirical Jacobi rate %.5f, spectral radius %.5f", got, want)
	}
}

// TestGaussSeidelRateIsJacobiSquared: for consistently ordered
// matrices (tridiagonal), ρ(GS) = ρ(Jacobi)² — Gauss-Seidel converges
// twice as fast per sweep.
func TestGaussSeidelRateIsJacobiSquared(t *testing.T) {
	n := 30
	a := tridiag(n, -1, 2, -1)
	xe := sparse.SmoothField(n, 6)
	b := sparse.RHSForSolution(a, xe)
	s, err := NewStationary(KindGaussSeidel, a, b, nil, 0, Options{RTol: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	rhoJ := math.Cos(math.Pi / float64(n+1))
	want := rhoJ * rhoJ

	for i := 0; i < 100; i++ {
		s.Step()
	}
	e0 := errNorm(s.X(), xe)
	const window = 60
	for i := 0; i < window; i++ {
		s.Step()
	}
	e1 := errNorm(s.X(), xe)
	got := math.Pow(e1/e0, 1.0/window)
	if math.Abs(got-want) > 0.005 {
		t.Fatalf("empirical GS rate %.5f, theory %.5f", got, want)
	}
}

// TestSOROptimalOmegaBeatsGaussSeidel: with the optimal relaxation
// ω* = 2/(1+√(1−ρ_J²)) SOR's rate ω*−1 is far better than GS's ρ_J².
func TestSOROptimalOmegaBeatsGaussSeidel(t *testing.T) {
	n := 30
	a := tridiag(n, -1, 2, -1)
	xe := sparse.SmoothField(n, 7)
	b := sparse.RHSForSolution(a, xe)
	rhoJ := math.Cos(math.Pi / float64(n+1))
	omegaOpt := 2 / (1 + math.Sqrt(1-rhoJ*rhoJ))

	iters := func(kind StationaryKind, omega float64) int {
		s, err := NewStationary(kind, a, b, nil, omega, Options{RTol: 1e-10})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunToConvergence(s, Options{MaxIter: 100000}, nil)
		if err != nil || !res.Converged {
			t.Fatalf("%v did not converge", kind)
		}
		return res.Iterations
	}
	gs := iters(KindGaussSeidel, 0)
	sor := iters(KindSOR, omegaOpt)
	// Theory: iteration counts scale like log(tol)/log(rate); optimal
	// SOR should cut iterations by roughly an order of magnitude here.
	if sor*4 > gs {
		t.Fatalf("optimal SOR (%d its) should be ≫ faster than GS (%d its)", sor, gs)
	}
}

// TestCGKrylovOptimality: the CG iterate minimizes the A-norm of the
// error over the Krylov subspace, so the A-norm of the error must be
// non-increasing per iteration.
func TestCGKrylovOptimality(t *testing.T) {
	a := sparse.Poisson2D(8)
	xe := sparse.SmoothField(a.Rows, 8)
	b := sparse.RHSForSolution(a, xe)
	s := NewCG(a, nil, b, nil, SeqSpace{}, Options{RTol: 1e-300})
	diff := make([]float64, a.Rows)
	ad := make([]float64, a.Rows)
	aNorm := func() float64 {
		vec.Sub(diff, s.X(), xe)
		a.MulVec(ad, diff)
		return math.Sqrt(math.Abs(vec.Dot(diff, ad)))
	}
	initial := aNorm()
	prev := initial
	for i := 0; i < 40; i++ {
		s.Step()
		cur := aNorm()
		if cur < 1e-13*initial {
			break // at machine precision rounding breaks monotonicity
		}
		if cur > prev*(1+1e-10) {
			t.Fatalf("A-norm of error grew at step %d: %g -> %g", i, prev, cur)
		}
		prev = cur
	}
}

// TestGMRESResidualMonotoneWithinCycle: the Givens residual estimate
// is non-increasing within one Krylov cycle (GMRES minimizes the
// residual over a growing subspace).
func TestGMRESResidualMonotoneWithinCycle(t *testing.T) {
	a := sparse.Poisson2D(8)
	xe := sparse.SmoothField(a.Rows, 9)
	b := sparse.RHSForSolution(a, xe)
	s := NewGMRES(a, nil, b, nil, 20, SeqSpace{}, Options{RTol: 1e-300})
	prev := s.ResidualNorm()
	for i := 0; i < 20; i++ { // within the first cycle
		cur := s.Step()
		if cur > prev*(1+1e-12) {
			t.Fatalf("GMRES residual estimate grew within a cycle at step %d: %g -> %g", i, prev, cur)
		}
		prev = cur
	}
}

func errNorm(x, xe []float64) float64 {
	d := make([]float64, len(x))
	vec.Sub(d, x, xe)
	return vec.Norm2(d)
}

// tridiag is sparse's test generator Tridiag, the same matrix for the
// same arguments: sub-diagonal a, diagonal b and super-diagonal c, a
// zero not stored.
func tridiag(n int, a, b, c float64) *sparse.CSR {
	bld := sparse.NewBuilder(n, n)
	for i := range n {
		if i > 0 {
			bld.Add(i, i-1, a)
		}
		bld.Add(i, i, b)
		if i < n-1 {
			bld.Add(i, i+1, c)
		}
	}
	return bld.Build()
}
