package abft

import (
	"math"
	"strings"
	"testing"

	"repro/internal/precond"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// protectedCG builds a Jacobi-preconditioned CG on a 3D Poisson system
// with an exact-state guard over it.
func protectedCG(t *testing.T, n int, cfg Config) (*sparse.CSR, *solver.CG, *Guard) {
	t.Helper()
	a := sparse.Poisson3D(n)
	b := sparse.OnesRHS(a.Rows)
	cg := solver.NewCG(a, precond.NewJacobiFromMatrix(a), b, nil, solver.SeqSpace{},
		solver.Options{RTol: 1e-8})
	g, err := NewGuard(a, b, cg, cfg)
	if err != nil {
		t.Fatalf("NewGuard: %v", err)
	}
	return a, cg, g
}

// stepObserved advances the solver k iterations, retaining redundancy
// after every step, and returns the last residual norm.
func stepObserved(s solver.Checkpointable, g *Guard, k int) float64 {
	rnorm := s.ResidualNorm()
	for i := 0; i < k; i++ {
		rnorm = s.Step()
		g.Observe()
	}
	return rnorm
}

func TestExactStateReconstructionConvergesLikeFailureFree(t *testing.T) {
	// Failure-free reference: iterations to converge.
	a := sparse.Poisson3D(8)
	b := sparse.OnesRHS(a.Rows)
	ref := solver.NewCG(a, precond.NewJacobiFromMatrix(a), b, nil, solver.SeqSpace{},
		solver.Options{RTol: 1e-8})
	refRes, err := solver.RunToConvergence(ref, solver.Options{}, nil)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if !refRes.Converged {
		t.Fatal("reference run did not converge")
	}

	_, cg, g := protectedCG(t, 8, Config{})
	stepObserved(cg, g, 10)
	preIt := cg.Iteration()

	rank := 3
	g.FailRank(rank)
	if !math.IsNaN(cg.X()[g.cuts[rank]]) {
		t.Fatal("FailRank did not poison the block")
	}
	rec, err := g.Reconstruct()
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	if rec.Method != ExactState || rec.Rank != rank {
		t.Fatalf("recon = %+v, want exact-state rank %d", rec, rank)
	}
	if rec.Iteration != preIt {
		t.Fatalf("reconstructed iteration %d, want pre-failure %d", rec.Iteration, preIt)
	}
	if rec.LocalIterations <= 0 {
		t.Fatal("exact-state reconstruction reported no local-solve iterations")
	}
	if !(rec.ResidualNorm <= verifyFactor*rec.Reference) {
		t.Fatalf("accepted residual %.3e outside the verification band (ref %.3e)", rec.ResidualNorm, rec.Reference)
	}

	// The run continues to the same tolerance in (essentially) the same
	// number of iterations — the failure never happened, algorithmically.
	res, err := solver.RunToConvergence(cg, solver.Options{}, func(int, float64) error {
		g.Observe()
		return nil
	})
	if err != nil {
		t.Fatalf("post-reconstruction run: %v", err)
	}
	if !res.Converged {
		t.Fatal("ABFT-recovered CG did not converge")
	}
	if d := res.Iterations - refRes.Iterations; d < -2 || d > 2 {
		t.Fatalf("ABFT-recovered CG took %d iterations, failure-free took %d — not exact-state recovery",
			res.Iterations, refRes.Iterations)
	}
	st := g.Stats()
	if st.Reconstructions != 1 || st.Rejected != 0 {
		t.Fatalf("stats = %+v, want exactly one accepted reconstruction", st)
	}
}

func TestBackwardForwardReconstruction(t *testing.T) {
	a := sparse.Poisson2D(14)
	b := sparse.OnesRHS(a.Rows)
	s, err := solver.NewStationary(solver.KindJacobi, a, b, nil, 0, solver.Options{RTol: 1e-6})
	if err != nil {
		t.Fatalf("NewStationary: %v", err)
	}
	g, err := NewGuard(a, b, s, Config{})
	if err != nil {
		t.Fatalf("NewGuard: %v", err)
	}
	stepObserved(s, g, 40)
	rank := g.FailNextRank()
	rec, err := g.Reconstruct()
	if err != nil {
		t.Fatalf("Reconstruct: %v", err)
	}
	if rec.Method != BackwardForward || rec.Rank != rank {
		t.Fatalf("recon = %+v, want backward-forward rank %d", rec, rank)
	}
	if rec.LocalIterations != 0 {
		t.Fatalf("backward/forward reported %d local iterations, want 0 (no local solve)", rec.LocalIterations)
	}
	res, err := solver.RunToConvergence(s, solver.Options{}, func(int, float64) error {
		g.Observe()
		return nil
	})
	if err != nil {
		t.Fatalf("post-reconstruction run: %v", err)
	}
	if !res.Converged {
		t.Fatal("backward/forward-recovered Jacobi did not converge")
	}
}

func TestCorruptRetainedRejectedByChecksum(t *testing.T) {
	_, cg, g := protectedCG(t, 8, Config{})
	stepObserved(cg, g, 8)
	g.CorruptRetained()
	g.FailRank(0)
	_, err := g.Reconstruct()
	if err == nil {
		t.Fatal("corrupted retained state was accepted")
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("rejection reason %q does not name the checksum", err)
	}
	if st := g.Stats(); st.Rejected != 1 || st.Reconstructions != 0 {
		t.Fatalf("stats = %+v, want one rejection and no acceptance", st)
	}
}

func TestStaleRetentionRejected(t *testing.T) {
	_, cg, g := protectedCG(t, 8, Config{})
	stepObserved(cg, g, 6)
	// Two steps without Observe: the redundancy now describes an older
	// iteration and the exact-state system no longer holds.
	cg.Step()
	cg.Step()
	g.FailRank(1)
	_, err := g.Reconstruct()
	if err == nil {
		t.Fatal("stale retained state was accepted")
	}
	if !strings.Contains(err.Error(), "stale") {
		t.Fatalf("rejection reason %q does not name staleness", err)
	}
}

func TestFailureBeforeFirstObserveRejected(t *testing.T) {
	_, _, g := protectedCG(t, 6, Config{})
	g.FailRank(0)
	if _, err := g.Reconstruct(); err == nil {
		t.Fatal("reconstruction with no retained state was accepted")
	}
}

func TestReconstructWithoutFailureRejected(t *testing.T) {
	_, cg, g := protectedCG(t, 6, Config{})
	stepObserved(cg, g, 3)
	if _, err := g.Reconstruct(); err == nil {
		t.Fatal("reconstruction with no failed rank was accepted")
	}
}

func TestFailNextRankDeterministicPerSeed(t *testing.T) {
	draw := func(seed int64) []int {
		_, cg, g := protectedCG(t, 6, Config{Seed: seed})
		var ranks []int
		for i := 0; i < 6; i++ {
			stepObserved(cg, g, 1)
			ranks = append(ranks, g.FailNextRank())
			if _, err := g.Reconstruct(); err != nil {
				t.Fatalf("draw %d: %v", i, err)
			}
		}
		return ranks
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded rank streams diverge at %d: %v vs %v", i, a, b)
		}
	}
}

// TestGuardMethodValidation: the solver's type picks the method —
// exact-state for CG, backward/forward for any other solver.
func TestGuardMethodValidation(t *testing.T) {
	a := sparse.Poisson2D(6)
	b := sparse.OnesRHS(a.Rows)
	jacobi, err := solver.NewStationary(solver.KindJacobi, a, b, nil, 0, solver.Options{})
	if err != nil {
		t.Fatalf("NewStationary: %v", err)
	}
	for _, c := range []struct {
		s    solver.Checkpointable
		want Method
	}{
		{solver.NewCG(a, precond.NewJacobiFromMatrix(a), b, nil, solver.SeqSpace{}, solver.Options{}), ExactState},
		{jacobi, BackwardForward},
		{solver.NewGMRES(a, nil, b, nil, 10, solver.SeqSpace{}, solver.Options{}), BackwardForward},
	} {
		g, err := NewGuard(a, b, c.s, Config{})
		if err != nil {
			t.Fatalf("%T: %v", c.s, err)
		}
		if g.Method() != c.want {
			t.Errorf("%T: method %v, want %v", c.s, g.Method(), c.want)
		}
	}
}
