package abft

import (
	"math"
	"math/rand"
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
	if !(rec.ResidualNorm <= g.cfg.VerifyFactor*rec.Reference) {
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
	g, err := NewGuard(a, b, s, Config{Method: BackwardForward, ProtectEvery: 5})
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

func TestGuardMethodValidation(t *testing.T) {
	a := sparse.Poisson2D(6)
	b := sparse.OnesRHS(a.Rows)
	s, err := solver.NewStationary(solver.KindJacobi, a, b, nil, 0, solver.Options{})
	if err != nil {
		t.Fatalf("NewStationary: %v", err)
	}
	if _, err := NewGuard(a, b, s, Config{Method: ExactState}); err == nil {
		t.Fatal("exact-state guard accepted a non-CG solver")
	}
	cg := solver.NewCG(a, precond.NewJacobiFromMatrix(a), b, nil, solver.SeqSpace{}, solver.Options{})
	if _, err := NewGuard(a, b, cg, Config{Method: BackwardForward}); err != nil {
		t.Fatalf("backward/forward guard rejected restartable CG: %v", err)
	}
}

func TestChecksumOperatorDetectsSilentCorruption(t *testing.T) {
	// A hand-assembled matrix over the generator's arrays: it carries
	// no stencil summary, so every multiply reads Val live and the
	// corruption below is corruption of what the kernel reads. (The
	// generated matrix itself must not be modified, and its interior
	// rows would not notice.)
	g := sparse.Poisson3D(6)
	a := &sparse.CSR{Rows: g.Rows, Cols: g.Cols, RowPtr: g.RowPtr, ColIdx: g.ColIdx, Val: g.Val}
	co := NewChecksumOperator(a)
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	dst := make([]float64, a.Rows)
	ref := make([]float64, a.Rows)
	a.MulVec(ref, x)
	co.MulVec(dst, x)
	for i := range dst {
		if dst[i] != ref[i] {
			t.Fatal("checksum operator changed the numerics")
		}
	}
	if co.Mismatches() != 0 {
		t.Fatalf("clean application flagged: %d mismatches", co.Mismatches())
	}
	// Silently corrupt the operator after the checksums were
	// precomputed: the next application must be flagged.
	a.Val[len(a.Val)/2] *= 3
	co.MulVec(dst, x)
	if co.Mismatches() != 1 {
		t.Fatalf("corrupted application not flagged: %d mismatches after 2 applications", co.Mismatches())
	}
	if co.Applications() != 2 {
		t.Fatalf("applications = %d, want 2", co.Applications())
	}
}

// TestChecksumOperatorOverGeneratedMatrix is the converse: over a
// generated matrix, whose multiply takes the stencil kernel where there
// is one, the guarded product has the bits of the unguarded row-kernel
// product and no application is flagged.
func TestChecksumOperatorOverGeneratedMatrix(t *testing.T) {
	a := sparse.Poisson3D(6)
	rows := &sparse.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: a.Val}
	co := NewChecksumOperator(a)
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, a.Rows)
	dst := make([]float64, a.Rows)
	ref := make([]float64, a.Rows)
	for app := 0; app < 100; app++ {
		for i := range x {
			x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
		rows.MulVec(ref, x)
		co.MulVec(dst, x)
		for i := range dst {
			if math.Float64bits(dst[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("application %d (%s): row %d = %v, unguarded %v", app, a.Kernel(), i, dst[i], ref[i])
			}
		}
	}
	if co.Mismatches() != 0 || co.Applications() != 100 {
		t.Fatalf("%s: %d mismatches in %d applications, want 0 in 100", a.Kernel(), co.Mismatches(), co.Applications())
	}
}
