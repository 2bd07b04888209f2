package core

import (
	"testing"

	"repro/internal/fti"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/sz"
	"repro/internal/vec"
)

func cgSystem(t *testing.T) (*sparse.CSR, []float64, []float64) {
	t.Helper()
	a := sparse.Poisson2D(10)
	xe := sparse.SmoothField(a.Rows, 21)
	b := sparse.RHSForSolution(a, xe)
	return a, b, xe
}

func newCG(t *testing.T, a *sparse.CSR, b []float64) *solver.CG {
	t.Helper()
	return solver.NewCG(a, nil, b, nil, solver.SeqSpace{}, solver.Options{RTol: 1e-10})
}

// lastCkptIter is the iteration of the newest committed checkpoint —
// the rollback target — or 0 when there is none; an in-flight async
// save does not count.
func lastCkptIter(m *Manager) int {
	if !m.HasCheckpoint() {
		return 0
	}
	return m.lastCkptIter
}

func TestSchemeString(t *testing.T) {
	if Traditional.String() != "traditional" || Lossless.String() != "lossless" || Lossy.String() != "lossy" {
		t.Fatal("scheme names wrong")
	}
}

func TestTraditionalCheckpointRecoverContinues(t *testing.T) {
	a, b, xe := cgSystem(t)
	s := newCG(t, a, b)
	m, err := NewManager(Config{Scheme: Traditional, Interval: 5}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	// Failure-free baseline iteration count.
	base := newCG(t, a, b)
	resBase, _ := solver.RunToConvergence(base, solver.Options{MaxIter: 2000}, nil)

	var failed bool
	res, err := solver.RunToConvergence(s, solver.Options{MaxIter: 2000}, func(it int, rnorm float64) error {
		if _, err := m.MaybeCheckpoint(); err != nil {
			return err
		}
		if it == 23 && !failed {
			failed = true
			// Simulate the fail-stop: recover from the last checkpoint.
			rolledTo, err := m.Recover()
			if err != nil {
				return err
			}
			if rolledTo != 20 {
				t.Errorf("rolled back to %d, want 20", rolledTo)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("did not converge after recovery")
	}
	diff := make([]float64, len(xe))
	vec.Sub(diff, s.X(), xe)
	if rel := vec.Norm2(diff) / vec.Norm2(xe); rel > 1e-6 {
		t.Fatalf("solution error %g after traditional recovery", rel)
	}
	// Traditional recovery replays the rolled-back iterations exactly:
	// no extra iterations beyond the rollback.
	if res.Iterations < resBase.Iterations {
		t.Fatalf("iterations %d below failure-free baseline %d?", res.Iterations, resBase.Iterations)
	}
}

func TestLossyCheckpointRecoverConverges(t *testing.T) {
	a, b, xe := cgSystem(t)
	s := newCG(t, a, b)
	m, err := NewManager(Config{
		Scheme:   Lossy,
		Interval: 10,
		SZParams: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4},
	}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	failures := 0
	res, err := solver.RunToConvergence(s, solver.Options{MaxIter: 5000}, func(it int, rnorm float64) error {
		if _, err := m.MaybeCheckpoint(); err != nil {
			return err
		}
		if it == 35 && failures == 0 {
			failures++
			if _, err := m.Recover(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("lossy recovery prevented convergence")
	}
	diff := make([]float64, len(xe))
	vec.Sub(diff, s.X(), xe)
	if rel := vec.Norm2(diff) / vec.Norm2(xe); rel > 1e-5 {
		t.Fatalf("solution error %g after lossy recovery", rel)
	}
}

func TestLossyCheckpointOnlySavesX(t *testing.T) {
	a, b, _ := cgSystem(t)
	s := newCG(t, a, b)
	m, err := NewManager(Config{Scheme: Lossy, Interval: 1}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	info, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	// One vector of n values (plus negligible header): the paper's
	// point that lossy CG checkpoints one vector, traditional two.
	if info.RawBytes != 8*a.Rows {
		t.Fatalf("lossy checkpoint raw bytes %d, want %d (x only)", info.RawBytes, 8*a.Rows)
	}

	s2 := newCG(t, a, b)
	m2, err := NewManager(Config{Scheme: Traditional, Interval: 1}, fti.NewMemStorage(), s2)
	if err != nil {
		t.Fatal(err)
	}
	s2.Step()
	info2, err := m2.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if info2.RawBytes != 8*2*a.Rows+8 {
		t.Fatalf("traditional checkpoint raw bytes %d, want %d (x, p, rho)",
			info2.RawBytes, 8*2*a.Rows+8)
	}
}

func TestLossyCompressionBeatsLossless(t *testing.T) {
	// Use a system large enough that compressor headers amortize.
	a := sparse.Poisson2D(40)
	xe := sparse.SmoothField(a.Rows, 3)
	b := sparse.RHSForSolution(a, xe)
	run := func(scheme Scheme) fti.Info {
		s := newCG(t, a, b)
		m, err := NewManager(Config{Scheme: scheme, Interval: 0,
			SZParams: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4}}, fti.NewMemStorage(), s)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 30; i++ {
			s.Step()
		}
		info, err := m.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		return info
	}
	lossy := run(Lossy)
	losslessInfo := run(Lossless)
	trad := run(Traditional)
	// Vector payloads: lossy ≪ lossless < traditional. Compare
	// per-vector byte rates because the schemes checkpoint different
	// variable sets (lossy: x; others: x and p).
	lossyRate := float64(lossy.VectorBytes) / float64(lossy.RawBytes)
	losslessRate := float64(losslessInfo.VectorBytes) / float64(losslessInfo.RawBytes-8)
	tradRate := float64(trad.VectorBytes) / float64(trad.RawBytes-8)
	if !(lossyRate < losslessRate && losslessRate < tradRate*1.01) {
		t.Fatalf("byte rates: lossy %.3f, lossless %.3f, traditional %.3f",
			lossyRate, losslessRate, tradRate)
	}
}

func TestDueRespectsInterval(t *testing.T) {
	a, b, _ := cgSystem(t)
	s := newCG(t, a, b)
	m, err := NewManager(Config{Scheme: Traditional, Interval: 3}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	var ckptAt []int
	for i := 0; i < 10; i++ {
		s.Step()
		info, err := m.MaybeCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		if info != nil {
			ckptAt = append(ckptAt, s.Iteration())
		}
	}
	want := []int{3, 6, 9}
	if len(ckptAt) != len(want) {
		t.Fatalf("checkpoints at %v, want %v", ckptAt, want)
	}
	for i := range want {
		if ckptAt[i] != want[i] {
			t.Fatalf("checkpoints at %v, want %v", ckptAt, want)
		}
	}
}

func TestMaybeCheckpointDoesNotDuplicate(t *testing.T) {
	a, b, _ := cgSystem(t)
	s := newCG(t, a, b)
	m, err := NewManager(Config{Scheme: Traditional, Interval: 2}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	s.Step()
	if i1, _ := m.MaybeCheckpoint(); i1 == nil {
		t.Fatal("first call at iteration 2 should checkpoint")
	}
	if i2, _ := m.MaybeCheckpoint(); i2 != nil {
		t.Fatal("second call at the same iteration must not checkpoint again")
	}
}

func TestAdaptiveBoundTightensWithConvergence(t *testing.T) {
	// Theorem 3: as GMRES converges, ‖r‖ shrinks and so must the
	// adaptive error bound — later checkpoints compress less.
	a, b, _ := cgSystem(t)
	s := solver.NewGMRES(a, nil, b, nil, 30, solver.SeqSpace{}, solver.Options{RTol: 1e-12})
	m, err := NewManager(Config{
		Scheme:    Lossy,
		Adaptive:  true,
		AdaptiveC: 1,
		BNorm:     vec.Norm2(b),
	}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Step()
	}
	early, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		s.Step()
	}
	late, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if late.VectorBytes <= early.VectorBytes {
		t.Fatalf("adaptive bound should tighten: early %d bytes, late %d bytes",
			early.VectorBytes, late.VectorBytes)
	}
}

func TestAdaptiveRequiresBNorm(t *testing.T) {
	a, b, _ := cgSystem(t)
	s := newCG(t, a, b)
	_, err := NewManager(Config{Scheme: Lossy, Adaptive: true}, fti.NewMemStorage(), s)
	if err == nil {
		t.Fatal("expected error without BNorm")
	}
}

func TestGMRESLossyRecoveryNoDelay(t *testing.T) {
	// §4.4.2: with the Theorem-3 bound, restarted GMRES converges with
	// no delay (N' ≈ 0) — sometimes even faster — after a lossy
	// recovery.
	a, b, _ := cgSystem(t)
	baseline := solver.NewGMRES(a, nil, b, nil, 30, solver.SeqSpace{}, solver.Options{RTol: 1e-8})
	resBase, _ := solver.RunToConvergence(baseline, solver.Options{MaxIter: 5000}, nil)
	if !resBase.Converged {
		t.Fatal("baseline GMRES did not converge")
	}

	s := solver.NewGMRES(a, nil, b, nil, 30, solver.SeqSpace{}, solver.Options{RTol: 1e-8})
	m, err := NewManager(Config{
		Scheme: Lossy, Interval: 10, Adaptive: true, AdaptiveC: 1, BNorm: vec.Norm2(b),
	}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	failAt := resBase.Iterations / 2
	failed := false
	rollback := 0
	res, err := solver.RunToConvergence(s, solver.Options{MaxIter: 5000}, func(it int, rnorm float64) error {
		if _, err := m.MaybeCheckpoint(); err != nil {
			return err
		}
		if !failed && it == failAt {
			failed = true
			rolledTo, err := m.Recover()
			if err != nil {
				return err
			}
			rollback = failAt - rolledTo
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("GMRES with lossy recovery did not converge")
	}
	// Total iterations = baseline + rollback + N'. Allow a one-cycle
	// margin for N'; any real convergence delay would exceed it.
	if res.Iterations > resBase.Iterations+rollback+31 {
		t.Fatalf("GMRES delayed: %d its vs baseline %d + rollback %d",
			res.Iterations, resBase.Iterations, rollback)
	}
}

func TestRecoverFreshRestartsFromGuess(t *testing.T) {
	a, b, _ := cgSystem(t)
	s := newCG(t, a, b)
	m, err := NewManager(Config{Scheme: Lossy}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		s.Step()
	}
	x0 := make([]float64, a.Rows)
	rolled := m.RecoverFresh(x0)
	if rolled != 0 {
		t.Fatalf("RecoverFresh rolled to %d", rolled)
	}
	if vec.Norm2(s.X()) != 0 {
		t.Fatal("solver not reset to the initial guess")
	}
	if s.Iteration() != 7 {
		t.Fatal("iteration work counter must keep counting executed steps")
	}
}

func TestRecoverWithoutCheckpointFails(t *testing.T) {
	a, b, _ := cgSystem(t)
	s := newCG(t, a, b)
	m, err := NewManager(Config{Scheme: Traditional}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recover(); err == nil {
		t.Fatal("expected error with no checkpoints")
	}
}

func TestStaticsRoundTrip(t *testing.T) {
	a, b, _ := cgSystem(t)
	ck := fti.New(fti.NewMemStorage(), fti.Raw{})
	if err := RegisterStatics(ck, a, b); err != nil {
		t.Fatal(err)
	}
	gotA, gotB, err := RecoverStatics(ck)
	if err != nil {
		t.Fatal(err)
	}
	if gotA == nil || gotA.NNZ() != a.NNZ() {
		t.Fatal("static A not recovered")
	}
	if gotB == nil || vec.MaxAbsDiff(gotB, b) != 0 {
		t.Fatal("static b not recovered")
	}
}

func TestLossyStationaryRecovery(t *testing.T) {
	// Theorem 2 in practice: Jacobi recovers from a lossy checkpoint
	// with essentially no extra iterations at eb = 1e-4.
	a := sparse.Poisson2D(8)
	xe := sparse.SmoothField(a.Rows, 31)
	b := sparse.RHSForSolution(a, xe)
	mkSolver := func() *solver.Stationary {
		s, err := solver.NewStationary(solver.KindJacobi, a, b, nil, 0, solver.Options{RTol: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	base := mkSolver()
	resBase, _ := solver.RunToConvergence(base, solver.Options{MaxIter: 20000}, nil)
	if !resBase.Converged {
		t.Fatal("baseline Jacobi did not converge")
	}

	s := mkSolver()
	m, err := NewManager(Config{
		Scheme: Lossy, Interval: 25,
		SZParams: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4},
	}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	failAt := resBase.Iterations / 2
	failed := false
	rollback := 0
	res, err := solver.RunToConvergence(s, solver.Options{MaxIter: 20000}, func(it int, rnorm float64) error {
		if _, err := m.MaybeCheckpoint(); err != nil {
			return err
		}
		if !failed && it == failAt {
			failed = true
			rolledTo, err := m.Recover()
			if err != nil {
				return err
			}
			rollback = failAt - rolledTo
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("Jacobi with lossy recovery did not converge")
	}
	// Theorem 2 upper bound at this spectrum/eb is single digits;
	// allow 15 for safety.
	extra := res.Iterations - resBase.Iterations - rollback
	if extra > 15 {
		t.Fatalf("Jacobi lossy recovery cost %d extra iterations (Theorem 2 says single digits)", extra)
	}
}

// TestRepeatedRecoverReusesBuffersAndStaysDeterministic: Recover
// decodes into the solver's own vectors, whatever they hold by then, so
// back-to-back recoveries must keep returning the same restored state
// — a fresh Manager over the same storage agrees — and the solver must
// converge after each.
func TestRepeatedRecoverReusesBuffersAndStaysDeterministic(t *testing.T) {
	for _, scheme := range []Scheme{Traditional, Lossy} {
		a, b, xe := cgSystem(t)
		s := newCG(t, a, b)
		st := fti.NewMemStorage()
		m, err := NewManager(Config{Scheme: scheme, Shards: 4, StorageWorkers: 2}, st, s)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			s.Step()
		}
		if _, err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 9; i++ {
			s.Step()
		}
		it1, err := m.Recover()
		if err != nil {
			t.Fatal(err)
		}
		x1 := append([]float64(nil), s.X()...)
		for i := 0; i < 5; i++ {
			s.Step() // mutate state between recoveries
		}
		it2, err := m.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if it1 != it2 {
			t.Fatalf("scheme %v: rollback iteration changed: %d then %d", scheme, it1, it2)
		}
		if d := vec.MaxAbsDiff(x1, s.X()); d != 0 {
			t.Fatalf("scheme %v: repeated recovery changed restored x by %g", scheme, d)
		}
		// A fresh Manager over the same storage restores identically.
		s2 := newCG(t, a, b)
		m2, err := NewManager(Config{Scheme: scheme, Shards: 4, StorageWorkers: 2}, st, s2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m2.Recover(); err != nil {
			t.Fatal(err)
		}
		if d := vec.MaxAbsDiff(s.X(), s2.X()); d != 0 {
			t.Fatalf("scheme %v: fresh-manager recovery differs by %g", scheme, d)
		}
		res, err := solver.RunToConvergence(s, solver.Options{MaxIter: 100000}, nil)
		if err != nil || !res.Converged {
			t.Fatalf("scheme %v: post-recovery solve failed: %v", scheme, err)
		}
		if d := vec.MaxAbsDiff(s.X(), xe); d > 1e-5 {
			t.Fatalf("scheme %v: converged far from the exact solution: %g", scheme, d)
		}
	}
}
