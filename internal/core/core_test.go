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
func lastCkptIter(m *Manager) int { return m.LastInfo().Iteration }

// checkpointIfDue is a hand-written loop's save, as bench/rep.go
// writes it: one whenever the Manager's Interval says so.
func checkpointIfDue(m *Manager) error {
	if !m.Due() {
		return nil
	}
	_, err := m.Checkpoint()
	return err
}

// recoverCheckpoint runs the recovery chain from a zero initial guess
// and fails the test unless a stored checkpoint recovered the solver.
// It returns the iteration the solver rolled back to.
func recoverCheckpoint(t *testing.T, m *Manager) int {
	t.Helper()
	rep, err := m.RecoverTiered(make([]float64, len(m.slv.X())))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Used != TierCheckpoint && rep.Used != TierPreviousCheckpoint {
		t.Fatalf("recovered via %v, want a checkpoint: %+v", rep.Used, rep.Attempts)
	}
	return rep.Iteration
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
		if err := checkpointIfDue(m); err != nil {
			return err
		}
		if it == 23 && !failed {
			failed = true
			// Simulate the fail-stop: recover from the last checkpoint.
			if rolledTo := recoverCheckpoint(t, m); rolledTo != 20 {
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
		if err := checkpointIfDue(m); err != nil {
			return err
		}
		if it == 35 && failures == 0 {
			failures++
			recoverCheckpoint(t, m)
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
	// Checkpoints: lossy ≪ lossless < traditional. Compare byte rates
	// because the schemes checkpoint different variable sets (lossy: x;
	// others: x, p and a scalar).
	rate := func(info fti.Info) float64 { return float64(info.Bytes) / float64(info.RawBytes) }
	lossyRate, losslessRate, tradRate := rate(lossy), rate(losslessInfo), rate(trad)
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
		if !m.Due() {
			continue
		}
		if _, err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		ckptAt = append(ckptAt, s.Iteration())
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

func TestDueDoesNotDuplicate(t *testing.T) {
	a, b, _ := cgSystem(t)
	s := newCG(t, a, b)
	m, err := NewManager(Config{Scheme: Traditional, Interval: 2}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	s.Step()
	if !m.Due() {
		t.Fatal("a checkpoint is due at iteration 2")
	}
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if m.Due() {
		t.Fatal("a checkpoint taken at iteration 2 must not be due again there")
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
	if late.Bytes <= early.Bytes {
		t.Fatalf("adaptive bound should tighten: early %d bytes, late %d bytes",
			early.Bytes, late.Bytes)
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
		if err := checkpointIfDue(m); err != nil {
			return err
		}
		if !failed && it == failAt {
			failed = true
			rollback = failAt - recoverCheckpoint(t, m)
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

// TestRecoverFreshRestartsFromGuess: with no checkpoint to stand on,
// the chain ends at its last rung — a restart from the initial guess,
// at logical iteration 0.
func TestRecoverFreshRestartsFromGuess(t *testing.T) {
	for _, scheme := range []Scheme{Traditional, Lossy} {
		a, b, _ := cgSystem(t)
		s := newCG(t, a, b)
		m, err := NewManager(Config{Scheme: scheme}, fti.NewMemStorage(), s)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 7; i++ {
			s.Step()
		}
		rep, err := m.RecoverTiered(make([]float64, a.Rows))
		if err != nil || rep.Used != TierRestartZero || rep.Iteration != 0 || len(rep.Attempts) != 1 {
			t.Fatalf("%v: RecoverTiered = %+v, %v; want one restart-zero attempt at iteration 0", scheme, rep, err)
		}
		if vec.Norm2(s.X()) != 0 {
			t.Fatalf("%v: solver not reset to the initial guess", scheme)
		}
		if s.Iteration() != 7 {
			t.Fatalf("%v: iteration work counter must keep counting executed steps", scheme)
		}
	}
}

// TestRecoverWithoutCheckpointFails: the checkpoint rungs on their own
// fail when storage holds no checkpoint, and the failed walk is still
// reported as a rejected checkpoint attempt rather than dropped.
func TestRecoverWithoutCheckpointFails(t *testing.T) {
	a, b, _ := cgSystem(t)
	s := newCG(t, a, b)
	m, err := NewManager(Config{Scheme: Traditional}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	rep := &RecoveryReport{}
	if err := m.restore(rep); err == nil {
		t.Fatal("expected error with no checkpoints")
	}
	if len(rep.Attempts) != 1 || rep.Attempts[0].Tier != TierCheckpoint ||
		rep.Attempts[0].Accepted || rep.Attempts[0].Err == "" {
		t.Fatalf("attempts = %+v; want one rejected checkpoint attempt", rep.Attempts)
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
		if err := checkpointIfDue(m); err != nil {
			return err
		}
		if !failed && it == failAt {
			failed = true
			rollback = failAt - recoverCheckpoint(t, m)
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

// TestRepeatedRecoverReusesBuffersAndStaysDeterministic: RecoverTiered
// decodes into the solver's own vectors, whatever they hold by then, so
// back-to-back recoveries must keep returning the same restored state
// — a second run that took the same checkpoint agrees — and the solver
// must converge after each.
func TestRepeatedRecoverReusesBuffersAndStaysDeterministic(t *testing.T) {
	for _, scheme := range []Scheme{Traditional, Lossy} {
		a, b, xe := cgSystem(t)
		s := newCG(t, a, b)
		cfg := Config{Scheme: scheme, Shards: 4, StorageWorkers: 2}
		m, err := NewManager(cfg, fti.NewMemStorage(), s)
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
		it1 := recoverCheckpoint(t, m)
		x1 := append([]float64(nil), s.X()...)
		for i := 0; i < 5; i++ {
			s.Step() // mutate state between recoveries
		}
		if it2 := recoverCheckpoint(t, m); it1 != it2 {
			t.Fatalf("scheme %v: rollback iteration changed: %d then %d", scheme, it1, it2)
		}
		if d := vec.MaxAbsDiff(x1, s.X()); d != 0 {
			t.Fatalf("scheme %v: repeated recovery changed restored x by %g", scheme, d)
		}
		// A second run that took the same checkpoint, and recovers into
		// vectors that hold another state, restores identically.
		s2 := newCG(t, a, b)
		m2, err := NewManager(cfg, fti.NewMemStorage(), s2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			s2.Step()
		}
		if _, err := m2.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			s2.Step()
		}
		recoverCheckpoint(t, m2)
		if d := vec.MaxAbsDiff(s.X(), s2.X()); d != 0 {
			t.Fatalf("scheme %v: second run's recovery differs by %g", scheme, d)
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
