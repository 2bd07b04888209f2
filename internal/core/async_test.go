package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fti"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/sz"
)

// hookStorage injects write failures under a real MemStorage — the
// crash-consistency harness: a failing write models the node dying
// between SaveAsync and write completion (nothing durable remains
// either way).
type hookStorage struct {
	fti.Storage
	failNext atomic.Bool
}

func (h *hookStorage) Write(name string, data []byte) error {
	if h.failNext.CompareAndSwap(true, false) {
		return fmt.Errorf("injected failure mid-write")
	}
	return h.Storage.Write(name, data)
}

// WriteBatched takes the same injection, so shard writes hit it.
func (h *hookStorage) WriteBatched(name string, data []byte) error { return h.Write(name, data) }

// traceRun drives CG with checkpoints every `interval` iterations and
// one recovery at iteration failAt, returning the residual after every
// step. Shared by the sync/async bitwise-equivalence tests.
func traceRun(t *testing.T, scheme Scheme, async bool, interval, failAt int) []float64 {
	t.Helper()
	a, b, _ := cgSystem(t)
	s := newCG(t, a, b)
	m, err := NewManager(Config{
		Scheme:   scheme,
		Interval: interval,
		Async:    async,
		SZParams: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4},
	}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	var trace []float64
	failed := false
	_, err = solver.RunToConvergence(s, solver.Options{MaxIter: 5000}, func(it int, rnorm float64) error {
		trace = append(trace, rnorm)
		if err := checkpointIfDue(m); err != nil {
			return err
		}
		if !failed && it == failAt {
			failed = true
			recoverCheckpoint(t, m)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	return trace
}

// TestAsyncTraceBitwiseIdenticalToSync is the paper-facing guarantee:
// moving encode+write off the critical path must not change a single
// bit of the numerics — same checkpoints, same recovery, same
// convergence trace.
func TestAsyncTraceBitwiseIdenticalToSync(t *testing.T) {
	for _, scheme := range []Scheme{Traditional, Lossy} {
		syncTrace := traceRun(t, scheme, false, 10, 35)
		asyncTrace := traceRun(t, scheme, true, 10, 35)
		if len(syncTrace) != len(asyncTrace) {
			t.Fatalf("%s: sync %d iterations, async %d", scheme, len(syncTrace), len(asyncTrace))
		}
		for i := range syncTrace {
			if math.Float64bits(syncTrace[i]) != math.Float64bits(asyncTrace[i]) {
				t.Fatalf("%s: traces diverge at iteration %d: %x vs %x",
					scheme, i, syncTrace[i], asyncTrace[i])
			}
		}
	}
}

// TestAsyncCrashConsistency: a failure between SaveAsync and write
// completion must leave the previous committed checkpoint as the
// recovery target (the paper's failure-during-checkpoint path).
func TestAsyncCrashConsistency(t *testing.T) {
	a, b, _ := cgSystem(t)
	s := newCG(t, a, b)
	st := &hookStorage{Storage: fti.NewMemStorage()}
	m, err := NewManager(Config{Scheme: Traditional, Async: true}, st, s)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 10; i++ {
		s.Step()
	}
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if got := lastCkptIter(m); got != 10 {
		t.Fatalf("committed checkpoint at %d, want 10", got)
	}

	for i := 0; i < 10; i++ {
		s.Step()
	}
	st.failNext.Store(true)
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err) // capture succeeds; the write dies in flight
	}
	for i := 0; i < 3; i++ {
		s.Step() // the solver keeps going, unaware
	}

	if rolledTo := recoverCheckpoint(t, m); rolledTo != 10 {
		t.Fatalf("recovered to iteration %d, want 10 (previous committed checkpoint)", rolledTo)
	}
	if got := lastCkptIter(m); got != 10 {
		t.Fatalf("rollback target %d after recovery, want 10", got)
	}
	// The pipeline is healthy again: the next checkpoint commits.
	for i := 0; i < 5; i++ {
		s.Step() // resume from the restored iteration 10
	}
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if got := lastCkptIter(m); got != 15 {
		t.Fatalf("post-recovery checkpoint at %d, want 15", got)
	}
}

// TestAsyncErrorSurfacedOnNextCheckpoint: when no recovery intervenes,
// a failed background write surfaces as an explicit error on the next
// Checkpoint call, and the committed bookkeeping is unchanged.
func TestAsyncErrorSurfacedOnNextCheckpoint(t *testing.T) {
	a, b, _ := cgSystem(t)
	s := newCG(t, a, b)
	st := &hookStorage{Storage: fti.NewMemStorage()}
	m, err := NewManager(Config{Scheme: Traditional, Async: true}, st, s)
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}

	s.Step()
	st.failNext.Store(true)
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Step()
	if _, err := m.Checkpoint(); err == nil {
		t.Fatal("background write failure was swallowed")
	}
	if got := lastCkptIter(m); got != 1 {
		t.Fatalf("committed checkpoint moved to %d despite the failed write", got)
	}
	// Error consumed; checkpointing resumes.
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if got := lastCkptIter(m); got != 3 {
		t.Fatalf("recovered pipeline checkpointed at %d, want 3", got)
	}
}

// TestAsyncInFlightNotARecoveryTarget: HasCheckpoint and the rollback
// target must ignore a save whose write has not committed yet.
func TestAsyncInFlightNotARecoveryTarget(t *testing.T) {
	a, b, _ := cgSystem(t)
	s := newCG(t, a, b)
	gate := make(chan struct{})
	st := &gatedStorage{Storage: fti.NewMemStorage(), gate: gate}
	m, err := NewManager(Config{Scheme: Traditional, Async: true}, st, s)
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if m.HasCheckpoint() || lastCkptIter(m) != 0 {
		t.Fatal("in-flight save already counted as committed")
	}
	if !m.InFlight() {
		t.Fatal("save should be in flight")
	}
	close(gate)
	if _, err := m.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if !m.HasCheckpoint() || lastCkptIter(m) != 1 {
		t.Fatal("committed save not promoted")
	}
}

type gatedStorage struct {
	fti.Storage
	gate chan struct{}
}

func (g *gatedStorage) Write(name string, data []byte) error {
	<-g.gate
	return g.Storage.Write(name, data)
}

func (g *gatedStorage) WriteBatched(name string, data []byte) error { return g.Write(name, data) }

// TestAsyncManagerRecordsBackpressure: a Checkpoint issued while the
// previous write is still in flight stalls the solver, and that stall
// must show up in Stats — the capture+backpressure sum is the
// advertised total solver-visible cost.
func TestAsyncManagerRecordsBackpressure(t *testing.T) {
	a, b, _ := cgSystem(t)
	s := newCG(t, a, b)
	gate := make(chan struct{})
	st := &gatedStorage{Storage: fti.NewMemStorage(), gate: gate}
	m, err := NewManager(Config{Scheme: Traditional, Async: true}, st, s)
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		close(gate)
	}()
	s.Step()
	if _, err := m.Checkpoint(); err != nil { // stalls until the gate opens
		t.Fatal(err)
	}
	if _, err := m.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if bp := m.AsyncCheckpointer().Stats().BackpressureSeconds; bp <= 0 {
		t.Fatalf("BackpressureSeconds = %g, want > 0: the solver stalled on the in-flight write", bp)
	}
}

// TestAsyncAbortDropsCompletedInFlight: the driver's abort path — the
// failure struck inside the save's capture window — must restore the
// previous rollback target even when the background write had already
// finished.
func TestAsyncAbortDropsCompletedInFlight(t *testing.T) {
	a, b, _ := cgSystem(t)
	s := newCG(t, a, b)
	m, err := NewManager(Config{Scheme: Traditional, Async: true}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Step()
	}
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.Step()
	}
	infoBefore, err := m.WaitCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.AbortLastCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if got := lastCkptIter(m); got != 5 {
		t.Fatalf("after abort the rollback target is %d, want 5", got)
	}
	if got := m.LastInfo(); got.Seq != infoBefore.Seq || got.Bytes != infoBefore.Bytes {
		t.Fatalf("LastInfo after abort describes the dropped checkpoint: %+v, want %+v", got, infoBefore)
	}
	if rolledTo := recoverCheckpoint(t, m); rolledTo != 5 {
		t.Fatalf("recovered to %d, want 5", rolledTo)
	}
}

// TestAbortOfAFailedSaveKeepsItsPredecessor: a save that failed — on
// the spot in degraded mode, or in the background, whether the abort
// drains it or someone already had — committed nothing, so aborting it
// drops nothing: the checkpoint before it stays the recovery target.
func TestAbortOfAFailedSaveKeepsItsPredecessor(t *testing.T) {
	for _, c := range []struct {
		name    string
		async   bool
		drained bool // WaitCheckpoint consumes the failure before the abort
	}{{"sync", false, false}, {"async", true, false}, {"async-drained", true, true}} {
		a, b, _ := cgSystem(t)
		s := newCG(t, a, b)
		st := &hookStorage{Storage: fti.NewMemStorage()}
		m, err := NewManager(Config{Scheme: Traditional, Async: c.async, DegradedWrites: true}, st, s)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			s.Step()
		}
		if _, err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		before, err := m.WaitCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		s.Step()
		st.failNext.Store(true)
		if _, err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if c.drained {
			if _, err := m.WaitCheckpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.AbortLastCheckpoint(); err != nil {
			t.Fatal(err)
		}
		if got := m.LastInfo(); got.Seq != before.Seq || lastCkptIter(m) != 3 {
			t.Fatalf("%s: aborting a failed save moved the recovery target to seq %d (iteration %d), want seq %d (iteration 3)",
				c.name, got.Seq, lastCkptIter(m), before.Seq)
		}
		if it := recoverCheckpoint(t, m); it != 3 {
			t.Fatalf("%s: recovered to iteration %d, want the checkpoint at iteration 3", c.name, it)
		}
	}
}

// TestAbortOfAFailedFirstSaveKeepsAnEarlierRunsCheckpoint: a Manager
// over storage an earlier run left a checkpoint in has committed
// nothing of its own; when its first save fails on the spot, it opened
// nothing, and aborting it must not drop the earlier run's checkpoint.
func TestAbortOfAFailedFirstSaveKeepsAnEarlierRunsCheckpoint(t *testing.T) {
	a, b, _ := cgSystem(t)
	s := newCG(t, a, b)
	st := &hookStorage{Storage: fti.NewMemStorage()}
	earlier, err := NewManager(Config{Scheme: Traditional}, st, s)
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	if _, err := earlier.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{Scheme: Traditional, DegradedWrites: true}, st, s)
	if err != nil {
		t.Fatal(err)
	}
	s.Step()
	st.failNext.Store(true)
	if _, err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := m.AbortLastCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if n := m.Checkpointer().CheckpointCount(); n != 1 {
		t.Fatalf("%d checkpoints in storage after aborting a save that failed, want the earlier run's 1", n)
	}
}

// TestAbortWithKeepOneLeavesNoPhantomCheckpoint: with a retention
// window of 1, aborting the latest checkpoint empties storage (the gc
// already removed its predecessor), and HasCheckpoint must say so —
// otherwise the failure handler would attempt a recovery that can only
// fail instead of restarting from scratch.
func TestAbortWithKeepOneLeavesNoPhantomCheckpoint(t *testing.T) {
	for _, async := range []bool{false, true} {
		a, b, _ := cgSystem(t)
		s := newCG(t, a, b)
		m, err := NewManager(Config{Scheme: Traditional, Async: async}, fti.NewMemStorage(), s)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Checkpointer().SetKeep(1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			s.Step()
			if _, err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if _, err := m.WaitCheckpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.AbortLastCheckpoint(); err != nil {
			t.Fatal(err)
		}
		if m.HasCheckpoint() {
			t.Fatalf("async=%v: HasCheckpoint()==true with empty storage", async)
		}
		rep, err := m.RecoverTiered(make([]float64, a.Rows))
		if err != nil || rep.Used != TierRestartZero || len(rep.Attempts) != 1 {
			t.Fatalf("async=%v: RecoverTiered = %+v, %v; want restart-zero with no checkpoint attempted", async, rep, err)
		}
	}
}

// TestAsyncConcurrentStepping exercises the actual overlap under the
// race detector: the solver mutates its state while background encodes
// and writes are in flight, checkpoints are never awaited explicitly,
// and a mid-run recovery drains whatever is in the pipe.
func TestAsyncConcurrentStepping(t *testing.T) {
	a, b, xe := cgSystem(t)
	s := newCG(t, a, b)
	m, err := NewManager(Config{
		Scheme:   Lossy,
		Interval: 5,
		Async:    true,
		SZParams: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4},
	}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	failed := false
	res, err := solver.RunToConvergence(s, solver.Options{MaxIter: 5000}, func(it int, rnorm float64) error {
		if err := checkpointIfDue(m); err != nil {
			return err
		}
		if !failed && it == 42 {
			failed = true
			recoverCheckpoint(t, m)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("async-checkpointed CG did not converge")
	}
	last, err := m.WaitCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	if last.Seq == 0 {
		t.Fatal("no async saves happened")
	}
	_ = xe
}

// HasCheckpoint reports whether at least one committed checkpoint
// exists. An async save still in flight does not count: until its
// write completes it is not a recovery target.
func (m *Manager) HasCheckpoint() bool {
	m.fold()
	return m.last.Seq != 0
}

// slowStorage sleeps before every write, longer than the solver takes
// to reach the next save.
type slowStorage struct {
	fti.Storage
	delay time.Duration
}

func (s *slowStorage) Write(name string, data []byte) error {
	time.Sleep(s.delay)
	return s.Storage.Write(name, data)
}

func (s *slowStorage) WriteBatched(name string, data []byte) error { return s.Write(name, data) }

// firstWait strikes the first backpressure wait, at its end, and keeps
// the record of the save the wait drained.
type firstWait struct {
	m       *Manager
	drained fti.Info
	struck  bool
}

func (f *firstWait) Strikes(w Window) (float64, bool) {
	if w.Op != OpWait || f.struck {
		return 0, false
	}
	f.struck = true
	f.drained, _, _ = f.m.AsyncCheckpointer().Peek()
	return w.End, true
}

// TestDriveBackpressureWindow: on the wall clock, a save that opens
// while its predecessor is still writing waits for it, and the driver
// charges that wait to the solver as backpressure. A failure inside the
// wait loses no committed work: the drained save committed, and
// recovery lands on it.
func TestDriveBackpressureWindow(t *testing.T) {
	run := func(failures func(*Manager) FailureSource) *Outcome {
		a, b, _ := cgSystem(t)
		s := newCG(t, a, b)
		st := &slowStorage{Storage: fti.NewMemStorage(), delay: 10 * time.Millisecond}
		m, err := NewManager(Config{Scheme: Traditional, Async: true, Interval: 2}, st, s)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		m.Instrument(reg, nil)
		cfg := DriveConfig{Stepper: s, Manager: m, X0: make([]float64, a.Rows), MaxIterations: 2000}
		if failures != nil {
			cfg.Failures = failures(m)
		}
		out, err := Drive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Converged {
			t.Fatal("did not converge")
		}
		if committed := reg.Snapshot().Get(obs.MFTICheckpointsTotal); committed == nil || int(committed.Value) != out.Checkpoints {
			t.Errorf("%d checkpoints counted, the pipeline committed %v", out.Checkpoints, committed)
		}
		return out
	}

	out := run(nil)
	if out.BackpressureTime <= 0 || out.BackpressureTime > out.CheckpointTime {
		t.Errorf("backpressure %g s of %g s checkpointing: want a positive share of it", out.BackpressureTime, out.CheckpointTime)
	}

	var src *firstWait
	out = run(func(m *Manager) FailureSource { src = &firstWait{m: m}; return src })
	if !src.struck || src.drained.Seq == 0 {
		t.Fatalf("the failure did not land in a wait for a committed save (struck=%v, drained %+v)", src.struck, src.drained)
	}
	if failures, tiers, _ := out.Recoveries(); failures != 1 || len(out.RecoveryReports) != 1 || tiers[TierCheckpoint] != 1 || out.AbortedCheckpoints != 0 {
		t.Fatalf("failures=%d reports=%d recoveries by tier %v aborted=%d, want 1 failure, 1 report, 1 checkpoint restart, 0 aborted",
			failures, len(out.RecoveryReports), tiers, out.AbortedCheckpoints)
	}
	rep := out.RecoveryReports[0]
	last := rep.Attempts[len(rep.Attempts)-1]
	if rep.Used != TierCheckpoint || rep.Iteration != src.drained.Iteration || !last.Accepted || last.Seq != src.drained.Seq {
		t.Errorf("recovered by %v from iteration %d (seq %d), want the drained save: iteration %d, seq %d",
			rep.Used, rep.Iteration, last.Seq, src.drained.Iteration, src.drained.Seq)
	}
	if out.BackpressureTime <= 0 {
		t.Errorf("the struck wait charged no backpressure")
	}
}
