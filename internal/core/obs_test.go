package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/abft"
	"repro/internal/fti"
	"repro/internal/obs"
	"repro/internal/precond"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/sz"
)

// flakyListStorage fails List on demand — the restore walk then fails
// before any per-checkpoint read begins.
type flakyListStorage struct {
	*fti.MemStorage
	failList bool
}

func (s *flakyListStorage) List() ([]string, error) {
	if s.failList {
		return nil, errors.New("storage listing unavailable")
	}
	return s.MemStorage.List()
}

func newGuardedManager(t *testing.T, st fti.Storage) (*Manager, *solver.CG, *abft.Guard) {
	t.Helper()
	a := sparse.Poisson3D(8)
	b := sparse.OnesRHS(a.Rows)
	cg := solver.NewCG(a, precond.NewJacobiFromMatrix(a), b, nil, solver.SeqSpace{},
		solver.Options{RTol: 1e-8})
	g, err := abft.NewGuard(a, b, cg, abft.Config{Seed: 1})
	if err != nil {
		t.Fatalf("NewGuard: %v", err)
	}
	m, err := NewManager(Config{
		Scheme:   Lossy,
		SZParams: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4},
		ABFT:     g,
	}, st, cg)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m, cg, g
}

// Satellite fix: every attempt of an exhausted chain — the rejected
// ones and the final restart-from-zero — carries a measured duration.
func TestRecoverTieredRecordsAttemptDurations(t *testing.T) {
	r := newTieredRig(t, 1)
	r.steps(t, 4)
	r.checkpoint(t)
	r.steps(t, 4)

	r.g.CorruptRetained()
	r.corruptAllCheckpoints(t)
	r.g.FailNextRank()
	rep, err := r.m.RecoverTiered(r.x0)
	if err != nil {
		t.Fatalf("RecoverTiered: %v", err)
	}
	if rep.Used != TierRestartZero {
		t.Fatalf("used %v, want restart-zero; attempts %+v", rep.Used, rep.Attempts)
	}
	for i, att := range rep.Attempts {
		if att.Seconds <= 0 {
			t.Fatalf("attempt %d (%v, accepted=%v) has no duration: %+v",
				i, att.Tier, att.Accepted, att)
		}
	}
}

// Satellite fix: a restore walk that dies before reading any
// checkpoint (the storage listing failed) still reports the rejected
// checkpoint tier with the time it cost, instead of dropping it.
func TestRecoverTieredReportsFailedWalk(t *testing.T) {
	st := &flakyListStorage{MemStorage: fti.NewMemStorage()}
	m, cg, g := newGuardedManager(t, st)
	for i := 0; i < 4; i++ {
		cg.Step()
		g.Observe()
	}
	if _, err := m.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	for i := 0; i < 4; i++ {
		cg.Step()
		g.Observe()
	}

	st.failList = true
	g.CorruptRetained()
	g.FailNextRank()
	rep, err := m.RecoverTiered(make([]float64, len(cg.X())))
	if err != nil {
		t.Fatalf("RecoverTiered: %v", err)
	}
	if rep.Used != TierRestartZero {
		t.Fatalf("used %v, want restart-zero; attempts %+v", rep.Used, rep.Attempts)
	}
	// abft rejected, synthesized checkpoint rejection, restart-zero.
	if len(rep.Attempts) != 3 {
		t.Fatalf("attempts %+v, want 3", rep.Attempts)
	}
	walk := rep.Attempts[1]
	if walk.Tier != TierCheckpoint || walk.Accepted {
		t.Fatalf("second attempt %+v, want rejected checkpoint tier", walk)
	}
	if !strings.Contains(walk.Err, "listing unavailable") {
		t.Fatalf("walk rejection %q does not carry the storage error", walk.Err)
	}
	if walk.Seconds <= 0 {
		t.Fatalf("failed walk attempt has no duration: %+v", walk)
	}
}

// The Manager's bundle counts lifecycle events across every layer it
// owns, and the recovery chain lands per-attempt tier spans on the
// recovery track.
func TestManagerInstrumentCountsLifecycle(t *testing.T) {
	r := newTieredRig(t, 1)
	reg := obs.New()
	tr := obs.NewTracer()
	r.m.Instrument(reg, tr)

	r.steps(t, 5)
	r.checkpoint(t)
	r.steps(t, 5)
	r.checkpoint(t)
	r.g.FailNextRank()
	rep, err := r.m.RecoverTiered(r.x0)
	if err != nil {
		t.Fatalf("RecoverTiered: %v", err)
	}
	if rep.Used != TierABFT {
		t.Fatalf("used %v, want abft", rep.Used)
	}

	snap := reg.Snapshot()
	want := map[string]float64{
		obs.MCoreCheckpointsCommittedTotal: 2,
		obs.MFTICheckpointsTotal:           2,
		obs.MABFTReconstructionsTotal:      1,
	}
	for name, v := range want {
		md := snap.Get(name)
		if md == nil || md.Value != v {
			t.Fatalf("%s = %+v, want %g", name, md, v)
		}
	}
	if md := snap.Get(obs.MABFTObservesTotal); md == nil || md.Value != 10 {
		t.Fatalf("abft_observes_total = %+v, want 10", md)
	}
	if md := snap.Get(obs.MCoreRecoveriesTotal, obs.L("tier", "abft")); md == nil || md.Value != 1 {
		t.Fatalf("core_recoveries_total{tier=abft} = %+v, want 1", md)
	}
	if md := snap.Get(obs.MFTICompressionRatio); md == nil || md.Value <= 0 {
		t.Fatalf("fti_compression_ratio = %+v, want positive gauge", md)
	}

	var tierSpans, encodeSpans int
	for _, e := range tr.Events() {
		switch {
		case strings.HasPrefix(e.Name, obs.SpanTierPrefix):
			tierSpans++
			if e.Track != obs.TrackRecovery {
				t.Fatalf("tier span %q on track %d, want recovery track", e.Name, e.Track)
			}
		case e.Name == obs.SpanEncode:
			encodeSpans++
		}
	}
	if tierSpans != len(rep.Attempts) {
		t.Fatalf("%d tier spans, want one per attempt (%d)", tierSpans, len(rep.Attempts))
	}
	if encodeSpans != 2 {
		t.Fatalf("%d encode spans, want 2 (one per checkpoint)", encodeSpans)
	}
}

// planFailures is a step-keyed failure source in the manner of
// cmd/solve's -inject: the process is lost once at the end of the step
// that brings the solver's counter to an iteration in proc, and a save
// is pinned open at an iteration in mid and struck before it commits.
type planFailures struct{ proc, mid map[int]bool }

func (f *planFailures) Strikes(w Window) (float64, bool) {
	switch w.Op {
	case OpStep:
		hit := f.proc[w.Iteration]
		delete(f.proc, w.Iteration)
		return w.End, hit
	case OpCadence:
		return w.End, f.mid[w.Iteration]
	case OpCheckpoint:
		hit := f.mid[w.Iteration]
		delete(f.mid, w.Iteration)
		return w.End, hit
	}
	return 0, false
}

// TestDriveEmitsTraceAndMetrics: a measured run's lifecycle counters
// agree with its Outcome, every failure is one instant on the trace,
// and the driver's spans and the instrumented Manager's share one wall
// clock, inside the run.
func TestDriveEmitsTraceAndMetrics(t *testing.T) {
	a := sparse.Poisson3D(8)
	b := sparse.OnesRHS(a.Rows)
	cg := solver.NewCG(a, precond.NewJacobiFromMatrix(a), b, nil, solver.SeqSpace{}, solver.Options{RTol: 1e-8})
	g, err := abft.NewGuard(a, b, cg, abft.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{Scheme: Lossy, Interval: 5, ABFT: g}, fti.NewMemStorage(), cg)
	if err != nil {
		t.Fatal(err)
	}
	reg, tr := obs.New(), obs.NewTracer()
	m.Instrument(reg, tr)
	begin := tr.Now()
	out, err := Drive(DriveConfig{
		Stepper: cg, Manager: m, X0: make([]float64, a.Rows), Metrics: reg, Tracer: tr,
		Failures: &planFailures{proc: map[int]bool{7: true, 18: true}, mid: map[int]bool{12: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	end := tr.Now()
	if !out.Converged || out.Failures != 3 || out.AbortedCheckpoints != 1 {
		t.Fatalf("converged=%v failures=%d aborted=%d, want a converged run with 3 failures, one inside a save",
			out.Converged, out.Failures, out.AbortedCheckpoints)
	}

	snap := reg.Snapshot()
	for _, c := range []struct {
		name   string
		labels []obs.Label
		want   float64
	}{
		{obs.MSimFailuresTotal, nil, float64(out.Failures)},
		{obs.MSimCheckpointsTotal, nil, float64(out.Checkpoints)},
		{obs.MSimCheckpointAbortsTotal, nil, float64(out.AbortedCheckpoints)},
		{obs.MSimRecoveriesTotal, []obs.Label{obs.L("tier", "abft")}, float64(out.ABFTRecoveries)},
		{obs.MSimElapsedSeconds, nil, out.SimSeconds},
	} {
		if md := snap.Get(c.name, c.labels...); md == nil || md.Value != c.want {
			t.Errorf("%s%v = %+v, want %g", c.name, c.labels, md, c.want)
		}
	}

	names := map[string]int{}
	for _, e := range tr.Events() {
		names[e.Name]++
		if e.Start < begin || e.Start+e.Dur > end {
			t.Errorf("%q spans [%g, %g], outside the run's [%g, %g]", e.Name, e.Start, e.Start+e.Dur, begin, end)
		}
	}
	for _, want := range []string{obs.SpanCompute, obs.SpanEncode, obs.SpanTierPrefix + "abft"} {
		if names[want] == 0 {
			t.Errorf("trace has no %q events; got %v", want, names)
		}
	}
	if names[obs.SpanFailure] != out.Failures {
		t.Errorf("%d failure instants, want %d", names[obs.SpanFailure], out.Failures)
	}
}
