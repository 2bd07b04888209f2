package core

import (
	"errors"
	"fmt"
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
		obs.MFTICheckpointsTotal: 2,
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
	if md := snap.Get(obs.MCoreRecoveriesTotal[TierABFT]); md == nil || md.Value != 1 {
		t.Fatalf("%s = %+v, want 1", obs.MCoreRecoveriesTotal[TierABFT], md)
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

// TestDriveEmitsTraceAndMetrics: the Manager's one bundle observes a
// measured Drive run, sync and async, and records each lifecycle event
// once — what the run's Outcome counts is read off the kept counters
// and spans by the identities below — every failure is one instant on
// the trace, and the driver's spans and the Manager's share one wall
// clock, inside the run.
func TestDriveEmitsTraceAndMetrics(t *testing.T) {
	for name, async := range map[string]bool{"sync": false, "async": true} {
		t.Run(name, func(t *testing.T) {
			a := sparse.Poisson3D(8)
			b := sparse.OnesRHS(a.Rows)
			cg := solver.NewCG(a, precond.NewJacobiFromMatrix(a), b, nil, solver.SeqSpace{}, solver.Options{RTol: 1e-8})
			g, err := abft.NewGuard(a, b, cg, abft.Config{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewManager(Config{Scheme: Lossy, Interval: 5, Async: async, ABFT: g}, fti.NewMemStorage(), cg)
			if err != nil {
				t.Fatal(err)
			}
			reg, tr := obs.New(), obs.NewTracer()
			m.Instrument(reg, tr)
			begin := tr.Now()
			out, err := Drive(DriveConfig{
				Stepper: cg, Manager: m, X0: make([]float64, a.Rows),
				Failures: &planFailures{proc: map[int]bool{7: true, 18: true}, mid: map[int]bool{12: true}},
				OnStep: func() {
					if cg.Iteration() == 18 {
						g.CorruptRetained() // the failure at 18 falls through ABFT to a checkpoint
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			end := tr.Now()
			if failures, tiers, _ := out.Recoveries(); !out.Converged || failures != 3 || out.AbortedCheckpoints != 1 || tiers[TierABFT] == 0 || tiers[TierCheckpoint] == 0 {
				t.Fatalf("converged=%v failures=%d aborted=%d recoveries by tier %v, want a converged run with 3 failures, one inside a save, recovered by ABFT and from a checkpoint",
					out.Converged, failures, out.AbortedCheckpoints, tiers)
			}
			snap, events := reg.Snapshot(), tr.Events()
			for _, err := range lifecycleIdentities(snap, events, out) {
				t.Error(err)
			}

			names := map[string]int{}
			for _, e := range events {
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
			if md := snap.Get(obs.MCoreIntervalSeconds); md == nil || md.Value <= 0 {
				t.Errorf("%s = %+v, want the last realized window", obs.MCoreIntervalSeconds, md)
			}
		})
	}
}

// lifecycleIdentities checks that the counters and spans an
// instrumented Manager records agree with the Outcome of the Drive run
// it observed, each event counted once:
//
//   - Σ over tiers of core_recoveries_<tier>_total = Failures (every
//     failure runs the chain once);
//   - core_recoveries_<tier>_total = the Outcome's tier counters, when no
//     report is Interrupted (the Outcome does not count an interrupted
//     chain, the Manager does);
//   - fti_checkpoints_total − core_checkpoints_aborted_total =
//     Checkpoints (a save a failure struck wrote, and then was dropped);
//   - one failure instant per failure, one tier span on the recovery
//     track per TierAttempt, and no span of any other recovery kind.
func lifecycleIdentities(snap obs.Snapshot, events []obs.SpanEvent, out *Outcome) (errs []error) {
	count := func(name string) int {
		if md := snap.Get(name); md != nil {
			return int(md.Value)
		}
		return 0
	}
	failures, want, _ := out.Recoveries()
	var tiers [TierRestartZero + 1]int
	recoveries := 0
	for t := range tiers {
		tiers[t] = count(obs.MCoreRecoveriesTotal[t])
		recoveries += tiers[t]
	}
	if recoveries != failures {
		errs = append(errs, fmt.Errorf("Σ %v = %d, want failures %d", obs.MCoreRecoveriesTotal, recoveries, failures))
	}
	attempts, interrupted := 0, false
	for _, rep := range out.RecoveryReports {
		attempts += len(rep.Attempts)
		interrupted = interrupted || rep.Interrupted
	}
	if !interrupted && tiers != want {
		errs = append(errs, fmt.Errorf("%v = %v, want %v", obs.MCoreRecoveriesTotal, tiers, want))
	}
	saves, aborted := count(obs.MFTICheckpointsTotal), count(obs.MCoreCheckpointsAbortedTotal)
	if saves-aborted != out.Checkpoints {
		errs = append(errs, fmt.Errorf("%s %d − %s %d = %d, want checkpoints %d",
			obs.MFTICheckpointsTotal, saves, obs.MCoreCheckpointsAbortedTotal, aborted, saves-aborted, out.Checkpoints))
	}
	var instants, tierSpans int
	for _, e := range events {
		switch {
		case e.Name == obs.SpanFailure:
			instants++
		case strings.HasPrefix(e.Name, obs.SpanTierPrefix) && e.Track == obs.TrackRecovery:
			tierSpans++
		case e.Cat == obs.CatRecovery || e.Track == obs.TrackRecovery:
			errs = append(errs, fmt.Errorf("recovery span %q on track %d is not one of the chain's attempts", e.Name, e.Track))
		}
	}
	if instants != failures {
		errs = append(errs, fmt.Errorf("%d failure instants, want %d", instants, failures))
	}
	if tierSpans != attempts {
		errs = append(errs, fmt.Errorf("%d tier spans on the recovery track, want one per attempt (%d)", tierSpans, attempts))
	}
	return errs
}
