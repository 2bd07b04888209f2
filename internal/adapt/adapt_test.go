package adapt

import (
	"math"
	"testing"

	"repro/internal/model"
)

func mustNew(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestEWMA: initialization, smoothing, convergence to a constant.
func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Ok() || e.Value() != 0 {
		t.Fatal("fresh EWMA should be empty")
	}
	e.Observe(10)
	if !e.Ok() || e.Value() != 10 {
		t.Fatalf("first sample must initialize: %v", e.Value())
	}
	e.Observe(20)
	if e.Value() != 15 {
		t.Fatalf("0.5-smoothed 10→20 should be 15, got %v", e.Value())
	}
	for i := 0; i < 60; i++ {
		e.Observe(42)
	}
	if math.Abs(e.Value()-42) > 1e-6 {
		t.Fatalf("EWMA did not converge to the constant: %v", e.Value())
	}
}

// TestConfigValidation: bad configs are rejected.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},                              // no prior MTTI
		{PriorMTTI: -1},                 // negative prior
		{PriorMTTI: 100, Alpha: 1.5},    // alpha out of range
		{PriorMTTI: 100, Alpha: -0.1},   // alpha negative
		{PriorMTTI: 100, PlanEvery: -1}, // negative epoch
		{PriorMTTI: 100, MinInterval: 10, MaxInterval: 5}, // inverted clamp
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: config %+v accepted", i, cfg)
		}
	}
	if _, err := New(Config{PriorMTTI: 3600}); err != nil {
		t.Errorf("minimal valid config rejected: %v", err)
	}
}

// TestInitialIntervalBeforeObservations: with no cost data the
// controller keeps its bootstrap interval.
func TestInitialIntervalBeforeObservations(t *testing.T) {
	c := mustNew(t, Config{PriorMTTI: 2000})
	if got, want := c.Interval(0), 100.0; got != want { // PriorMTTI/20
		t.Fatalf("bootstrap interval %g, want %g", got, want)
	}
	c2 := mustNew(t, Config{PriorMTTI: 2000, InitialInterval: 37})
	if got := c2.Interval(0); got != 37 {
		t.Fatalf("explicit initial interval %g, want 37", got)
	}
}

// TestSyncPlanMatchesPolicyOnKnownEstimates: after observations settle
// the planned interval equals the policy formula evaluated at the
// estimated MTTI and cost — the controller rediscovers the offline
// plan without being told C or λ.
func TestSyncPlanMatchesPolicyOnKnownEstimates(t *testing.T) {
	for _, pol := range []Policy{PolicyYoung, PolicyDaly} {
		c := mustNew(t, Config{PriorMTTI: 500, Policy: pol})
		const cost = 8.0
		now := 0.0
		for i := 0; i < 40; i++ {
			now += 50
			c.ObserveCheckpoint(CheckpointObs{When: now, SyncSeconds: cost})
		}
		got := c.Interval(now)
		mtti := 1 / c.Estimates(now).Lambda
		var want float64
		if pol == PolicyYoung {
			want = model.YoungInterval(mtti, cost)
		} else {
			want = model.DalyInterval(mtti, cost)
		}
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("%v: interval %g, want policy value %g", pol, got, want)
		}
	}
}

// TestFailureObservationsShortenInterval: more failures ⇒ higher λ̂ ⇒
// shorter interval.
func TestFailureObservationsShortenInterval(t *testing.T) {
	c := mustNew(t, Config{PriorMTTI: 10000})
	c.ObserveCheckpoint(CheckpointObs{When: 10, SyncSeconds: 5})
	before := c.Interval(10)
	// 100 failures 100 s apart: the posterior MTTI — (1·10000 + 10000
	// observed seconds) over (1 + 100) events — collapses toward 100 s
	// despite the 100× too-optimistic prior.
	now := 10.0
	for i := 0; i < 100; i++ {
		now += 100
		c.ObserveFailure(now)
	}
	after := c.Interval(now)
	if after >= before {
		t.Fatalf("interval did not shrink after failures: %g → %g", before, after)
	}
	est := c.Estimates(now)
	if est.Failures != 100 {
		t.Fatalf("failures %d, want 100", est.Failures)
	}
	if est.MTTI > 250 || est.MTTI < 150 {
		t.Fatalf("posterior MTTI %g, want ≈198 (prior washout)", est.MTTI)
	}
}

// TestCostDriftMovesInterval: when the observed checkpoint cost drifts
// down (compression ratio improving mid-run), the planned interval
// shrinks toward the new optimum — the behavior a fixed interval
// cannot have.
func TestCostDriftMovesInterval(t *testing.T) {
	c := mustNew(t, Config{PriorMTTI: 1000})
	now := 0.0
	for i := 0; i < 30; i++ {
		now += 30
		c.ObserveCheckpoint(CheckpointObs{When: now, SyncSeconds: 12, RawBytes: 8 << 20, Bytes: 4 << 20})
	}
	high := c.Interval(now)
	r1 := c.Estimates(now).Ratio
	for i := 0; i < 30; i++ {
		now += 30
		c.ObserveCheckpoint(CheckpointObs{When: now, SyncSeconds: 2, RawBytes: 8 << 20, Bytes: 1 << 20})
	}
	low := c.Interval(now)
	r2 := c.Estimates(now).Ratio
	if low >= high {
		t.Fatalf("interval did not track the cost drift: %g → %g", high, low)
	}
	// Young-style √C scaling: a 6× cost drop should roughly halve the
	// interval (the censored MTTI keeps growing between the two plans,
	// so the ratio sits a bit above the pure √(2/12) ≈ 0.41).
	if got := low / high; got < 0.3 || got > 0.65 {
		t.Fatalf("interval ratio %g, want ≈0.4–0.6 for a 6× cost drop", got)
	}
	if r2 <= r1 {
		t.Fatalf("compression-ratio estimate did not drift: %g → %g", r1, r2)
	}
}

// TestAsyncFixedPointDegeneratesToCaptureStall: when the policy
// interval for the capture stall alone exceeds the background time,
// the fixed point is policy(M̂, t̂cap) — the overlapped cost, not the
// raw one.
func TestAsyncFixedPointDegeneratesToCaptureStall(t *testing.T) {
	c := mustNew(t, Config{PriorMTTI: 10000, Async: true, Policy: PolicyYoung})
	now := 0.0
	for i := 0; i < 20; i++ {
		now += 100
		c.ObserveCheckpoint(CheckpointObs{When: now, CaptureSeconds: 0.5, BackgroundSeconds: 10})
	}
	got := c.Interval(now)
	mtti := 1 / c.Estimates(now).Lambda
	want := model.YoungInterval(mtti, 0.5)
	if want <= 10 {
		t.Fatalf("test setup broken: capture-only interval %g should exceed tbg 10", want)
	}
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("async interval %g, want capture-only plan %g", got, want)
	}
	// Overlap pays: the async stall (0.5 s) is far below the sync cost
	// (10.5 s), so the async plan checkpoints much more often — Young's
	// interval scales with √C — at a lower modeled overhead.
	sync := mustNew(t, Config{PriorMTTI: 10000, Policy: PolicyYoung})
	for i := 0; i < 20; i++ {
		sync.ObserveCheckpoint(CheckpointObs{When: float64(i) * 100, SyncSeconds: 10.5})
	}
	s := sync.Interval(now)
	if got >= s {
		t.Fatalf("async plan %g should be shorter than the sync plan %g (cheaper stall)", got, s)
	}
	lam := c.Estimates(now).Lambda
	if oa, os := model.ExpectedOverheadRatio(lam, 0.5), model.ExpectedOverheadRatio(lam, 10.5); oa >= os {
		t.Fatalf("async overhead %g not below sync %g", oa, os)
	}
}

// TestAsyncFixedPointBackpressureRegime: with a background write far
// longer than the capture-only plan, the fixed point lands below t̂bg
// and satisfies τ = policy(M̂, stall(τ)) to solver precision.
func TestAsyncFixedPointBackpressureRegime(t *testing.T) {
	c := mustNew(t, Config{PriorMTTI: 10000, Async: true, Policy: PolicyYoung})
	now := 0.0
	const tcap, tbg = 0.001, 100.0
	for i := 0; i < 30; i++ {
		now += 200
		c.ObserveCheckpoint(CheckpointObs{When: now, CaptureSeconds: tcap, BackgroundSeconds: tbg})
	}
	tau := c.Interval(now)
	mtti := 1 / c.Estimates(now).Lambda
	if tau >= tbg {
		t.Fatalf("fixed point %g should sit below tbg %g in the backpressure regime", tau, tbg)
	}
	stall := model.AsyncEffectiveStall(tcap, tbg, tau)
	self := model.YoungInterval(mtti, stall)
	if math.Abs(self-tau) > 1e-6*tau {
		t.Fatalf("not a fixed point: τ=%g but policy(M, stall(τ))=%g", tau, self)
	}
}

// TestClampAndPlanEvery: clamps bound every plan; PlanEvery batches
// re-planning to the epoch cadence.
func TestClampAndPlanEvery(t *testing.T) {
	c := mustNew(t, Config{PriorMTTI: 1000, MinInterval: 40, MaxInterval: 60, PlanEvery: 100})
	c.ObserveCheckpoint(CheckpointObs{When: 1, SyncSeconds: 1e-9}) // →tiny τ, clamped up
	if got := c.Interval(1); got != 40 {
		t.Fatalf("min clamp: %g, want 40", got)
	}
	c.ObserveCheckpoint(CheckpointObs{When: 2, SyncSeconds: 1e6}) // →huge τ, clamped down
	// Inside the planning epoch: the old plan stands despite fresh data.
	if got := c.Interval(50); got != 40 {
		t.Fatalf("re-planned inside the epoch: %g", got)
	}
	if got := c.Interval(101); got != 60 {
		t.Fatalf("max clamp after epoch: %g, want 60", got)
	}
	if n := len(c.Trajectory()); n != 2 {
		t.Fatalf("trajectory has %d plans, want 2 (one per epoch)", n)
	}
}

// TestReplanWithoutCostKeepsPlan: failures alone (no checkpoint cost
// yet) re-plan but cannot move the interval off the bootstrap.
func TestReplanWithoutCostKeepsPlan(t *testing.T) {
	c := mustNew(t, Config{PriorMTTI: 2000})
	c.ObserveFailure(10)
	if got := c.Interval(10); got != 100 {
		t.Fatalf("interval moved without any cost estimate: %g", got)
	}
	if len(c.Trajectory()) != 1 {
		t.Fatalf("expected one recorded plan, got %d", len(c.Trajectory()))
	}
}

// TestTrajectoryDeterminism: identical observation sequences produce
// identical trajectories, bit for bit.
func TestTrajectoryDeterminism(t *testing.T) {
	run := func() []Plan {
		c := mustNew(t, Config{PriorMTTI: 777, Async: true})
		now := 0.0
		for i := 0; i < 25; i++ {
			now += 13.5
			c.ObserveCheckpoint(CheckpointObs{
				When: now, CaptureSeconds: 0.25, BackgroundSeconds: 3 + float64(i%5),
				RawBytes: 1 << 20, Bytes: 1 << 17,
			})
			if i%7 == 3 {
				c.ObserveFailure(now + 1)
				c.ObserveRecoveryKind(RecoveryObs{Seconds: 3, RestartIO: true})
			}
			c.Interval(now + 2)
		}
		return c.Trajectory()
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("trajectory lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plan %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestEstimatesSnapshot: recovery observations and ratio feed the
// Estimates view.
func TestEstimatesSnapshot(t *testing.T) {
	c := mustNew(t, Config{PriorMTTI: 100})
	c.ObserveRecoveryKind(RecoveryObs{Seconds: 7, RestartIO: true})
	c.ObserveRecoveryKind(RecoveryObs{Seconds: 9, RestartIO: true})
	est := c.Estimates(6)
	if est.Recovery <= 7 || est.Recovery >= 9 {
		t.Fatalf("recovery EWMA %g, want between the samples", est.Recovery)
	}
	if est.MTTI <= 0 || est.Lambda <= 0 {
		t.Fatalf("degenerate rate estimates: %+v", est)
	}
}

// TestObserveRecoveryKindSeparatesTiers pins the tier separation: ABFT
// recoveries feed their own EWMA and counter, checkpoint restarts feed
// the I/O restart-cost estimate the Young/Daly plan consumes, and
// neither moves the failure-rate posterior.
func TestObserveRecoveryKindSeparatesTiers(t *testing.T) {
	c, err := New(Config{PriorMTTI: 1000})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c.ObserveFailure(100)
	lambdaBefore := c.Estimates(200).Lambda

	c.ObserveRecoveryKind(RecoveryObs{Seconds: 8, RestartIO: true})
	c.ObserveRecoveryKind(RecoveryObs{Seconds: 0.25, RestartIO: false})
	c.ObserveRecoveryKind(RecoveryObs{Seconds: 0.75, RestartIO: false})

	est := c.Estimates(200)
	if est.Lambda != lambdaBefore {
		t.Fatalf("recovery observations moved lambda: %.6g → %.6g", lambdaBefore, est.Lambda)
	}
	if est.Recovery != 8 {
		t.Fatalf("I/O restart EWMA %.3g, want 8 (ABFT costs must not dilute it)", est.Recovery)
	}
	if est.ABFTRecovery <= 0 || est.ABFTRecovery >= 8 {
		t.Fatalf("ABFT recovery EWMA %.3g, want within the observed 0.25–0.75 band", est.ABFTRecovery)
	}
	if est.IORestarts != 1 || est.ABFTRecoveries != 2 {
		t.Fatalf("recovery kind counts io=%d abft=%d, want 1/2", est.IORestarts, est.ABFTRecoveries)
	}

	// A second checkpoint restart moves only the I/O count.
	c.ObserveRecoveryKind(RecoveryObs{Seconds: 8, RestartIO: true})
	if got := c.Estimates(200); got.IORestarts != 2 || got.ABFTRecoveries != 2 {
		t.Fatalf("an I/O restart miscounted: io=%d abft=%d, want 2/2", got.IORestarts, got.ABFTRecoveries)
	}

	// Negative durations are ignored entirely.
	c.ObserveRecoveryKind(RecoveryObs{Seconds: -1, RestartIO: false})
	if got := c.Estimates(200); got.ABFTRecoveries != 2 {
		t.Fatal("negative-duration recovery observation was counted")
	}
}
