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
	var e ewma
	if e.ok || e.value != 0 {
		t.Fatal("fresh EWMA should be empty")
	}
	e.observe(10)
	if !e.ok || e.value != 10 {
		t.Fatalf("first sample must initialize: %v", e.value)
	}
	e.observe(20)
	if want := alpha*20 + (1-alpha)*10; e.value != want {
		t.Fatalf("%g-smoothed 10→20 should be %g, got %v", alpha, want, e.value)
	}
	for i := 0; i < 60; i++ {
		e.observe(42)
	}
	if math.Abs(e.value-42) > 1e-6 {
		t.Fatalf("EWMA did not converge to the constant: %v", e.value)
	}
}

// TestConfigValidation: bad configs are rejected.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},                                    // no prior MTTI
		{PriorMTTI: -1},                       // negative prior
		{PriorMTTI: 100, InitialInterval: -1}, // negative bootstrap
		{PriorMTTI: 100, MinInterval: -1},     // negative clamp
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
// the planned interval equals Daly's formula evaluated at the
// estimated MTTI and cost — the controller rediscovers the offline
// plan without being told C or λ.
func TestSyncPlanMatchesPolicyOnKnownEstimates(t *testing.T) {
	c := mustNew(t, Config{PriorMTTI: 500})
	const cost = 8.0
	now := 0.0
	for i := 0; i < 40; i++ {
		now += 50
		c.ObserveCheckpoint(CheckpointObs{SyncSeconds: cost})
	}
	got := c.Interval(now)
	want := model.DalyInterval(1/c.Estimates(now).Lambda, cost)
	if math.Abs(got-want) > 1e-9*want {
		t.Errorf("interval %g, want Daly's %g", got, want)
	}
}

// TestObservationsPickTheCostModel: nobody tells the controller whether
// the pipeline is overlapped. Before any observation both controllers
// plan InitialInterval; fed only SyncSeconds, one plans Daly's formula
// on the sync cost; fed only capture/background observations, the other
// plans the bisection fixed point over the overlapped stall.
func TestObservationsPickTheCostModel(t *testing.T) {
	cfg := Config{PriorMTTI: 1000, InitialInterval: 25}
	sync, async := mustNew(t, cfg), mustNew(t, cfg)
	for _, c := range []*Controller{sync, async} {
		if got := c.Interval(0); got != cfg.InitialInterval {
			t.Fatalf("before any observation: interval %g, want InitialInterval %g", got, cfg.InitialInterval)
		}
	}
	const tcap, tbg = 0.01, 40.0
	now := 0.0
	for i := 0; i < 10; i++ {
		now += 60
		sync.ObserveCheckpoint(CheckpointObs{SyncSeconds: tcap + tbg})
		async.ObserveCheckpoint(CheckpointObs{CaptureSeconds: tcap, BackgroundSeconds: tbg})
	}
	mtti := 1 / sync.Estimates(now).Lambda
	if got, want := sync.Interval(now), model.DalyInterval(mtti, tcap+tbg); got != want {
		t.Fatalf("sync-fed plan %g, want Daly(M̂, Ĉ) = %g", got, want)
	}
	tau := async.Interval(now)
	if self := model.DalyInterval(mtti, model.AsyncEffectiveStall(tcap, tbg, tau)); math.Abs(self-tau) > 1e-6*tau {
		t.Fatalf("overlap-fed plan %g is not the fixed point: Daly(M̂, stall(τ)) = %g", tau, self)
	}
	if tau >= tbg || tau >= sync.Interval(now) {
		t.Fatalf("overlap-fed plan %g should sit below t̂bg %g and below the sync plan %g", tau, tbg, sync.Interval(now))
	}
}

// TestFailureObservationsShortenInterval: more failures ⇒ higher λ̂ ⇒
// shorter interval.
func TestFailureObservationsShortenInterval(t *testing.T) {
	c := mustNew(t, Config{PriorMTTI: 10000})
	c.ObserveCheckpoint(CheckpointObs{SyncSeconds: 5})
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
		c.ObserveCheckpoint(CheckpointObs{SyncSeconds: 12})
	}
	high := c.Interval(now)
	for i := 0; i < 30; i++ {
		now += 30
		c.ObserveCheckpoint(CheckpointObs{SyncSeconds: 2})
	}
	low := c.Interval(now)
	if low >= high {
		t.Fatalf("interval did not track the cost drift: %g → %g", high, low)
	}
	// Young-style √C scaling: a 6× cost drop should roughly halve the
	// interval (the censored MTTI keeps growing between the two plans,
	// so the ratio sits a bit above the pure √(2/12) ≈ 0.41).
	if got := low / high; got < 0.3 || got > 0.65 {
		t.Fatalf("interval ratio %g, want ≈0.4–0.6 for a 6× cost drop", got)
	}
}

// TestAsyncFixedPointDegeneratesToCaptureStall: when Daly's interval
// for the capture stall alone exceeds the background time, the fixed
// point is Daly(M̂, t̂cap) — the overlapped cost, not the raw one.
func TestAsyncFixedPointDegeneratesToCaptureStall(t *testing.T) {
	c := mustNew(t, Config{PriorMTTI: 10000})
	now := 0.0
	for i := 0; i < 20; i++ {
		now += 100
		c.ObserveCheckpoint(CheckpointObs{CaptureSeconds: 0.5, BackgroundSeconds: 10})
	}
	got := c.Interval(now)
	mtti := 1 / c.Estimates(now).Lambda
	want := model.DalyInterval(mtti, 0.5)
	if want <= 10 {
		t.Fatalf("test setup broken: capture-only interval %g should exceed tbg 10", want)
	}
	if math.Abs(got-want) > 1e-6*want {
		t.Fatalf("async interval %g, want capture-only plan %g", got, want)
	}
	// Overlap pays: the async stall (0.5 s) is far below the sync cost
	// (10.5 s), so the async plan checkpoints much more often — Daly's
	// interval grows with √C — at a lower modeled overhead.
	sync := mustNew(t, Config{PriorMTTI: 10000})
	for i := 0; i < 20; i++ {
		sync.ObserveCheckpoint(CheckpointObs{SyncSeconds: 10.5})
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
// and satisfies τ = Daly(M̂, stall(τ)) to solver precision.
func TestAsyncFixedPointBackpressureRegime(t *testing.T) {
	c := mustNew(t, Config{PriorMTTI: 10000})
	now := 0.0
	const tcap, tbg = 0.001, 100.0
	for i := 0; i < 30; i++ {
		now += 200
		c.ObserveCheckpoint(CheckpointObs{CaptureSeconds: tcap, BackgroundSeconds: tbg})
	}
	tau := c.Interval(now)
	mtti := 1 / c.Estimates(now).Lambda
	if tau >= tbg {
		t.Fatalf("fixed point %g should sit below tbg %g in the backpressure regime", tau, tbg)
	}
	stall := model.AsyncEffectiveStall(tcap, tbg, tau)
	self := model.DalyInterval(mtti, stall)
	if math.Abs(self-tau) > 1e-6*tau {
		t.Fatalf("not a fixed point: τ=%g but Daly(M, stall(τ))=%g", tau, self)
	}
}

// TestClampAndPlanEvery: clamps bound every plan, and the controller
// plans on every fresh observation — and only then.
func TestClampAndPlanEvery(t *testing.T) {
	c := mustNew(t, Config{PriorMTTI: 1000, MinInterval: 40, MaxInterval: 60})
	c.ObserveCheckpoint(CheckpointObs{SyncSeconds: 1e-9}) // →tiny τ, clamped up
	if got := c.Interval(1); got != 40 {
		t.Fatalf("min clamp: %g, want 40", got)
	}
	c.ObserveCheckpoint(CheckpointObs{SyncSeconds: 1e6}) // →huge τ, clamped down
	if got := c.Interval(2); got != 60 {
		t.Fatalf("max clamp: %g, want 60", got)
	}
	// Nothing new observed: the plan stands and nothing is re-planned.
	if got := c.Interval(50); got != 60 {
		t.Fatalf("re-planned without fresh data: %g", got)
	}
	if n := len(c.Trajectory()); n != 2 {
		t.Fatalf("trajectory has %d plans, want 2 (one per fresh observation)", n)
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
		c := mustNew(t, Config{PriorMTTI: 777})
		now := 0.0
		for i := 0; i < 25; i++ {
			now += 13.5
			c.ObserveCheckpoint(CheckpointObs{CaptureSeconds: 0.25, BackgroundSeconds: 3 + float64(i%5)})
			if i%7 == 3 {
				c.ObserveFailure(now + 1)
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

// TestEstimatesSnapshot: each cost feed lands in its own estimate, and
// failures in the rate and the count.
func TestEstimatesSnapshot(t *testing.T) {
	c := mustNew(t, Config{PriorMTTI: 100})
	c.ObserveCheckpoint(CheckpointObs{SyncSeconds: 7})
	c.ObserveCheckpoint(CheckpointObs{CaptureSeconds: 0.5, BackgroundSeconds: 9})
	c.ObserveFailure(5)
	est := c.Estimates(6)
	if est.SyncCost != 7 || est.Capture != 0.5 || est.Background != 9 || est.Failures != 1 {
		t.Fatalf("estimates %+v, want sync 7, capture 0.5, background 9, one failure", est)
	}
	if est.MTTI <= 0 || est.Lambda <= 0 || est.MTTI != 1/est.Lambda {
		t.Fatalf("degenerate rate estimates: %+v", est)
	}
}
