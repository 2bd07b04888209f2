// Package adapt is the online checkpoint-interval controller: it
// closes the loop between the paper's analytic model and a running
// solve.
//
// The paper computes the optimal checkpoint interval offline from
// known per-checkpoint cost C, restart cost R, and failure rate λ
// (Young's Eq. 1, the Eq. 5/8 overhead model, Table 3). With lossy
// compression none of those are constants at runtime: the compression
// ratio tracks solver convergence (smoother iterates compress better,
// so C drifts downward), the asynchronous pipeline's solver-visible
// stall depends on storage contention, and λ is never known — only
// observed failures are. A fixed interval therefore leaves the modeled
// gains on the table. This package estimates all three online and
// re-plans the interval every planning epoch.
//
// # Estimators
//
// Per-checkpoint costs come from the instrumented checkpoint path
// (fti.Info's CaptureSeconds/EncodeSeconds/WriteSeconds and byte
// counts, or the simulator's modeled costs), smoothed by exponentially
// weighted moving averages:
//
//	est ← α·x + (1−α)·est
//
// with one EWMA each for the synchronous checkpoint cost, the
// asynchronous capture stall, the asynchronous background encode+write
// time, the recovery cost, and the achieved compression ratio. The
// failure rate is the censored-exponential posterior mean of
// failure.RateEstimator: a Gamma prior worth `weight` pseudo-failures
// at the configured prior MTTI, plus every observed inter-failure gap,
// plus the right-censored still-running gap — so the controller plans
// sensibly before the first failure and sharpens as failures arrive.
//
// # Policy
//
// Each re-plan solves for the interval τ from the estimated MTTI M̂ and
// per-checkpoint cost:
//
//   - synchronous runs: τ = policy(M̂, Ĉ) where policy is Young's
//     √(2·Ĉ·M̂) (model.YoungInterval) or Daly's higher-order formula
//     (model.DalyInterval, the default — it stays accurate when Ĉ
//     approaches M̂).
//
//   - asynchronous runs: the solver-visible cost per checkpoint is
//     itself a function of the interval — the background encode+write
//     overlaps iterations, so the stall is
//     model.AsyncEffectiveStall(t̂cap, t̂bg, τ) = t̂cap + max(0, t̂bg−τ)
//     — and the optimal interval is the fixed point
//
//     τ* = policy(M̂, AsyncEffectiveStall(t̂cap, t̂bg, τ*)).
//
//     The controller solves it by bisection: the right-hand side is
//     continuous and non-increasing in τ, so h(τ) = f(τ) − τ has
//     exactly one crossing, bracketed by [0, f(0)]. (Fixed-point
//     iteration — even damped — oscillates here: near the crossing
//     |f′| = M̂/τ* can far exceed 1.) In the common regime τ* ≥ t̂bg
//     this degenerates to policy(M̂, t̂cap), exactly the "interval
//     reflects the overlapped cost, not the raw one" planning the
//     ROADMAP asks for.
//
// The result is clamped to [MinInterval, MaxInterval] when configured,
// and the controller keeps its previous plan when the estimators have
// nothing new to say (no cost observed yet, or inside the current
// planning epoch).
//
// # Determinism
//
// The controller is a pure state machine: every method takes the
// current time (virtual or wall seconds) as an argument and nothing
// reads a real clock, so a simulated run driving it with virtual time
// is bitwise reproducible — same seed and failure trace, same interval
// trajectory (asserted under -race by the sim tests).
package adapt

import (
	"fmt"
	"math"

	"repro/internal/failure"
	"repro/internal/model"
)

// Policy selects the optimal-interval formula a re-plan solves.
type Policy int

const (
	// PolicyDaly plans with Daly's higher-order formula (the default):
	// accurate even when the checkpoint cost is comparable to the MTTI.
	PolicyDaly Policy = iota
	// PolicyYoung plans with Young's first-order √(2·C·M) (Eq. 1).
	PolicyYoung
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyDaly:
		return "daly"
	case PolicyYoung:
		return "young"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Config assembles a Controller.
type Config struct {
	// PriorMTTI is the prior mean time to interruption in seconds —
	// what the controller assumes before the first observed failure.
	// Required (> 0).
	PriorMTTI float64
	// PriorWeight is how many pseudo-failures of evidence the prior is
	// worth (default 1). Larger values make the controller slower to
	// move off the prior.
	PriorWeight float64
	// Async plans against the asynchronous pipeline's solver-visible
	// stall (the AsyncEffectiveStall fixed point) instead of the full
	// synchronous checkpoint cost. Feed CaptureSeconds and
	// BackgroundSeconds observations in this mode, SyncSeconds
	// otherwise.
	Async bool
	// Policy picks the optimal-interval formula (default PolicyDaly).
	Policy Policy
	// PlanEvery is the planning epoch in seconds: a re-plan happens at
	// most once per epoch, at the first Interval call with fresh
	// observations after the epoch elapses. Zero re-plans on every
	// fresh observation.
	PlanEvery float64
	// InitialInterval seeds the plan before any cost observation
	// exists. Zero defaults to PriorMTTI/20 — short enough to take the
	// first (cost-measuring) checkpoint early, long enough not to storm
	// storage before the estimators have data.
	InitialInterval float64
	// MinInterval / MaxInterval clamp every plan (0 = unclamped).
	MinInterval float64
	MaxInterval float64
	// Alpha is the EWMA smoothing weight of the cost estimators in
	// (0, 1]; the default 0.3 follows ~3–4 checkpoints of history.
	Alpha float64
}

// EWMA is an exponentially weighted moving average: Observe folds a
// sample in with weight α, Value reports the current estimate, and Ok
// reports whether any sample arrived yet.
type EWMA struct {
	alpha float64
	value float64
	ok    bool
}

// NewEWMA returns an estimator with smoothing weight alpha in (0, 1].
func NewEWMA(alpha float64) EWMA { return EWMA{alpha: alpha} }

// Observe folds in one sample. The first sample initializes the
// estimate directly.
func (e *EWMA) Observe(x float64) {
	if !e.ok {
		e.value, e.ok = x, true
		return
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
}

// Value returns the current estimate (0 before any observation).
func (e *EWMA) Value() float64 { return e.value }

// Ok reports whether at least one sample was observed.
func (e *EWMA) Ok() bool { return e.ok }

// CheckpointObs is one completed checkpoint's measured cost, fed to
// ObserveCheckpoint. Times are in seconds of the caller's clock
// (virtual or wall); zero-valued fields are simply not observed.
type CheckpointObs struct {
	// When the checkpoint completed (capture completed, in async mode).
	When float64
	// SyncSeconds is the full solver-visible cost of a synchronous
	// checkpoint (encode + write on the critical path).
	SyncSeconds float64
	// CaptureSeconds is the asynchronous capture stall; the rest of the
	// pipeline ran in the background for BackgroundSeconds.
	CaptureSeconds    float64
	BackgroundSeconds float64
	// RawBytes and Bytes are the checkpoint's bytes in/out; their ratio
	// feeds the compression-ratio estimator.
	RawBytes int
	Bytes    int
}

// Plan is one re-planning decision: the interval the controller chose
// at time When and the estimates it chose it from.
type Plan struct {
	When     float64 // when the plan was made
	Interval float64 // planned checkpoint interval, seconds
	Lambda   float64 // estimated failure rate at When
	Cost     float64 // estimated solver-visible cost per checkpoint at the planned interval
	Ratio    float64 // estimated compression ratio (0 before any byte observation)
}

// Estimates is a snapshot of the controller's current beliefs.
type Estimates struct {
	Lambda     float64 // failures per second (posterior mean, censored)
	MTTI       float64 // 1/Lambda
	SyncCost   float64 // EWMA of synchronous checkpoint seconds
	Capture    float64 // EWMA of async capture stall seconds
	Background float64 // EWMA of async background encode+write seconds
	Recovery   float64 // EWMA of checkpoint-restart (I/O) recovery seconds
	Ratio      float64 // EWMA of achieved compression ratio
	Failures   int     // real failures observed
	// ABFTRecovery is the EWMA of checkpoint-free (ABFT) recovery
	// seconds — priced in iterations, not PFS reads, so it is tracked
	// apart from the I/O restart cost. IORestarts / ABFTRecoveries
	// split the observed recoveries by tier; neither count enters the
	// failure-rate posterior.
	ABFTRecovery   float64
	IORestarts     int
	ABFTRecoveries int
	// BoundRatio is the EWMA of the audited observed/requested error
	// ratio from the quality telemetry feed (0 before any audit;
	// ≤ 1 means the compressor honored its bound). QualityObs counts
	// the audits folded in. Informational for now — no planning policy
	// consumes them yet.
	BoundRatio float64
	QualityObs int
}

// RecoveryObs is one completed recovery, fed to ObserveRecoveryKind.
// RestartIO distinguishes a checkpoint restart (PFS reads — the R the
// lossy-aware policies would consume) from an ABFT algorithmic
// reconstruction (no restart I/O; it costs iterations instead).
type RecoveryObs struct {
	Seconds   float64
	RestartIO bool
}

// QualityObs is one audited checkpoint's distortion summary, fed to
// ObserveQuality by the quality-telemetry layer.
type QualityObs struct {
	When float64
	// BoundRatio is observed max error / requested bound (≤ 1 means
	// the bound held); 0 when the checkpoint was lossless.
	BoundRatio float64
	// CompressionRatio is the achieved raw/encoded ratio.
	CompressionRatio float64
	// Relative marks a pointwise-relative bound (vs. absolute).
	Relative bool
}

// Controller is the online interval planner. It is not safe for
// concurrent use; drive it from the solver loop (or the simulator).
type Controller struct {
	cfg  Config
	rate *failure.RateEstimator

	syncCost EWMA
	capture  EWMA
	backgrnd EWMA
	recovery EWMA // checkpoint-restart (I/O) recoveries only
	abftRec  EWMA // ABFT (checkpoint-free) recoveries only
	ratio    EWMA
	boundRat EWMA // audited observed/requested error ratio
	qualObs  int  // quality audits folded in

	interval   float64
	lastPlanAt float64
	planned    bool // at least one re-plan happened
	dirty      bool // fresh observations since the last re-plan
	traj       []Plan
	met        ctrlMetrics
}

// New builds a Controller.
func New(cfg Config) (*Controller, error) {
	if cfg.PriorMTTI <= 0 {
		return nil, fmt.Errorf("adapt: PriorMTTI must be positive, got %g", cfg.PriorMTTI)
	}
	if cfg.PriorWeight == 0 {
		cfg.PriorWeight = 1
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.3
	}
	if cfg.Alpha < 0 || cfg.Alpha > 1 {
		return nil, fmt.Errorf("adapt: Alpha must be in (0, 1], got %g", cfg.Alpha)
	}
	if cfg.PlanEvery < 0 || cfg.MinInterval < 0 || cfg.MaxInterval < 0 || cfg.InitialInterval < 0 {
		return nil, fmt.Errorf("adapt: negative duration in config %+v", cfg)
	}
	if cfg.MaxInterval > 0 && cfg.MinInterval > cfg.MaxInterval {
		return nil, fmt.Errorf("adapt: MinInterval %g exceeds MaxInterval %g", cfg.MinInterval, cfg.MaxInterval)
	}
	if cfg.InitialInterval == 0 {
		cfg.InitialInterval = cfg.PriorMTTI / 20
	}
	rate, err := failure.NewRateEstimator(cfg.PriorMTTI, cfg.PriorWeight)
	if err != nil {
		return nil, fmt.Errorf("adapt: %w", err)
	}
	c := &Controller{
		cfg:      cfg,
		rate:     rate,
		syncCost: NewEWMA(cfg.Alpha),
		capture:  NewEWMA(cfg.Alpha),
		backgrnd: NewEWMA(cfg.Alpha),
		recovery: NewEWMA(cfg.Alpha),
		abftRec:  NewEWMA(cfg.Alpha),
		ratio:    NewEWMA(cfg.Alpha),
		boundRat: NewEWMA(cfg.Alpha),
	}
	c.interval = c.clamp(cfg.InitialInterval)
	return c, nil
}

// Async reports whether the controller plans against the asynchronous
// stall model.
func (c *Controller) Async() bool { return c.cfg.Async }

// ObserveCheckpoint folds one completed checkpoint's measured cost
// into the estimators.
func (c *Controller) ObserveCheckpoint(o CheckpointObs) {
	if o.SyncSeconds > 0 {
		c.syncCost.Observe(o.SyncSeconds)
		c.dirty = true
	}
	if o.CaptureSeconds > 0 || o.BackgroundSeconds > 0 {
		c.capture.Observe(math.Max(o.CaptureSeconds, 0))
		c.backgrnd.Observe(math.Max(o.BackgroundSeconds, 0))
		c.dirty = true
	}
	if o.RawBytes > 0 && o.Bytes > 0 {
		c.ratio.Observe(float64(o.RawBytes) / float64(o.Bytes))
	}
}

// ObserveRecoveryKind records one completed recovery with its tier
// flavor. Checkpoint restarts (RestartIO) feed the Recovery estimate;
// ABFT reconstructions feed the separate ABFTRecovery estimate, so a
// run where ABFT usually succeeds does not drag the I/O restart-cost
// estimate toward zero. Either way the failure-rate posterior is
// untouched — recoveries are consequences of failures already reported
// via ObserveFailure, never additional evidence about λ. Both estimates
// are informational: neither Young's nor Daly's formula consumes R, so
// recoveries do not trigger a re-plan (a lossy-aware policy folding the
// restart cost into the plan is a ROADMAP candidate).
func (c *Controller) ObserveRecoveryKind(o RecoveryObs) {
	if o.Seconds < 0 {
		return
	}
	c.rate.ObserveRecovery(o.RestartIO)
	if o.RestartIO {
		c.recovery.Observe(o.Seconds)
	} else {
		c.abftRec.Observe(o.Seconds)
	}
}

// ObserveQuality folds one audited checkpoint's distortion summary
// into the estimators. Strictly informational plumbing: the feed
// surfaces through Estimates (and the metrics bundle) but no planning
// policy consumes it yet — the planned interval is unchanged, so
// quality-instrumented runs plan identically to uninstrumented ones.
func (c *Controller) ObserveQuality(o QualityObs) {
	if o.BoundRatio > 0 {
		c.boundRat.Observe(o.BoundRatio)
	}
	// Deliberately NOT fed into c.ratio: ObserveCheckpoint already
	// observed this checkpoint's byte ratio, and double-counting would
	// shift the planned cost — i.e. the quality feed would perturb the
	// run it observes.
	c.qualObs++
}

// ObserveFailure records a fail-stop event at time when, updating the
// failure-rate posterior.
func (c *Controller) ObserveFailure(when float64) {
	c.rate.ObserveFailure(when)
	c.dirty = true
}

// Interval returns the planned checkpoint interval at time now,
// re-planning first if fresh observations arrived and the planning
// epoch has elapsed.
func (c *Controller) Interval(now float64) float64 {
	if c.dirty && (!c.planned || now >= c.lastPlanAt+c.cfg.PlanEvery) {
		c.Replan(now)
	}
	return c.interval
}

// Replan recomputes the interval from the current estimates
// unconditionally (Interval calls it on the planning-epoch cadence)
// and records the decision in the trajectory. Without any cost
// observation the current plan stands.
func (c *Controller) Replan(now float64) Plan {
	lambda := c.rate.Rate(now)
	cost, ok := c.plannedCost()
	if ok {
		tau := c.solve(1/lambda, cost)
		if tau > 0 && !math.IsInf(tau, 0) && !math.IsNaN(tau) {
			c.interval = c.clamp(tau)
		}
	}
	c.dirty = false
	c.planned = true
	c.lastPlanAt = now
	p := Plan{
		When:     now,
		Interval: c.interval,
		Lambda:   lambda,
		Cost:     c.effectiveCost(c.interval),
		Ratio:    c.ratio.Value(),
	}
	c.traj = append(c.traj, p)
	c.met.observePlan(p, c.recovery.Value())
	return p
}

// plannedCost returns the cost estimate a re-plan starts from: the
// sync checkpoint cost, or (async) the worst-case unoverlapped stall —
// in async mode solve derives its own bisection bracket from the
// capture/background estimators, so the value only gates whether any
// cost has been observed yet.
func (c *Controller) plannedCost() (float64, bool) {
	if c.cfg.Async {
		if !c.capture.Ok() && !c.backgrnd.Ok() {
			return 0, false
		}
		return c.capture.Value() + c.backgrnd.Value(), true
	}
	if !c.syncCost.Ok() {
		return 0, false
	}
	return c.syncCost.Value(), true
}

// effectiveCost is the solver-visible cost per checkpoint at interval
// tau under the current estimates.
func (c *Controller) effectiveCost(tau float64) float64 {
	if c.cfg.Async {
		return model.AsyncEffectiveStall(c.capture.Value(), c.backgrnd.Value(), tau)
	}
	return c.syncCost.Value()
}

// policyInterval evaluates the configured optimal-interval formula.
func (c *Controller) policyInterval(mtti, cost float64) float64 {
	if c.cfg.Policy == PolicyYoung {
		return model.YoungInterval(mtti, cost)
	}
	return model.DalyInterval(mtti, cost)
}

// solve returns the optimal interval for the estimated MTTI and
// worst-case cost. Synchronous runs evaluate the policy directly;
// asynchronous runs solve the fixed point
//
//	τ = policy(M̂, AsyncEffectiveStall(t̂cap, t̂bg, τ))
//
// by bisection: the right-hand side f(τ) is continuous and
// non-increasing in τ (a longer interval overlaps more of the
// background write, so the stall — and with it the policy's interval —
// only shrinks), so h(τ) = f(τ) − τ is strictly decreasing with
// h(0) = f(0) > 0 and h(f(0)) ≤ 0: exactly one crossing, bracketed by
// [0, f(0)]. Plain iteration would not do — near the crossing
// |f′| = M̂/τ* can far exceed 1 (cheap capture, long background write),
// where even damped fixed-point updates oscillate. In the common
// regime where the policy interval for the capture stall alone already
// exceeds t̂bg, the crossing lands there and the plan degenerates to
// policy(M̂, t̂cap).
func (c *Controller) solve(mtti, seedCost float64) float64 {
	if !c.cfg.Async {
		return c.policyInterval(mtti, seedCost)
	}
	tcap, tbg := c.capture.Value(), c.backgrnd.Value()
	f := func(tau float64) float64 {
		return c.policyInterval(mtti, model.AsyncEffectiveStall(tcap, tbg, tau))
	}
	hi := f(0) // the unoverlapped (synchronous-cost) plan bounds τ* above
	if hi <= 0 {
		return 0
	}
	if f(hi) >= hi {
		return hi // f flat on [0, hi] (tbg ≈ 0): hi is the fixed point
	}
	lo := 0.0
	for i := 0; i < 64; i++ {
		mid := (lo + hi) / 2
		if f(mid) > mid {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// clamp applies the configured interval bounds.
func (c *Controller) clamp(tau float64) float64 {
	if c.cfg.MinInterval > 0 && tau < c.cfg.MinInterval {
		tau = c.cfg.MinInterval
	}
	if c.cfg.MaxInterval > 0 && tau > c.cfg.MaxInterval {
		tau = c.cfg.MaxInterval
	}
	return tau
}

// Estimates snapshots the controller's current beliefs at time now.
func (c *Controller) Estimates(now float64) Estimates {
	lambda := c.rate.Rate(now)
	return Estimates{
		Lambda:         lambda,
		MTTI:           1 / lambda,
		SyncCost:       c.syncCost.Value(),
		Capture:        c.capture.Value(),
		Background:     c.backgrnd.Value(),
		Recovery:       c.recovery.Value(),
		Ratio:          c.ratio.Value(),
		Failures:       c.rate.Failures(),
		ABFTRecovery:   c.abftRec.Value(),
		IORestarts:     c.rate.IORestarts(),
		ABFTRecoveries: c.rate.ABFTRecoveries(),
		BoundRatio:     c.boundRat.Value(),
		QualityObs:     c.qualObs,
	}
}

// Trajectory returns every re-planning decision in order. The slice is
// owned by the controller; callers must not mutate it.
func (c *Controller) Trajectory() []Plan { return c.traj }
