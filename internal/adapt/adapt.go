// Package adapt is the online checkpoint-interval controller: it
// closes the loop between the paper's analytic model and a running
// solve.
//
// The paper computes the optimal checkpoint interval offline from
// known per-checkpoint cost C and failure rate λ (Young's Eq. 1, the
// Eq. 5/8 overhead model, Table 3). With lossy compression neither is
// a constant at runtime: the compression ratio tracks solver
// convergence (smoother iterates compress better, so C drifts
// downward), the asynchronous pipeline's solver-visible stall depends
// on storage contention, and λ is never known — only observed failures
// are. A fixed interval therefore leaves the modeled gains on the
// table. This package estimates both online and re-plans the interval
// whenever an estimate moves.
//
// # Estimators
//
// Per-checkpoint costs come from the instrumented checkpoint path
// (fti.Info's CaptureSeconds/EncodeSeconds/WriteSeconds, or a modelled
// run's costs), smoothed by exponentially weighted moving averages:
//
//	est ← α·x + (1−α)·est,  α = 0.3 (about 3–4 checkpoints of history)
//
// with one EWMA each for the synchronous checkpoint cost, the
// asynchronous capture stall and the asynchronous background
// encode+write time. The failure rate λ̂ is the censored-exponential
// posterior mean of failure.RateEstimator: a Gamma prior worth one
// pseudo-failure at the configured prior MTTI, plus every observed
// inter-failure gap, plus the right-censored still-running gap — so
// the controller plans sensibly before the first failure and sharpens
// as failures arrive. Nothing else is observed: no plan reads it.
//
// # Policy
//
// Each re-plan solves for the interval τ from the estimated MTTI M̂ and
// per-checkpoint cost with Daly's higher-order formula
// (model.DalyInterval), which stays accurate when Ĉ approaches M̂. The
// observations say which cost that is:
//
//   - a controller fed SyncSeconds plans τ = Daly(M̂, Ĉ) directly;
//
//   - a controller fed capture/background observations plans the
//     asynchronous pipeline. Its solver-visible cost per checkpoint is
//     itself a function of the interval — the background encode+write
//     overlaps iterations, so the stall is
//     model.AsyncEffectiveStall(t̂cap, t̂bg, τ) = t̂cap + max(0, t̂bg−τ)
//     — and the optimal interval is the fixed point
//
//     τ* = Daly(M̂, AsyncEffectiveStall(t̂cap, t̂bg, τ*)).
//
//     The controller solves it by bisection: the right-hand side is
//     continuous and non-increasing in τ, so h(τ) = f(τ) − τ has
//     exactly one crossing, bracketed by [0, f(0)]. (Fixed-point
//     iteration — even damped — oscillates here: near the crossing
//     |f′| = M̂/τ* can far exceed 1.) In the common regime τ* ≥ t̂bg
//     this degenerates to Daly(M̂, t̂cap), exactly the "interval
//     reflects the overlapped cost, not the raw one" planning the
//     ROADMAP asks for.
//
// The result is clamped to [MinInterval, MaxInterval] when configured,
// and the controller keeps its previous plan when the estimators have
// nothing new to say (no cost observed yet).
//
// # Determinism
//
// The controller is a pure state machine: every method takes the
// current time (virtual or wall seconds) as an argument and nothing
// reads a real clock, so a simulated run driving it with virtual time
// is bitwise reproducible — same seed and failure trace, same interval
// trajectory (asserted by core's modelled-run tests).
package adapt

import (
	"fmt"
	"math"

	"repro/internal/failure"
	"repro/internal/model"
)

// alpha is the EWMA smoothing weight of the cost estimators.
const alpha = 0.3

// Config assembles a Controller.
type Config struct {
	// PriorMTTI is the prior mean time to interruption in seconds —
	// what the controller assumes before the first observed failure,
	// worth one failure of evidence. Required (> 0).
	PriorMTTI float64
	// InitialInterval seeds the plan before any cost observation
	// exists. Zero defaults to PriorMTTI/20 — short enough to take the
	// first (cost-measuring) checkpoint early, long enough not to storm
	// storage before the estimators have data.
	InitialInterval float64
	// MinInterval / MaxInterval clamp every plan (0 = unclamped).
	MinInterval float64
	MaxInterval float64
}

// ewma is an exponentially weighted moving average with weight alpha:
// observe folds a sample in, value reports the current estimate (0
// before any sample), and ok whether any sample arrived yet.
type ewma struct {
	value float64
	ok    bool
}

// observe folds in one sample. The first sample initializes the
// estimate directly.
func (e *ewma) observe(x float64) {
	if !e.ok {
		e.value, e.ok = x, true
		return
	}
	e.value = alpha*x + (1-alpha)*e.value
}

// CheckpointObs is one completed checkpoint's measured cost, fed to
// ObserveCheckpoint. Times are in seconds of the caller's clock
// (virtual or wall); zero-valued fields are simply not observed.
type CheckpointObs struct {
	// SyncSeconds is the full solver-visible cost of a synchronous
	// checkpoint (encode + write on the critical path).
	SyncSeconds float64
	// CaptureSeconds is the asynchronous capture stall; the rest of the
	// pipeline ran in the background for BackgroundSeconds.
	CaptureSeconds    float64
	BackgroundSeconds float64
}

// Plan is one re-planning decision: the interval the controller chose
// at time When and the estimates it chose it from.
type Plan struct {
	When     float64 // when the plan was made
	Interval float64 // planned checkpoint interval, seconds
	Lambda   float64 // estimated failure rate at When
	Cost     float64 // estimated solver-visible cost per checkpoint at the planned interval
}

// Estimates is a snapshot of the controller's current beliefs.
type Estimates struct {
	Lambda     float64 // failures per second (posterior mean, censored)
	MTTI       float64 // 1/Lambda
	SyncCost   float64 // EWMA of synchronous checkpoint seconds
	Capture    float64 // EWMA of async capture stall seconds
	Background float64 // EWMA of async background encode+write seconds
	Failures   int     // real failures observed
}

// Controller is the online interval planner. It is not safe for
// concurrent use; drive it from the solver loop (or the simulator).
type Controller struct {
	cfg  Config
	rate *failure.RateEstimator

	syncCost ewma
	capture  ewma
	backgrnd ewma

	interval float64
	dirty    bool // fresh observations since the last re-plan
	traj     []Plan
	met      ctrlMetrics
}

// New builds a Controller.
func New(cfg Config) (*Controller, error) {
	if cfg.PriorMTTI <= 0 {
		return nil, fmt.Errorf("adapt: PriorMTTI must be positive, got %g", cfg.PriorMTTI)
	}
	if cfg.MinInterval < 0 || cfg.MaxInterval < 0 || cfg.InitialInterval < 0 {
		return nil, fmt.Errorf("adapt: negative duration in config %+v", cfg)
	}
	if cfg.MaxInterval > 0 && cfg.MinInterval > cfg.MaxInterval {
		return nil, fmt.Errorf("adapt: MinInterval %g exceeds MaxInterval %g", cfg.MinInterval, cfg.MaxInterval)
	}
	if cfg.InitialInterval == 0 {
		cfg.InitialInterval = cfg.PriorMTTI / 20
	}
	rate, err := failure.NewRateEstimator(cfg.PriorMTTI, 1)
	if err != nil {
		return nil, fmt.Errorf("adapt: %w", err)
	}
	c := &Controller{cfg: cfg, rate: rate}
	c.interval = c.clamp(cfg.InitialInterval)
	return c, nil
}

// ObserveCheckpoint folds one completed checkpoint's measured cost
// into the estimators.
func (c *Controller) ObserveCheckpoint(o CheckpointObs) {
	if o.SyncSeconds > 0 {
		c.syncCost.observe(o.SyncSeconds)
		c.dirty = true
	}
	if o.CaptureSeconds > 0 || o.BackgroundSeconds > 0 {
		c.capture.observe(math.Max(o.CaptureSeconds, 0))
		c.backgrnd.observe(math.Max(o.BackgroundSeconds, 0))
		c.dirty = true
	}
}

// ObserveFailure records a fail-stop event at time when, updating the
// failure-rate posterior.
func (c *Controller) ObserveFailure(when float64) {
	c.rate.ObserveFailure(when)
	c.dirty = true
}

// Interval returns the planned checkpoint interval at time now,
// re-planning first if fresh observations arrived.
func (c *Controller) Interval(now float64) float64 {
	if c.dirty {
		c.Replan(now)
	}
	return c.interval
}

// Replan recomputes the interval from the current estimates
// unconditionally (Interval calls it whenever an estimate moved) and
// records the decision in the trajectory. Without any cost observation
// the current plan stands.
func (c *Controller) Replan(now float64) Plan {
	lambda := c.rate.Rate(now)
	if c.capture.ok || c.syncCost.ok {
		tau := c.solve(1 / lambda)
		if tau > 0 && !math.IsInf(tau, 0) && !math.IsNaN(tau) {
			c.interval = c.clamp(tau)
		}
	}
	c.dirty = false
	p := Plan{When: now, Interval: c.interval, Lambda: lambda, Cost: c.effectiveCost(c.interval)}
	c.traj = append(c.traj, p)
	c.met.observePlan(p)
	return p
}

// overlapped reports whether the controller plans the asynchronous
// pipeline: it has been fed capture/background observations.
func (c *Controller) overlapped() bool { return c.capture.ok }

// effectiveCost is the solver-visible cost per checkpoint at interval
// tau under the current estimates.
func (c *Controller) effectiveCost(tau float64) float64 {
	if c.overlapped() {
		return model.AsyncEffectiveStall(c.capture.value, c.backgrnd.value, tau)
	}
	return c.syncCost.value
}

// solve returns the optimal interval for the estimated MTTI.
// Synchronous runs evaluate Daly's formula directly; asynchronous runs
// solve the fixed point
//
//	τ = Daly(M̂, AsyncEffectiveStall(t̂cap, t̂bg, τ))
//
// by bisection: the right-hand side f(τ) is continuous and
// non-increasing in τ (a longer interval overlaps more of the
// background write, so the stall — and with it Daly's interval — only
// shrinks), so h(τ) = f(τ) − τ is strictly decreasing with
// h(0) = f(0) > 0 and h(f(0)) ≤ 0: exactly one crossing, bracketed by
// [0, f(0)]. Plain iteration would not do — near the crossing
// |f′| = M̂/τ* can far exceed 1 (cheap capture, long background write),
// where even damped fixed-point updates oscillate. In the common
// regime where Daly's interval for the capture stall alone already
// exceeds t̂bg, the crossing lands there and the plan degenerates to
// Daly(M̂, t̂cap).
func (c *Controller) solve(mtti float64) float64 {
	if !c.overlapped() {
		return model.DalyInterval(mtti, c.syncCost.value)
	}
	tcap, tbg := c.capture.value, c.backgrnd.value
	f := func(tau float64) float64 {
		return model.DalyInterval(mtti, model.AsyncEffectiveStall(tcap, tbg, tau))
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
		Lambda:     lambda,
		MTTI:       1 / lambda,
		SyncCost:   c.syncCost.value,
		Capture:    c.capture.value,
		Background: c.backgrnd.value,
		Failures:   c.rate.Failures(),
	}
}

// Trajectory returns every re-planning decision in order. The slice is
// owned by the controller; callers must not mutate it.
func (c *Controller) Trajectory() []Plan { return c.traj }
