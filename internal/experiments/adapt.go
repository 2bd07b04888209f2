package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/model"
	"repro/internal/sparse"
)

func init() {
	register("adapt", "Adaptive interval: fixed-interval sweep vs online controller (steady and drifting compression ratio, lossless and lossy schemes)", runAdapt)
}

// AdaptScenario is one cost regime of the fixed-vs-adaptive sweep.
type AdaptScenario struct {
	Name           string
	Scheme         string // checkpoint scheme the scenario runs under
	FixedIntervals []float64
	FixedSeconds   []float64 // mean simulated wall-clock per fixed interval
	BestInterval   float64
	BestSeconds    float64
	ProbeInterval  float64 // Young's interval from the probe-time cost (the offline recipe)
	ProbeSeconds   float64
	AdaptiveSecs   float64
	FinalInterval  float64 // last planned interval of the first seed's adaptive run

	// Convergence-delay accounting: lossy restarts resume from a
	// perturbed state, so failures cost extra iterations on top of the
	// rolled-back work — wall time alone under-reports the lossy
	// scheme's overhead. BaselineIters is the failure-free iteration
	// count, AdaptiveIters the adaptive runs' mean under injected
	// failures, ConvergenceDelay their difference.
	BaselineIters    float64
	AdaptiveIters    float64
	ConvergenceDelay float64
}

// AdaptResult is the Table-3-style overhead comparison between fixed
// checkpoint intervals and the online controller: mean simulated
// wall-clock over a deterministic seed set with shared failure traces,
// under a steady checkpoint cost and under a compression ratio that
// degrades mid-run (the Theorem-3 adaptive bound tightening as the
// residual drops).
type AdaptResult struct {
	MTTI      float64
	Seeds     int
	Scenarios []AdaptScenario
}

// adaptMTTI is the injected failure rate of the sweep; the controller
// is seeded with a 1.5× pessimistic prior (adaptPrior) and learns the
// rest online.
const adaptMTTI, adaptPrior = 150.0, 100.0

// adaptTrace pre-draws one seed's absolute failure times so every
// policy under a seed faces the identical trace.
func adaptTrace(seed int64) []float64 {
	inj := failure.NewInjector(adaptMTTI, seed)
	var times []float64
	now := 0.0
	for now < 50000 {
		now = inj.Next(now)
		times = append(times, now)
	}
	return times
}

// runAdaptOnce executes one Jacobi run under the given checkpoint
// scheme: fixed cadence when fixedInterval > 0, adaptive when ctrl is
// non-nil. ckptCost maps the live solver's residual to the
// per-checkpoint cost; trace is the shared failure schedule (nil for a
// failure-free baseline). Lossless restores are exact-state (the
// regime the Young/Daly model is derived for); lossy restores resume
// from the decompressed approximation and pay a convergence delay.
func runAdaptOnce(grid int, fixedInterval float64, ctrl *adapt.Controller,
	scheme core.Scheme, trace []float64, ckptCost func(rnorm float64) float64) (*core.Outcome, error) {
	a := sparse.Poisson2D(grid)
	return managedRun("jacobi", a, sparse.OnesRHS(a.Rows), 1e-7, scheme, 1e-4, 1, ckptCost, 8, core.DriveConfig{
		Failures:        core.FailureTimes(trace, nil),
		IntervalSeconds: fixedInterval,
		Controller:      ctrl,
		MaxIterations:   500000,
	})
}

func runAdapt(cfg Config) (Result, error) {
	grid := 16
	trials := 6
	if cfg.Quick {
		grid = 12
		trials = 3
	}
	if cfg.Trials > 0 {
		trials = cfg.Trials
	}
	// Consecutive seeds from cfg.Seed: each seed is one shared failure
	// trace every policy in the sweep runs against.
	seeds := make([]int64, trials)
	for i := range seeds {
		seeds[i] = cfg.Seed + int64(i)
	}
	const steadyCost, probeCost, lateCost, lossyCost = 6.0, 1.5, 12.0, 2.0
	scenarios := []struct {
		name      string
		scheme    core.Scheme
		probeCost float64 // the cost an offline probe at run start sees
		cost      func(rnorm float64) float64
	}{
		{"steady", core.Lossless, steadyCost, func(float64) float64 { return steadyCost }},
		// The ratio-drift regime: checkpoints are cheap while the
		// residual is large (loose bound, high compression ratio) and
		// 8× costlier once it passes 1e-2 — the drift the Theorem-3
		// adaptive GMRES bound produces as it tightens with convergence.
		{"ratio-drift", core.Lossless, probeCost, func(rnorm float64) float64 {
			if rnorm > 1e-2 {
				return probeCost
			}
			return lateCost
		}},
		// The lossy scheme the paper actually advocates — previously
		// excluded from this sweep because its restores are inexact. Its
		// checkpoints are cheap (SZ-compressed) but every restore resumes
		// from a perturbed state, so the row carries the convergence-delay
		// term alongside wall time.
		{"lossy-steady", core.Lossy, lossyCost, func(float64) float64 { return lossyCost }},
	}

	mean := func(fixedInterval float64, ctrlFor func() (*adapt.Controller, error),
		scheme core.Scheme, cost func(rnorm float64) float64) (float64, float64, *core.Outcome, error) {
		var sum, iters float64
		var first *core.Outcome
		for _, seed := range seeds {
			var ctrl *adapt.Controller
			if ctrlFor != nil {
				var err error
				ctrl, err = ctrlFor()
				if err != nil {
					return 0, 0, nil, err
				}
			}
			out, err := runAdaptOnce(grid, fixedInterval, ctrl, scheme, adaptTrace(seed), cost)
			if err != nil {
				return 0, 0, nil, err
			}
			if !out.Converged {
				return 0, 0, nil, fmt.Errorf("adapt: seed %d interval %g did not converge", seed, fixedInterval)
			}
			if first == nil {
				first = out
			}
			sum += out.SimSeconds
			iters += float64(out.IterationsExecuted)
		}
		n := float64(len(seeds))
		return sum / n, iters / n, first, nil
	}

	out := &AdaptResult{MTTI: adaptMTTI, Seeds: len(seeds)}
	fixedIntervals := []float64{20, 30, 42, 55, 70, 90, 120}
	for _, sc := range scenarios {
		row := AdaptScenario{Name: sc.name, Scheme: sc.scheme.String(), FixedIntervals: fixedIntervals}
		row.BestSeconds = math.Inf(1)
		// Failure-free baseline: fixes the convergence-delay zero point.
		base, err := runAdaptOnce(grid, fixedIntervals[len(fixedIntervals)-1], nil, sc.scheme, nil, sc.cost)
		if err != nil {
			return nil, err
		}
		if !base.Converged {
			return nil, fmt.Errorf("adapt: %s failure-free baseline did not converge", sc.name)
		}
		row.BaselineIters = float64(base.IterationsExecuted)
		for _, iv := range fixedIntervals {
			m, _, _, err := mean(iv, nil, sc.scheme, sc.cost)
			if err != nil {
				return nil, err
			}
			row.FixedSeconds = append(row.FixedSeconds, m)
			if m < row.BestSeconds {
				row.BestSeconds, row.BestInterval = m, iv
			}
		}
		row.ProbeInterval = model.YoungInterval(adaptMTTI, sc.probeCost)
		probeSecs, _, _, err := mean(row.ProbeInterval, nil, sc.scheme, sc.cost)
		if err != nil {
			return nil, err
		}
		row.ProbeSeconds = probeSecs
		adaptive, adaptIters, first, err := mean(0, func() (*adapt.Controller, error) {
			return adapt.New(adapt.Config{PriorMTTI: adaptPrior})
		}, sc.scheme, sc.cost)
		if err != nil {
			return nil, err
		}
		row.AdaptiveSecs = adaptive
		row.AdaptiveIters = adaptIters
		row.ConvergenceDelay = adaptIters - row.BaselineIters
		if n := len(first.IntervalPlans); n > 0 {
			row.FinalInterval = first.IntervalPlans[n-1].Interval
		}
		out.Scenarios = append(out.Scenarios, row)
	}
	return out, nil
}

// Scenario returns the named scenario row (nil if absent).
func (r *AdaptResult) Scenario(name string) *AdaptScenario {
	for i := range r.Scenarios {
		if r.Scenarios[i].Name == name {
			return &r.Scenarios[i]
		}
	}
	return nil
}

// WriteText renders the sweep in the paper's overhead-table shape.
func (r *AdaptResult) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "Adaptive checkpoint interval — Jacobi, MTTI %.0f s, %d shared failure traces\n", r.MTTI, r.Seeds)
	for _, sc := range r.Scenarios {
		fmt.Fprintf(w, "%s (%s):\n", sc.Name, sc.Scheme)
		fmt.Fprintf(w, "  %-14s", "fixed τ (s)")
		for _, iv := range sc.FixedIntervals {
			fmt.Fprintf(w, "%9.0f", iv)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "  %-14s", "mean wall (s)")
		for _, v := range sc.FixedSeconds {
			fmt.Fprintf(w, "%9.1f", v)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "  probe-Young τ=%.1f s → %.1f s;  best fixed τ=%.0f s → %.1f s\n",
			sc.ProbeInterval, sc.ProbeSeconds, sc.BestInterval, sc.BestSeconds)
		fmt.Fprintf(w, "  adaptive → %.1f s (%+.1f%% vs best fixed, %+.1f%% vs probe-Young; final τ=%.0f s)\n",
			sc.AdaptiveSecs, 100*(sc.AdaptiveSecs/sc.BestSeconds-1), 100*(sc.AdaptiveSecs/sc.ProbeSeconds-1), sc.FinalInterval)
		fmt.Fprintf(w, "  convergence delay: %.0f extra iterations (failure-free %.0f → adaptive mean %.0f)\n",
			sc.ConvergenceDelay, sc.BaselineIters, sc.AdaptiveIters)
	}
	fmt.Fprintln(w, "expected: adaptive within 5% of the best fixed interval while never told C, R, or λ;")
	fmt.Fprintln(w, "          under ratio drift the probe-derived interval is stale and adaptive wins outright")
	return nil
}
