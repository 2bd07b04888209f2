// Package failure injects fail-stop errors with exponentially
// distributed inter-arrival times, "a common behavior of a system for
// most of its lifetime" (paper §5.4). The paper's evaluation injects
// one failure per hour on average; failures may strike during
// computation, checkpointing, or recovery.
package failure

import (
	"fmt"
	"math"
	"math/rand"
)

// Injector draws failure times. It is deterministic per seed so
// experiments are reproducible.
type Injector struct {
	rng  *rand.Rand
	mtti float64
}

// NewInjector creates an injector with the given mean time to
// interruption in seconds. mtti ≤ 0 disables failures (Next returns
// +Inf).
func NewInjector(mtti float64, seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed)), mtti: mtti}
}

// Next returns the absolute time of the next failure after now.
func (i *Injector) Next(now float64) float64 {
	if i.mtti <= 0 {
		return math.Inf(1)
	}
	return now + i.rng.ExpFloat64()*i.mtti
}

// EstimateRate is the maximum-likelihood estimate of an exponential
// failure rate λ from observed inter-failure gaps (seconds each) plus
// an optional right-censored tail: the time the system has been
// running since the last failure (or since start) without failing.
// The censored observation enters the likelihood as exp(−λ·censored),
// so the MLE is
//
//	λ̂ = n / (Σ gaps + censored),
//
// the standard censored-exponential estimate — a run that ended (or
// has so far continued) without a failure still lowers the estimated
// rate instead of being discarded. With no completed gaps and no
// censored time there is no information and an error is returned; with
// censored time only, the MLE is 0 (no failure ever observed).
func EstimateRate(gaps []float64, censored float64) (float64, error) {
	if censored < 0 {
		return 0, fmt.Errorf("failure: negative censored time %g", censored)
	}
	total := censored
	for _, g := range gaps {
		if g < 0 {
			return 0, fmt.Errorf("failure: negative inter-failure gap %g", g)
		}
		total += g
	}
	if total <= 0 {
		return 0, fmt.Errorf("failure: no observed time to estimate a rate from")
	}
	return float64(len(gaps)) / total, nil
}

// RateEstimator is the incremental, prior-backed form of EstimateRate
// used by the adaptive checkpoint-interval controller: a Gamma(k, θ)
// conjugate prior expressed as weight pseudo-failures spread over
// weight·priorMTTI pseudo-seconds, updated with each observed failure.
// The posterior-mean rate is
//
//	λ̂(now) = (weight + failures) / (weight·priorMTTI + Σ gaps + (now − lastFailure)),
//
// where the last term is the right-censored current gap. The prior
// keeps the controller planning sensibly before the first failure
// (λ̂ → 1/priorMTTI) and washes out as real failures accumulate.
type RateEstimator struct {
	priorFailures float64
	priorSeconds  float64
	failures      int
	observed      float64 // Σ completed inter-failure gaps
	lastAt        float64 // absolute time of the last failure (or start)
}

// NewRateEstimator creates an estimator with a prior mean time to
// interruption of priorMTTI seconds, worth weight pseudo-failures of
// evidence. priorMTTI and weight must be positive — a zero-information
// prior would make the pre-first-failure rate undefined.
func NewRateEstimator(priorMTTI, weight float64) (*RateEstimator, error) {
	if priorMTTI <= 0 {
		return nil, fmt.Errorf("failure: prior MTTI must be positive, got %g", priorMTTI)
	}
	if weight <= 0 {
		return nil, fmt.Errorf("failure: prior weight must be positive, got %g", weight)
	}
	return &RateEstimator{priorFailures: weight, priorSeconds: weight * priorMTTI}, nil
}

// ObserveFailure records a failure at absolute time now (seconds,
// non-decreasing across calls), closing the current inter-failure gap.
// A now earlier than the previous event is clamped to it (a zero gap).
func (e *RateEstimator) ObserveFailure(now float64) {
	if now < e.lastAt {
		now = e.lastAt
	}
	e.observed += now - e.lastAt
	e.lastAt = now
	e.failures++
}

// Rate returns the posterior-mean failure rate at absolute time now,
// including the right-censored gap since the last failure. now before
// the last event is clamped to it.
func (e *RateEstimator) Rate(now float64) float64 {
	if now < e.lastAt {
		now = e.lastAt
	}
	return (e.priorFailures + float64(e.failures)) /
		(e.priorSeconds + e.observed + (now - e.lastAt))
}

// Failures reports how many real (non-prior) failures were observed.
func (e *RateEstimator) Failures() int { return e.failures }
