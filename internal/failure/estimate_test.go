package failure

import (
	"math"
	"testing"
)

// TestEstimateRateExact: the MLE on hand-built traces is n/total.
func TestEstimateRateExact(t *testing.T) {
	cases := []struct {
		gaps     []float64
		censored float64
		want     float64
	}{
		{[]float64{100, 200, 300}, 0, 3.0 / 600},
		{[]float64{100, 200, 300}, 400, 3.0 / 1000},
		{nil, 500, 0},            // no failure in 500 s: λ̂ = 0
		{[]float64{50}, 0, 0.02}, // one gap
	}
	for _, c := range cases {
		got, err := EstimateRate(c.gaps, c.censored)
		if err != nil {
			t.Fatalf("EstimateRate(%v, %g): %v", c.gaps, c.censored, err)
		}
		if math.Abs(got-c.want) > 1e-15 {
			t.Errorf("EstimateRate(%v, %g) = %g, want %g", c.gaps, c.censored, got, c.want)
		}
	}
}

// TestEstimateRateErrors: degenerate inputs are rejected, not guessed.
func TestEstimateRateErrors(t *testing.T) {
	if _, err := EstimateRate(nil, 0); err == nil {
		t.Error("no observed time should error")
	}
	if _, err := EstimateRate([]float64{-1}, 0); err == nil {
		t.Error("negative gap should error")
	}
	if _, err := EstimateRate([]float64{1}, -2); err == nil {
		t.Error("negative censored time should error")
	}
}

// TestEstimateRateRecoversInjectorRate: on a long synthetic trace from
// the exponential injector the MLE converges to the true rate.
func TestEstimateRateRecoversInjectorRate(t *testing.T) {
	const mtti = 250.0
	inj := NewInjector(mtti, 11)
	var gaps []float64
	now := 0.0
	for i := 0; i < 20000; i++ {
		next := inj.Next(now)
		gaps = append(gaps, next-now)
		now = next
	}
	got, err := EstimateRate(gaps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(got*mtti - 1); rel > 0.03 {
		t.Fatalf("MLE %.6f, want ≈ %.6f (rel err %.3f)", got, 1/mtti, rel)
	}
}

// TestEstimateRateCensoringLowersRate: appending failure-free runtime
// strictly lowers the estimate.
func TestEstimateRateCensoringLowersRate(t *testing.T) {
	gaps := []float64{100, 150, 200}
	base, _ := EstimateRate(gaps, 0)
	cens, _ := EstimateRate(gaps, 1000)
	if cens >= base {
		t.Fatalf("censored tail did not lower the rate: %g >= %g", cens, base)
	}
}

// TestRateEstimatorPriorBeforeFirstFailure: before any observation the
// posterior mean is the prior rate, decaying as censored time accrues.
func TestRateEstimatorPriorBeforeFirstFailure(t *testing.T) {
	e, err := NewRateEstimator(3600, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Rate(0); math.Abs(got-1.0/3600) > 1e-15 {
		t.Fatalf("prior rate %g, want %g", got, 1.0/3600)
	}
	// After 3600 failure-free seconds the posterior halves: 1 pseudo-
	// failure over 7200 observed seconds.
	if got := e.Rate(3600); math.Abs(got-1.0/7200) > 1e-15 {
		t.Fatalf("censored prior rate %g, want %g", got, 1.0/7200)
	}
	if e.Failures() != 0 {
		t.Fatalf("no real failures observed, got %d", e.Failures())
	}
}

// TestRateEstimatorConvergesToTrueRate: the prior washes out as real
// failures accumulate.
func TestRateEstimatorConvergesToTrueRate(t *testing.T) {
	const mtti = 100.0
	e, err := NewRateEstimator(10000, 1) // prior 100× too pessimistic on MTTI
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector(mtti, 5)
	now := 0.0
	for i := 0; i < 5000; i++ {
		now = inj.Next(now)
		e.ObserveFailure(now)
	}
	if rel := math.Abs(e.Rate(now)*mtti - 1); rel > 0.05 {
		t.Fatalf("posterior rate %.6f after 5000 failures, want ≈ %.6f", e.Rate(now), 1/mtti)
	}
}

// TestRateEstimatorMatchesBatchMLE: the incremental posterior with the
// prior folded out reproduces the batch EstimateRate on the same trace.
func TestRateEstimatorMatchesBatchMLE(t *testing.T) {
	gaps := []float64{120, 80, 260, 40}
	const tail = 90.0
	e, _ := NewRateEstimator(500, 2)
	now := 0.0
	for _, g := range gaps {
		now += g
		e.ObserveFailure(now)
	}
	got := e.Rate(now + tail)
	batch, _ := EstimateRate(gaps, tail)
	// Posterior = (w + n)/(w·prior + total); recover the batch MLE.
	w, prior := 2.0, 500.0
	want := (w + float64(len(gaps))) / (w*prior + float64(len(gaps))/batch)
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("incremental %g, want %g", got, want)
	}
}

// TestRateEstimatorClampsTimeTravel: a now earlier than the last event
// must not produce negative gaps or rates above the no-gap posterior.
func TestRateEstimatorClampsTimeTravel(t *testing.T) {
	e, _ := NewRateEstimator(100, 1)
	e.ObserveFailure(50)
	e.ObserveFailure(40) // clamped to 50: zero gap
	if e.Failures() != 2 {
		t.Fatalf("failures %d, want 2", e.Failures())
	}
	want := 3.0 / 150 // (1+2)/(100+50+0)
	if got := e.Rate(10); math.Abs(got-want) > 1e-15 {
		t.Fatalf("clamped rate %g, want %g", got, want)
	}
}

// TestNewRateEstimatorRejectsBadPrior: zero-information priors are
// invalid.
func TestNewRateEstimatorRejectsBadPrior(t *testing.T) {
	if _, err := NewRateEstimator(0, 1); err == nil {
		t.Error("zero prior MTTI accepted")
	}
	if _, err := NewRateEstimator(100, 0); err == nil {
		t.Error("zero prior weight accepted")
	}
	if _, err := NewRateEstimator(-5, -1); err == nil {
		t.Error("negative prior accepted")
	}
}
