package solver

import (
	"math"
	"testing"

	"repro/internal/precond"
	"repro/internal/sparse"
)

// wrappedSpace is how a decorator presents a Space to a solver: the
// inner Space sits in a field, so its one-pass reductions stay out of
// the method set and CG takes the generic path through Dot and Norm2.
type wrappedSpace struct{ inner Space }

func (w wrappedSpace) Dot(x, y []float64) float64 { return w.inner.Dot(x, y) }
func (w wrappedSpace) Norm2(x []float64) float64  { return w.inner.Norm2(x) }

// requireSameBits fails the test unless x and y hold the same bits.
func requireSameBits(t *testing.T, step int, what string, x, y []float64) {
	t.Helper()
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			t.Fatalf("step %d: %s[%d] = %v, %v", step, what, i, x[i], y[i])
		}
	}
}

func ic0System(t testing.TB, grid int) (*sparse.CSR, *precond.IC0, []float64) {
	t.Helper()
	a := sparse.Poisson3D(grid)
	m, err := precond.NewIC0(a)
	if err != nil {
		t.Fatal(err)
	}
	return a, m, sparse.OnesRHS(a.Rows)
}

// TestCGFusedPathIsBitIdentical steps the fused CG (SeqSpace) and the
// generic CG (the same space behind a wrapper) side by side, through a
// lossy restart and an exact restore, and requires the same bits in
// the residual history, ρ, x, p and r after every step. The benchmark
// harness relies on it: its traced pass wraps the Space and its
// untraced pass does not, and both must take the same steps and
// checkpoint the same bytes.
func TestCGFusedPathIsBitIdentical(t *testing.T) {
	a, m, b := ic0System(t, 16)
	opts := Options{RTol: 1e-12}
	fused := NewCG(a, m, b, nil, SeqSpace{}, opts)
	plain := NewCG(a, m, b, nil, wrappedSpace{SeqSpace{}}, opts)
	if fused.fused == nil || plain.fused != nil {
		t.Fatalf("path selection: SeqSpace fused=%v, wrapped fused=%v", fused.fused != nil, plain.fused != nil)
	}
	same := func(what string, step int, x, y []float64) {
		t.Helper()
		requireSameBits(t, step, what+" (fused, generic)", x, y)
	}
	compare := func(step int) {
		t.Helper()
		same("rnorm", step, []float64{fused.ResidualNorm()}, []float64{plain.ResidualNorm()})
		same("rho", step, []float64{fused.Rho()}, []float64{plain.Rho()})
		same("x", step, fused.X(), plain.X())
		same("p", step, fused.P(), plain.P())
		same("r", step, fused.R(), plain.R())
	}
	var saved DynamicState
	for step := 1; step <= 30; step++ {
		rf, rp := fused.Step(), plain.Step()
		same("Step()", step, []float64{rf}, []float64{rp})
		compare(step)
		switch step {
		case 8:
			saved = fused.DynamicView().Clone()
		case 12:
			// A lossy restart: adopt a perturbed copy of x.
			x := append([]float64(nil), fused.X()...)
			for i := range x {
				x[i] *= 1 + 1e-4*float64(i%3-1)
			}
			fused.Restart(x)
			plain.Restart(x)
			compare(step)
		case 20:
			for _, s := range []*CG{fused, plain} {
				if err := s.RestoreDynamic(saved); err != nil {
					t.Fatal(err)
				}
			}
			compare(step)
		}
	}
}

func TestCGStepDoesNotAllocate(t *testing.T) {
	// 16³ stays under the SpMV's parallel threshold, whose worker
	// hand-off is the only allocation in a larger step.
	a, m, b := ic0System(t, 16)
	for name, sp := range map[string]Space{"fused": SeqSpace{}, "generic": wrappedSpace{SeqSpace{}}} {
		s := NewCG(a, m, b, nil, sp, Options{RTol: 1e-300})
		if n := testing.AllocsPerRun(10, func() { s.Step() }); n != 0 {
			t.Errorf("%s CG.Step allocates %v times per call", name, n)
		}
	}
}

// TestIC0PCGIterationCount pins the failure-free baseline of the
// benchmark's CG workloads (bench/: solver.baseline_iters): a change
// to the preconditioner's arithmetic may move the count by a step, a
// change to the preconditioner moves it by more.
func TestIC0PCGIterationCount(t *testing.T) {
	a, m, b := ic0System(t, 48)
	s := NewCG(a, m, b, nil, SeqSpace{}, Options{RTol: 1e-7})
	res, err := RunToConvergence(s, Options{MaxIter: 200}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations < 43 || res.Iterations > 45 {
		t.Fatalf("IC0-PCG on Poisson3D(48), rtol 1e-7: converged=%v in %d iterations, want 44±1", res.Converged, res.Iterations)
	}
}

// TestCGNaNIterateNeverConverges: a CG restarted from an iterate with a
// NaN in it (a lossy restore gone wrong) turns wholly NaN within a
// step. ‖r‖ of an all-NaN r used to come back 0 — the largest non-NaN
// magnitude is 0, the zero vector's norm — and the solver reported
// convergence; on both reduction paths it must report NaN and keep
// saying not converged.
func TestCGNaNIterateNeverConverges(t *testing.T) {
	a, m, b := ic0System(t, 8)
	for name, space := range map[string]Space{"fused": SeqSpace{}, "generic": wrappedSpace{SeqSpace{}}} {
		s := NewCG(a, m, b, nil, space, Options{})
		for i := 0; i < 3; i++ {
			s.Step()
		}
		x := append([]float64(nil), s.X()...)
		x[len(x)/2] = math.NaN()
		s.Restart(x)
		if s.Converged(s.ResidualNorm()) {
			t.Errorf("%s: converged on restart with residual norm %v", name, s.ResidualNorm())
		}
		for i := 0; i < 5; i++ {
			if rnorm := s.Step(); s.Converged(rnorm) || !math.IsNaN(rnorm) {
				t.Errorf("%s: step %d after the poisoned restart: residual norm %v, converged %v",
					name, i, rnorm, s.Converged(rnorm))
			}
		}
	}
}
