package solver

import (
	"math"
	"testing"

	"repro/internal/sparse"
)

// gmresPair builds the fused GMRES (SeqSpace) and the generic one (the
// same space behind a wrapper that hides its one-pass kernels).
func gmresPair(t *testing.T, a *sparse.CSR, b []float64, k int) (fused, plain *GMRES) {
	t.Helper()
	opts := Options{RTol: 1e-300}
	fused = NewGMRES(a, nil, b, nil, k, SeqSpace{}, opts)
	plain = NewGMRES(a, nil, b, nil, k, wrappedSpace{SeqSpace{}}, opts)
	if fused.fused == nil || plain.fused != nil {
		t.Fatalf("path selection: SeqSpace fused=%v, wrapped fused=%v", fused.fused != nil, plain.fused != nil)
	}
	return fused, plain
}

// requireSameGMRES compares every number a later step, a checkpoint or
// a convergence test reads: the Hessenberg columns, the Givens state,
// the least-squares right-hand side, the residual estimate, X and
// CurrentX.
func requireSameGMRES(t *testing.T, step int, fused, plain *GMRES) {
	t.Helper()
	same := func(what string, x, y []float64) {
		t.Helper()
		requireSameBits(t, step, what+" (fused, generic)", x, y)
	}
	if fused.j != plain.j || fused.it != plain.it {
		t.Fatalf("step %d: (j, it) = (%d, %d) fused, (%d, %d) generic", step, fused.j, fused.it, plain.j, plain.it)
	}
	for i := range fused.h {
		same("h row", fused.h[i], plain.h[i])
	}
	same("g", fused.g, plain.g)
	same("c", fused.c, plain.c)
	same("s", fused.s, plain.s)
	same("rnorm", []float64{fused.ResidualNorm()}, []float64{plain.ResidualNorm()})
	same("X", fused.X(), plain.X())
	same("CurrentX", fused.CurrentX(), plain.CurrentX())
}

// midCycleState is what a checkpoint saves of a GMRES mid-cycle: the
// materialized iterate in place of DynamicView's cycle-boundary x.
func midCycleState(s *GMRES) DynamicState {
	st := s.DynamicView()
	st.Vectors["x"] = s.CurrentX()
	return st
}

// TestGMRESFusedPathIsBitIdentical steps the two side by side through
// two full 30-step cycles (so through the restart between them), a
// lossy Restart and a mid-cycle RestoreDynamic. The benchmark harness
// relies on it exactly as it relies on TestCGFusedPathIsBitIdentical.
func TestGMRESFusedPathIsBitIdentical(t *testing.T) {
	a := sparse.Poisson3D(12)
	fused, plain := gmresPair(t, a, sparse.SmoothField(a.Rows, 2), 30)
	requireSameGMRES(t, 0, fused, plain)
	var saved DynamicState
	for step := 1; step <= 100; step++ {
		rf, rp := fused.Step(), plain.Step()
		if math.Float64bits(rf) != math.Float64bits(rp) {
			t.Fatalf("step %d: Step() = %v fused, %v generic", step, rf, rp)
		}
		requireSameGMRES(t, step, fused, plain)
		switch step {
		case 41:
			saved = midCycleState(fused) // j = 11
		case 67:
			x := fused.CurrentX()
			for i := range x {
				x[i] *= 1 + 1e-4*float64(i%3-1)
			}
			fused.Restart(x)
			plain.Restart(x)
			requireSameGMRES(t, step, fused, plain)
		case 80:
			if fused.j == 0 {
				t.Fatal("restore point is not mid-cycle")
			}
			for _, s := range []*GMRES{fused, plain} {
				if err := s.RestoreDynamic(saved); err != nil {
					t.Fatal(err)
				}
			}
			requireSameGMRES(t, step, fused, plain)
		}
	}
}

// TestGMRESFusedHappyBreakdown: on the identity the first Arnoldi
// vector is invariant, w is annihilated exactly and the cycle ends
// with the exact solution on both paths.
func TestGMRESFusedHappyBreakdown(t *testing.T) {
	a := tridiag(50, 0, 1, 0)
	b := sparse.SmoothField(a.Rows, 4)
	fused, plain := gmresPair(t, a, b, 30)
	fused.Step()
	plain.Step()
	requireSameGMRES(t, 1, fused, plain)
	if fused.h[1][0] != 0 || fused.ResidualNorm() != 0 {
		t.Fatalf("no breakdown: h[1][0] = %v, rnorm = %v", fused.h[1][0], fused.ResidualNorm())
	}
	for i, v := range fused.X() {
		if math.Abs(v-b[i]) > 1e-15*math.Abs(b[i]) {
			t.Fatalf("x[%d] = %v, want b = %v", i, v, b[i])
		}
	}
}

// TestGMRESStepDoesNotAllocate covers mid-cycle steps and, over 40
// steps, the materialize/beginCycle pair at a cycle boundary.
func TestGMRESStepDoesNotAllocate(t *testing.T) {
	// The generated operator's stencil kernel runs on the caller's
	// goroutine at any size; a matrix without a summary above the row
	// kernel's parallel threshold would allocate the worker hand-off.
	a := sparse.Poisson3D(16)
	for name, sp := range map[string]Space{"fused": SeqSpace{}, "generic": wrappedSpace{SeqSpace{}}} {
		s := NewGMRES(a, nil, sparse.OnesRHS(a.Rows), nil, 30, sp, Options{RTol: 1e-300})
		for i := 0; i < 5; i++ {
			s.Step()
		}
		if n := testing.AllocsPerRun(10, func() { s.Step() }); n != 0 {
			t.Errorf("%s GMRES.Step allocates %v times per mid-cycle call", name, n)
		}
		if n := testing.AllocsPerRun(40, func() { s.Step() }); n != 0 {
			t.Errorf("%s GMRES.Step allocates %v times per call across a cycle boundary", name, n)
		}
	}
}

// TestGMRESCurrentXIntoMatchesCurrentX: the into-variant a checkpoint
// capture uses is CurrentX bit for bit at every step of two 30-step
// cycles, a lossy Restart and a mid-cycle RestoreDynamic, always in the
// caller's one backing array, and without allocating.
func TestGMRESCurrentXIntoMatchesCurrentX(t *testing.T) {
	a := sparse.Poisson3D(12)
	s, _ := gmresPair(t, a, sparse.SmoothField(a.Rows, 2), 30)
	buf := make([]float64, 0, a.Rows)
	base := &buf[:1][0]
	check := func(step int) {
		t.Helper()
		before := s.CurrentX()
		buf = s.CurrentXInto(buf)
		if &buf[0] != base {
			t.Fatalf("step %d: CurrentXInto left the caller's backing array", step)
		}
		requireSameBits(t, step, "CurrentXInto vs CurrentX", buf, before)
		requireSameBits(t, step, "CurrentX after CurrentXInto", s.CurrentX(), before)
	}
	check(0)
	var saved DynamicState
	for step := 1; step <= 100; step++ {
		s.Step()
		check(step)
		switch step {
		case 41:
			saved = midCycleState(s) // j = 11
		case 67:
			x := s.CurrentX()
			for i := range x {
				x[i] *= 1 + 1e-4*float64(i%3-1)
			}
			s.Restart(x)
			check(step)
		case 80: // mid-cycle again
			if err := s.RestoreDynamic(saved); err != nil {
				t.Fatal(err)
			}
			check(step)
		}
	}
	if n := testing.AllocsPerRun(10, func() { buf = s.CurrentXInto(buf) }); n != 0 {
		t.Fatalf("CurrentXInto allocates %v times per call into a large-enough buffer", n)
	}
	if grown := s.CurrentXInto(make([]float64, 3)); len(grown) != a.Rows {
		t.Fatalf("CurrentXInto into a short buffer returned %d values", len(grown))
	}
}
