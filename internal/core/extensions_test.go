package core

import (
	"testing"

	"repro/internal/fti"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// TestLossyWithZFPEncoder swaps the SZ-like compressor for the
// ZFP-like transform codec via the LossyEncoder override and verifies
// recovery still converges.
func TestLossyWithZFPEncoder(t *testing.T) {
	a := sparse.Poisson2D(10)
	xe := sparse.SmoothField(a.Rows, 51)
	b := sparse.RHSForSolution(a, xe)
	s := solver.NewCG(a, nil, b, nil, solver.SeqSpace{}, solver.Options{RTol: 1e-9})
	m, err := NewManager(Config{
		Scheme:       Lossy,
		Interval:     10,
		LossyEncoder: fti.ZFP{Bound: 1e-5},
	}, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	failed := false
	res, err := solver.RunToConvergence(s, solver.Options{MaxIter: 10000}, func(it int, rnorm float64) error {
		if _, err := m.MaybeCheckpoint(); err != nil {
			return err
		}
		if it == 25 && !failed {
			failed = true
			if _, err := m.Recover(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !failed {
		t.Fatalf("converged=%v failed=%v", res.Converged, failed)
	}
	if m.LastInfo().EncoderName != "zfp" {
		t.Fatalf("encoder = %q, want zfp", m.LastInfo().EncoderName)
	}
	diff := make([]float64, len(xe))
	vec.Sub(diff, s.X(), xe)
	if rel := vec.Norm2(diff) / vec.Norm2(xe); rel > 1e-5 {
		t.Fatalf("solution error %g after ZFP lossy recovery", rel)
	}
}
