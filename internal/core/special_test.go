package core

import (
	"math"
	"testing"

	"repro/internal/fti"
	"repro/internal/sz"
)

// TestSpecialValuesThroughCheckpoint (ROADMAP 9(b), the whole-save
// half): a solver state holding ±0, subnormals, NaN and ±Inf beside
// normal values goes through Manager.Checkpoint and back through
// RecoverTiered. Under Lossless every bit returns. Under Lossy a state
// that is finite returns its zeros and subnormals bit for bit — −0 as
// −0: a PWRel stream keeps a zero's sign — and its normal values within
// the bound; a state with NaN or ±Inf is refused at the save — SZ takes
// finite input only — and recovery lands on the checkpoint before it.
func TestSpecialValuesThroughCheckpoint(t *testing.T) {
	finite := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310}
	nonFinite := []float64{math.NaN(), math.Float64frombits(0xfff8000000000abc), math.Inf(1), math.Inf(-1)}
	const eb = 1e-4
	for _, scheme := range []Scheme{Lossless, Lossy} {
		a, b, _ := cgSystem(t)
		s := newCG(t, a, b)
		m, err := NewManager(Config{Scheme: scheme, SZParams: sz.Params{Mode: sz.PWRel, ErrorBound: eb}}, fti.NewMemStorage(), s)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			s.Step()
		}
		x := s.DynamicView().Vectors["x"]
		specials := finite
		if scheme == Lossless {
			specials = append(specials, nonFinite...)
		}
		for k, v := range specials {
			x[7*k+3] = v
		}
		want := append([]float64(nil), x...)
		info, err := m.Checkpoint()
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		for i := range x {
			x[i] = 42
		}
		if rep, err := m.RecoverTiered(make([]float64, len(x))); err != nil || rep.Used != TierCheckpoint || rep.Iteration != info.Iteration {
			t.Fatalf("%v: RecoverTiered = %+v, %v", scheme, rep, err)
		}
		for i, got := range s.X() {
			w := want[i]
			switch {
			case scheme == Lossless || math.Abs(w) < 0x1p-1022:
				if math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("%v: element %d came back %x, saved %x", scheme, i, math.Float64bits(got), math.Float64bits(w))
				}
			case math.Abs(got-w) > eb*math.Abs(w)*(1+1e-10):
				t.Fatalf("%v: element %d came back %g, saved %g: outside the bound", scheme, i, got, w)
			}
		}
		if scheme != Lossy {
			continue
		}
		s.Step()
		x = s.DynamicView().Vectors["x"]
		for k, v := range nonFinite {
			x[11*k+5] = v
		}
		if _, err := m.Checkpoint(); err == nil {
			t.Fatal("lossy: a state with NaN and ±Inf was saved")
		}
		if rep, err := m.RecoverTiered(make([]float64, len(x))); err != nil || rep.Iteration != info.Iteration {
			t.Fatalf("lossy: after the refused save RecoverTiered = %+v, %v; want iteration %d", rep, err, info.Iteration)
		}
	}
}
