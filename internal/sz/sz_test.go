package sz

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
	"repro/internal/vec"
)

func roundTrip(t *testing.T, x []float64, p Params) []float64 {
	t.Helper()
	comp, err := Compress(x, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(x) {
		t.Fatalf("decompressed %d values, want %d", len(got), len(x))
	}
	return got
}

func assertAbsBound(t *testing.T, x, got []float64, eb float64) {
	t.Helper()
	for i := range x {
		if d := math.Abs(x[i] - got[i]); d > eb*(1+1e-12) {
			t.Fatalf("index %d: |%g − %g| = %g > eb %g", i, x[i], got[i], d, eb)
		}
	}
}

func TestAbsBoundSmoothData(t *testing.T) {
	x := sparse.SmoothField(10000, 1)
	const eb = 1e-4
	comp, err := Compress(x, Params{Mode: Abs, ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	assertAbsBound(t, x, got, eb)
	if r := float64(8*len(x)) / float64(len(comp)); r < 8 {
		t.Fatalf("compression ratio %.1f too low for smooth data (paper reports 20–60×)", r)
	}
}

func TestAbsBoundTightens(t *testing.T) {
	x := sparse.SmoothField(20000, 2)
	var prev float64 = math.Inf(1)
	for _, eb := range []float64{1e-2, 1e-4, 1e-6, 1e-8} {
		comp, err := Compress(x, Params{Mode: Abs, ErrorBound: eb})
		if err != nil {
			t.Fatal(err)
		}
		r := float64(8*len(x)) / float64(len(comp))
		if r > prev*1.05 {
			t.Fatalf("ratio should not grow as the bound tightens: eb=%g gives %.1f after %.1f",
				eb, r, prev)
		}
		prev = r
		got, _ := Decompress(comp)
		assertAbsBound(t, x, got, eb)
	}
}

func TestAbsRandomDataStillBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 5000)
	for i := range x {
		x[i] = rng.NormFloat64() * 1e6
	}
	const eb = 1e-3
	got := roundTrip(t, x, Params{Mode: Abs, ErrorBound: eb})
	assertAbsBound(t, x, got, eb)
}

func TestRelRangeBound(t *testing.T) {
	x := sparse.SmoothField(8000, 4)
	lo, hi := vec.Range(x)
	const eb = 1e-4
	got := roundTrip(t, x, Params{Mode: RelRange, ErrorBound: eb})
	assertAbsBound(t, x, got, eb*(hi-lo))
}

func TestRelRangeConstantVector(t *testing.T) {
	x := make([]float64, 1000)
	for i := range x {
		x[i] = 3.25
	}
	comp, err := Compress(x, Params{Mode: RelRange, ErrorBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != 3.25 {
			t.Fatalf("constant vector must reconstruct exactly, got %g", got[i])
		}
	}
	if len(comp) > 64 {
		t.Fatalf("constant vector should compress to a header, got %d bytes", len(comp))
	}
}

func TestPWRelBound(t *testing.T) {
	// The paper's bound: |x_i − x′_i| ≤ eb·|x_i| for every i,
	// including values spanning many orders of magnitude.
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 6000)
	for i := range x {
		mag := math.Pow(10, float64(rng.Intn(12))-6)
		x[i] = (1 + rng.Float64()) * mag
		if rng.Intn(2) == 0 {
			x[i] = -x[i]
		}
	}
	const eb = 1e-4
	got := roundTrip(t, x, Params{Mode: PWRel, ErrorBound: eb})
	for i := range x {
		if d := math.Abs(x[i] - got[i]); d > eb*math.Abs(x[i])*(1+1e-10) {
			t.Fatalf("index %d: rel err %g > %g", i, d/math.Abs(x[i]), eb)
		}
	}
}

func TestPWRelZerosExact(t *testing.T) {
	x := []float64{0, 1, 0, -2, 0, 3e-300, 0}
	got := roundTrip(t, x, Params{Mode: PWRel, ErrorBound: 1e-3})
	for i, v := range x {
		if v == 0 && got[i] != 0 {
			t.Fatalf("zero at %d reconstructed as %g", i, got[i])
		}
	}
}

func TestPWRelPreservesSigns(t *testing.T) {
	x := sparse.SmoothField(5000, 6) // oscillates through negative values
	got := roundTrip(t, x, Params{Mode: PWRel, ErrorBound: 1e-4})
	for i := range x {
		if x[i] != 0 && math.Signbit(x[i]) != math.Signbit(got[i]) {
			t.Fatalf("sign flipped at %d: %g -> %g", i, x[i], got[i])
		}
	}
}

func TestPWRelSmoothRatio(t *testing.T) {
	// Solver state at the paper's eb = 1e-4 should compress at least
	// an order of magnitude (paper: 20–60×; our 1D pipeline on a
	// synthetic smooth field is in the same decade).
	x := sparse.SmoothField(50000, 7)
	for i := range x {
		x[i] += 2.5 // keep away from zero so the bound is meaningful
	}
	comp, err := Compress(x, Params{Mode: PWRel, ErrorBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if r := float64(8*len(x)) / float64(len(comp)); r < 10 {
		t.Fatalf("PWRel ratio %.1f too low for smooth data", r)
	}
}

func TestPredictorSelection(t *testing.T) {
	// On a quadratic signal the order-1 predictor leaves a linearly
	// growing difference (many distinct quantization bins) while the
	// order-2 predictor leaves a constant difference (one bin), so
	// auto must choose linear and compress better.
	n := 20000
	x := make([]float64, n)
	for i := range x {
		ti := float64(i) * 0.001
		x[i] = ti * ti
	}
	lin, err := Compress(x, Params{Mode: Abs, ErrorBound: 1e-6, Predictor: PredictorLinear})
	if err != nil {
		t.Fatal(err)
	}
	lor, err := Compress(x, Params{Mode: Abs, ErrorBound: 1e-6, Predictor: PredictorLorenzo})
	if err != nil {
		t.Fatal(err)
	}
	auto, err := Compress(x, Params{Mode: Abs, ErrorBound: 1e-6, Predictor: PredictorAuto})
	if err != nil {
		t.Fatal(err)
	}
	if len(lin) >= len(lor) {
		t.Fatalf("linear predictor should beat Lorenzo on a ramp: %d vs %d", len(lin), len(lor))
	}
	if len(auto) > len(lin)+16 {
		t.Fatalf("auto (%d bytes) failed to select the linear predictor (%d bytes)", len(auto), len(lin))
	}
}

func TestEmptyInput(t *testing.T) {
	got := roundTrip(t, nil, Params{Mode: Abs, ErrorBound: 1e-4})
	if len(got) != 0 {
		t.Fatalf("empty round trip returned %d values", len(got))
	}
}

func TestSingleValue(t *testing.T) {
	got := roundTrip(t, []float64{42.5}, Params{Mode: Abs, ErrorBound: 1e-4})
	if math.Abs(got[0]-42.5) > 1e-4 {
		t.Fatalf("got %g", got[0])
	}
}

func TestInvalidParams(t *testing.T) {
	x := []float64{1, 2}
	if _, err := Compress(x, Params{Mode: Abs, ErrorBound: 0}); err == nil {
		t.Fatal("expected error for zero bound")
	}
	if _, err := Compress(x, Params{Mode: Abs, ErrorBound: -1}); err == nil {
		t.Fatal("expected error for negative bound")
	}
	if _, err := Compress(x, Params{Mode: PWRel, ErrorBound: 1.5}); err == nil {
		t.Fatal("expected error for PWRel bound ≥ 1")
	}
	if _, err := Compress([]float64{math.NaN()}, Params{Mode: Abs, ErrorBound: 1e-4}); err == nil {
		t.Fatal("expected error for NaN input")
	}
	if _, err := Compress([]float64{math.Inf(1)}, Params{Mode: Abs, ErrorBound: 1e-4}); err == nil {
		t.Fatal("expected error for Inf input")
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	if _, err := Decompress([]byte("nonsense")); err == nil {
		t.Fatal("expected error for bad magic")
	}
	comp, err := Compress(sparse.SmoothField(100, 8), Params{Mode: Abs, ErrorBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(comp[:len(comp)/2]); err == nil {
		t.Fatal("expected error for truncated stream")
	}
}

func TestIntervalsAffectUnpredictables(t *testing.T) {
	// With very few intervals, rough data overflows the quantization
	// range and falls back to stored values — output stays correct. A
	// compress always quantizes into quantBins, so the 8-bin block is
	// built by the core and read back by the block decoder.
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, 2000)
	for i := range x {
		x[i] = rng.NormFloat64() * 100
	}
	const eb = 1e-5
	blk, err := appendCore([]byte{kindCore}, x, nil, eb, stencil{}, 8)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(x))
	if err := (Blocks{}).DecodeBlockInto(got, blk); err != nil {
		t.Fatal(err)
	}
	assertAbsBound(t, x, got, eb)
}

// Property: the absolute bound holds for arbitrary finite data and
// bounds across both core modes.
func TestAbsBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3000)
		x := make([]float64, n)
		smooth := rng.Intn(2) == 0
		for i := range x {
			if smooth {
				x[i] = math.Sin(float64(i)/50) * 10
			} else {
				x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6)))
			}
		}
		eb := math.Pow(10, -1-float64(rng.Intn(8)))
		comp, err := Compress(x, Params{Mode: Abs, ErrorBound: eb})
		if err != nil {
			return false
		}
		got, err := Decompress(comp)
		if err != nil || len(got) != n {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-got[i]) > eb*(1+1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: pointwise-relative bound holds for arbitrary nonzero data.
func TestPWRelBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(2000)
		x := make([]float64, n)
		for i := range x {
			x[i] = (rng.Float64() + 0.1) * math.Pow(10, float64(rng.Intn(10))-5)
			if rng.Intn(2) == 0 {
				x[i] = -x[i]
			}
		}
		eb := math.Pow(10, -2-float64(rng.Intn(5)))
		comp, err := Compress(x, Params{Mode: PWRel, ErrorBound: eb})
		if err != nil {
			return false
		}
		got, err := Decompress(comp)
		if err != nil || len(got) != n {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-got[i]) > eb*math.Abs(x[i])*(1+1e-10) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
