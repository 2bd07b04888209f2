package lossless

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

// ratio is original/compressed in bytes for n float64 values.
func ratio(n int, compressed []byte) float64 {
	return float64(8*n) / float64(len(compressed))
}

// roundTrip compresses x, decodes it into a NaN-poisoned destination
// and requires every value back bit for bit.
func roundTrip(t *testing.T, x []float64) []byte {
	t.Helper()
	comp, err := Flate{}.Compress(x)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(x))
	for i := range got {
		got[i] = math.NaN()
	}
	if err := (Flate{}).DecompressInto(got, comp); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Float64bits(got[i]) != math.Float64bits(x[i]) {
			t.Fatalf("value %d not bit-exact: %x vs %x", i, math.Float64bits(got[i]), math.Float64bits(x[i]))
		}
	}
	return comp
}

func TestRoundTripSmooth(t *testing.T) {
	x := sparse.SmoothField(5000, 1)
	roundTrip(t, x)
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 3000)
	for i := range x {
		x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20))-10)
	}
	roundTrip(t, x)
}

func TestRoundTripSpecialValues(t *testing.T) {
	x := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, math.SmallestNonzeroFloat64, -1.5}
	roundTrip(t, x)
}

func TestRoundTripEmpty(t *testing.T) {
	roundTrip(t, nil)
}

func TestRepeatedDataCompressesWell(t *testing.T) {
	x := make([]float64, 10000)
	for i := range x {
		x[i] = 1.0
	}
	if r := ratio(len(x), roundTrip(t, x)); r < 4 {
		t.Fatalf("constant data ratio %.1f < 4", r)
	}
}

func TestRandomMantissasBarelyCompress(t *testing.T) {
	// The paper's §2 point: random mantissa bits limit lossless ratios
	// to ≈2 on typical scientific data.
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, 20000)
	for i := range x {
		x[i] = 1 + rng.Float64() // same exponent, random mantissa
	}
	r := ratio(len(x), roundTrip(t, x))
	if r > 2.5 {
		t.Fatalf("ratio %.2f unexpectedly high for random mantissas", r)
	}
	if r < 0.8 {
		t.Fatalf("ratio %.2f shows pathological expansion", r)
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	dst := make([]float64, 100)
	if err := (Flate{}).DecompressInto(dst, []byte{1, 2, 3}); err == nil {
		t.Fatal("expected error on truncated input")
	}
	comp, err := Flate{}.Compress(sparse.SmoothField(100, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := (Flate{}).DecompressInto(dst, comp[:len(comp)-3]); err == nil {
		t.Fatal("expected error on truncated stream")
	}
	// A header claiming far more values than DEFLATE could expand the
	// payload to must error before the inflate buffer is sized.
	crafted := make([]byte, 24)
	binary.LittleEndian.PutUint64(crafted, 1<<40)
	if err := (Flate{}).DecompressInto(dst, crafted); err == nil {
		t.Fatal("crafted length accepted")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(2000)
		x := make([]float64, n)
		for i := range x {
			switch rng.Intn(3) {
			case 0:
				x[i] = rng.NormFloat64()
			case 1:
				x[i] = float64(rng.Intn(100))
			default:
				x[i] = math.Float64frombits(rng.Uint64()) // arbitrary bits
			}
		}
		comp, err := Flate{}.Compress(x)
		if err != nil {
			return false
		}
		got := make([]float64, n)
		if err := (Flate{}).DecompressInto(got, comp); err != nil {
			return false
		}
		for i := range x {
			if math.Float64bits(got[i]) != math.Float64bits(x[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDecompressIntoRejectsWrongSize: the in-place decode refuses a
// destination whose length is not the stream's element count.
func TestDecompressIntoRejectsWrongSize(t *testing.T) {
	x := sparse.SmoothField(20_000, 21)
	comp := roundTrip(t, x)
	if err := (Flate{}).DecompressInto(make([]float64, len(x)-1), comp); err == nil {
		t.Fatal("short dst accepted")
	}
	if err := (Flate{}).DecompressInto(make([]float64, len(x)+1), comp); err == nil {
		t.Fatal("long dst accepted")
	}
}
