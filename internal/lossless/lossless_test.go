package lossless

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

// Codec is what both lossless coders offer.
type Codec interface {
	Name() string
	Compress(x []float64) ([]byte, error)
	Decompress(data []byte) ([]float64, error)
	DecompressInto(dst []float64, data []byte) error
}

func codecs() []Codec {
	return []Codec{Flate{}, FPC{}}
}

func roundTrip(t *testing.T, c Codec, x []float64) []byte {
	t.Helper()
	comp, err := c.Compress(x)
	if err != nil {
		t.Fatalf("%s: %v", c.Name(), err)
	}
	got, err := c.Decompress(comp)
	if err != nil {
		t.Fatalf("%s: %v", c.Name(), err)
	}
	if len(got) != len(x) {
		t.Fatalf("%s: got %d values, want %d", c.Name(), len(got), len(x))
	}
	for i := range x {
		if math.Float64bits(got[i]) != math.Float64bits(x[i]) {
			t.Fatalf("%s: value %d not bit-exact: %x vs %x",
				c.Name(), i, math.Float64bits(got[i]), math.Float64bits(x[i]))
		}
	}
	return comp
}

func TestRoundTripSmooth(t *testing.T) {
	x := sparse.SmoothField(5000, 1)
	for _, c := range codecs() {
		roundTrip(t, c, x)
	}
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 3000)
	for i := range x {
		x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20))-10)
	}
	for _, c := range codecs() {
		roundTrip(t, c, x)
	}
}

func TestRoundTripSpecialValues(t *testing.T) {
	x := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, math.SmallestNonzeroFloat64, -1.5}
	for _, c := range codecs() {
		comp, err := c.Compress(x)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		got, err := c.Decompress(comp)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		for i := range x {
			if math.Float64bits(got[i]) != math.Float64bits(x[i]) {
				t.Fatalf("%s: special value %d corrupted", c.Name(), i)
			}
		}
	}
}

func TestRoundTripEmpty(t *testing.T) {
	for _, c := range codecs() {
		roundTrip(t, c, nil)
	}
}

func TestRepeatedDataCompressesWell(t *testing.T) {
	x := make([]float64, 10000)
	for i := range x {
		x[i] = 1.0
	}
	for _, c := range codecs() {
		comp := roundTrip(t, c, x)
		if r := Ratio(len(x), comp); r < 4 {
			t.Fatalf("%s: constant data ratio %.1f < 4", c.Name(), r)
		}
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
	for _, c := range codecs() {
		comp := roundTrip(t, c, x)
		r := Ratio(len(x), comp)
		if r > 2.5 {
			t.Fatalf("%s: ratio %.2f unexpectedly high for random mantissas", c.Name(), r)
		}
		if r < 0.8 {
			t.Fatalf("%s: ratio %.2f shows pathological expansion", c.Name(), r)
		}
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	for _, c := range codecs() {
		if _, err := c.Decompress([]byte{1, 2, 3}); err == nil {
			t.Fatalf("%s: expected error on truncated input", c.Name())
		}
	}
	comp, err := Flate{}.Compress(sparse.SmoothField(100, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Flate{}).Decompress(comp[:len(comp)-3]); err == nil {
		t.Fatal("flate: expected error on truncated stream")
	}
	compF, err := FPC{}.Compress(sparse.SmoothField(100, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (FPC{}).Decompress(compF[:len(compF)-3]); err == nil {
		t.Fatal("fpc: expected error on truncated stream")
	}
}

func TestFPCExploitsSmoothness(t *testing.T) {
	// FPC's stride predictor should beat flate on slowly varying data
	// with shared exponents, and both must stay lossless.
	x := make([]float64, 20000)
	for i := range x {
		x[i] = 1000 + float64(i)*1e-6
	}
	fpc := roundTrip(t, FPC{}, x)
	if r := Ratio(len(x), fpc); r < 2 {
		t.Fatalf("fpc ratio %.2f < 2 on linear data", r)
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
		for _, c := range codecs() {
			comp, err := c.Compress(x)
			if err != nil {
				return false
			}
			got, err := c.Decompress(comp)
			if err != nil || len(got) != n {
				return false
			}
			for i := range x {
				if math.Float64bits(got[i]) != math.Float64bits(x[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDecompressIntoMatchesDecompress: both codecs' in-place decodes
// must be bit-exact against the allocating path and reject wrong-size
// destinations (the extended Encoder contract's into-variant).
func TestDecompressIntoMatchesDecompress(t *testing.T) {
	x := sparse.SmoothField(20_000, 21)
	for _, c := range codecs() {
		comp, err := c.Compress(x)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		want, err := c.Decompress(comp)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		got := make([]float64, len(x))
		for i := range got {
			got[i] = math.NaN()
		}
		if err := c.DecompressInto(got, comp); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("%s index %d: into %g != alloc %g", c.Name(), i, got[i], want[i])
			}
		}
		if err := c.DecompressInto(make([]float64, len(x)-1), comp); err == nil {
			t.Fatalf("%s: short dst accepted", c.Name())
		}
		if err := c.DecompressInto(make([]float64, len(x)+1), comp); err == nil {
			t.Fatalf("%s: long dst accepted", c.Name())
		}
	}
}

// TestFPCRejectsCraftedLength: a header claiming far more values than
// the payload could hold must error before any allocation, so a
// corrupt checkpoint falls back instead of OOM-ing the restore.
func TestFPCRejectsCraftedLength(t *testing.T) {
	crafted := make([]byte, 24)
	binary.LittleEndian.PutUint64(crafted, 1<<40)
	if _, err := (FPC{}).Decompress(crafted); err == nil {
		t.Fatal("crafted fpc length accepted")
	}
	if err := (FPC{}).DecompressInto(make([]float64, 4), crafted); err == nil {
		t.Fatal("crafted fpc length accepted by DecompressInto")
	}
}
