package zfp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

func roundTrip(t *testing.T, x []float64, eb float64) []float64 {
	t.Helper()
	comp, err := Compress(x, eb)
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

func assertBound(t *testing.T, x, got []float64, eb float64) {
	t.Helper()
	for i := range x {
		if d := math.Abs(x[i] - got[i]); d > eb*(1+1e-9) {
			t.Fatalf("index %d: error %g > bound %g", i, d, eb)
		}
	}
}

func TestBoundSmoothData(t *testing.T) {
	x := sparse.SmoothField(10000, 1)
	const eb = 1e-4
	comp, err := Compress(x, eb)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	assertBound(t, x, got, eb)
	if r := float64(8*len(x)) / float64(len(comp)); r < 4 {
		t.Fatalf("ratio %.1f too low for smooth data", r)
	}
}

func TestBoundRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 3000)
	for i := range x {
		x[i] = rng.NormFloat64() * 50
	}
	const eb = 1e-3
	got := roundTrip(t, x, eb)
	assertBound(t, x, got, eb)
}

func TestNonBlockAlignedLength(t *testing.T) {
	for _, n := range []int{1, 5, BlockSize - 1, BlockSize, BlockSize + 1, 3*BlockSize + 17} {
		x := sparse.SmoothField(n, int64(n))
		got := roundTrip(t, x, 1e-5)
		assertBound(t, x, got, 1e-5)
	}
}

func TestEmpty(t *testing.T) {
	got := roundTrip(t, nil, 1e-4)
	if len(got) != 0 {
		t.Fatalf("got %d values", len(got))
	}
}

func TestInvalidInputs(t *testing.T) {
	if _, err := Compress([]float64{1}, 0); err == nil {
		t.Fatal("expected error for zero bound")
	}
	if _, err := Compress([]float64{math.NaN()}, 1e-4); err == nil {
		t.Fatal("expected error for NaN")
	}
	if _, err := Decompress([]byte("junk")); err == nil {
		t.Fatal("expected error for bad magic")
	}
	comp, err := Compress(sparse.SmoothField(200, 3), 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(comp[:len(comp)-4]); err == nil {
		t.Fatal("expected error for truncated stream")
	}
}

func TestCoefficientOverflowRejected(t *testing.T) {
	x := []float64{1e30, 1e30}
	if _, err := Compress(x, 1e-10); err == nil {
		t.Fatal("expected coefficient-overflow error")
	}
}

func TestTighterBoundLargerOutput(t *testing.T) {
	x := sparse.SmoothField(20000, 4)
	loose, err := Compress(x, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Compress(x, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tight) <= len(loose) {
		t.Fatalf("tighter bound should cost more bytes: %d vs %d", len(tight), len(loose))
	}
}

func TestBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(1500)
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Sin(float64(i)/30)*5 + rng.NormFloat64()*0.1
		}
		eb := math.Pow(10, -1-float64(rng.Intn(7)))
		comp, err := Compress(x, eb)
		if err != nil {
			return false
		}
		got, err := Decompress(comp)
		if err != nil || len(got) != n {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-got[i]) > eb*(1+1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestDecompressIntoMatchesDecompress: the in-place decode must be
// bitwise identical to the allocating one even when dst holds stale
// values (the inverse transform accumulates, so DecompressInto zeroes
// dst first).
func TestDecompressIntoMatchesDecompress(t *testing.T) {
	x := sparse.SmoothField(10_000, 11)
	comp, err := Compress(x, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(x))
	for i := range got {
		got[i] = 1e300 // stale contents must not leak into the sum
	}
	if err := DecompressInto(got, comp); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("index %d: into %g != alloc %g", i, got[i], want[i])
		}
	}
}

// TestDecompressIntoLengthMismatch: a wrong-size destination is an
// error, never a partial decode.
func TestDecompressIntoLengthMismatch(t *testing.T) {
	x := sparse.SmoothField(1000, 12)
	comp, err := Compress(x, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if err := DecompressInto(make([]float64, len(x)-1), comp); err == nil {
		t.Fatal("short dst accepted")
	}
	if err := DecompressInto(make([]float64, len(x)+1), comp); err == nil {
		t.Fatal("long dst accepted")
	}
	if err := DecompressInto(make([]float64, len(x)), []byte("junk")); err == nil {
		t.Fatal("junk stream accepted")
	}
}

// TestDecompressRejectsCraftedLength: a header claiming more values
// than any DEFLATE payload of that size could encode must error
// before the output allocation.
func TestDecompressRejectsCraftedLength(t *testing.T) {
	crafted := make([]byte, 40)
	copy(crafted, "ZFG1")
	binary.LittleEndian.PutUint64(crafted[4:], 1<<45)
	binary.LittleEndian.PutUint64(crafted[12:], math.Float64bits(1e-4))
	if _, err := Decompress(crafted); err == nil {
		t.Fatal("crafted zfp length accepted")
	}
}

// TestDecompressRejectsCorruptBound: the stored bound scales every
// coefficient, so one no encoder writes — NaN, ±Inf, zero, negative —
// is an error before anything is written to the destination, not a
// vector of NaN or Inf returned with a nil error.
func TestDecompressRejectsCorruptBound(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = math.Sin(float64(i) / 7)
	}
	comp, err := Compress(x, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	for _, eb := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1e-4} {
		bad := append([]byte(nil), comp...)
		binary.LittleEndian.PutUint64(bad[12:], math.Float64bits(eb))
		if out, err := Decompress(bad); err == nil {
			t.Errorf("bound %v: decoded to %v… without an error", eb, out[:2])
		}
		dst := make([]float64, len(x))
		for i := range dst {
			dst[i] = 42
		}
		if err := DecompressInto(dst, bad); err == nil {
			t.Errorf("bound %v: DecompressInto accepted the stream", eb)
		}
		for i, v := range dst {
			if v != 42 {
				t.Fatalf("bound %v: destination written at %d before the stream was rejected", eb, i)
			}
		}
	}
}
