package codec_test

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	. "repro/internal/codec"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// ratio is original/compressed in bytes for n float64 values.
func ratio(n int, compressed []byte) float64 {
	return float64(8*n) / float64(len(compressed))
}

// roundTrip encodes x as one flate block, decodes it into a
// NaN-poisoned destination and requires every value back bit for bit.
func roundTrip(t *testing.T, x []float64) []byte {
	t.Helper()
	comp, err := BlockedFlate{}.EncodeBlock(nil, x)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(x))
	for i := range got {
		got[i] = math.NaN()
	}
	if err := (BlockedFlate{}).DecodeBlockInto(got, comp); err != nil {
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

// TestFlateExactOnOracleInputs holds the lossless baseline to its
// exactness contract on the special-value families SZ's error-bound
// oracle judges — denormals, ±0, NaN (payloads kept) and ±Inf, a
// 600-decade range — through the container, as one block and as many:
// every element comes back bit for bit, by Decompress and by
// DecompressInto.
func TestFlateExactOnOracleInputs(t *testing.T) {
	family := func(f func(i int, v float64) float64) []float64 {
		x := testField(1728, 23)
		for i, v := range x {
			x[i] = f(i, v)
		}
		return x
	}
	inputs := map[string][]float64{
		"denormals": family(func(i int, v float64) float64 {
			if i%5 == 0 {
				return math.Copysign(5e-324*float64(1+i), float64(i%3)-1)
			}
			return v * 1e-300
		}),
		"signed-zeros": family(func(i int, v float64) float64 {
			switch i % 7 {
			case 0:
				return 0
			case 3:
				return math.Copysign(0, -1)
			}
			return v
		}),
		"nan-inf": family(func(i int, v float64) float64 {
			switch i % 6 {
			case 0:
				return math.Float64frombits(0x7ff8000000000000 | uint64(i)) // quiet NaN, payload i
			case 1:
				return math.Float64frombits(0xfff0000000000001 + uint64(i)) // signalling NaN, sign set
			case 2:
				return math.Inf(1)
			case 3:
				return math.Inf(-1)
			}
			return v
		}),
		"range-1e300": family(func(i int, v float64) float64 { return v * math.Pow(10, float64(i%601)-300) }),
	}
	for name, x := range inputs {
		for _, bc := range []BlockedFlate{{}, {BlockElems: 300}} {
			enc := compress(t, x, bc)
			if want := (len(x) + bc.BlockSize() - 1) / bc.BlockSize(); len(layoutOf(t, enc).Blocks) != want {
				t.Fatalf("%s/block%d: %d blocks, want %d", name, bc.BlockElems, len(layoutOf(t, enc).Blocks), want)
			}
			got, err := Decompress(enc, bc)
			if err != nil {
				t.Fatalf("%s/block%d: %v", name, bc.BlockElems, err)
			}
			into := make([]float64, len(x))
			for i := range into {
				into[i] = math.NaN()
			}
			if err := DecompressInto(into, enc, bc); err != nil {
				t.Fatalf("%s/block%d: %v", name, bc.BlockElems, err)
			}
			for i := range x {
				if w := math.Float64bits(x[i]); math.Float64bits(got[i]) != w || math.Float64bits(into[i]) != w {
					t.Fatalf("%s/block%d: element %d is %x (Decompress) and %x (DecompressInto), want %x",
						name, bc.BlockElems, i, math.Float64bits(got[i]), math.Float64bits(into[i]), w)
				}
			}
		}
	}
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
	if err := (BlockedFlate{}).DecodeBlockInto(dst, []byte{1, 2, 3}); err == nil {
		t.Fatal("expected error on truncated input")
	}
	comp, err := BlockedFlate{}.EncodeBlock(nil, sparse.SmoothField(100, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := (BlockedFlate{}).DecodeBlockInto(dst, comp[:len(comp)-3]); err == nil {
		t.Fatal("expected error on truncated stream")
	}
	// A header claiming far more values than the destination holds must
	// error before anything is inflated.
	crafted := make([]byte, 24)
	binary.LittleEndian.PutUint64(crafted, 1<<40)
	if err := (BlockedFlate{}).DecodeBlockInto(dst, crafted); err == nil {
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
		comp, err := BlockedFlate{}.EncodeBlock(nil, x)
		if err != nil {
			return false
		}
		got := make([]float64, n)
		if err := (BlockedFlate{}).DecodeBlockInto(got, comp); err != nil {
			return false
		}
		return bytesEqualFloats(got, x)
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
	if err := (BlockedFlate{}).DecodeBlockInto(make([]float64, len(x)-1), comp); err == nil {
		t.Fatal("short dst accepted")
	}
	if err := (BlockedFlate{}).DecodeBlockInto(make([]float64, len(x)+1), comp); err == nil {
		t.Fatal("long dst accepted")
	}
}

// flateBomb is a flate block that claims one value and inflates to
// 64 MiB of zeros: 65,242 bytes, near DEFLATE's 1032× ceiling.
func flateBomb(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, uint64(1))
	zw, err := flate.NewWriter(&buf, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 1<<20)
	for range 64 {
		zw.Write(zeros)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFlateBombRefusedBeforeInflating: a block is inflated for no more
// than its destination's bytes; whatever the stream holds beyond them
// is an error, found without producing it.
func TestFlateBombRefusedBeforeInflating(t *testing.T) {
	bomb := flateBomb(t)
	dst := make([]float64, 1)
	var err error
	allocated := allocatedBytes(func() { err = BlockedFlate{}.DecodeBlockInto(dst, bomb) })
	if err == nil {
		t.Fatal("a block inflating past its one value was accepted")
	}
	if limit := uint64(8*len(dst) + 1<<20); allocated > limit {
		t.Fatalf("refusing a %d-byte block allocated %d bytes, want under %d", len(bomb), allocated, limit)
	}
}

// rawImage is the little-endian byte image of x, what a flate block
// deflates.
func rawImage(x []float64) []byte {
	raw := make([]byte, 0, 8*len(x))
	for _, v := range x {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
	}
	return raw
}

// TestFlateBlocksAreOneFlateStreamEach: every block of a flate
// container is the count and one flate.NewWriter stream over its
// slice, byte for byte, whatever the worker count; a 32³ vector is two
// 128 KiB blocks. With 7 workers on a small machine it is also the race
// detector's view of flate blocks compressed and inflated concurrently.
func TestFlateBlocksAreOneFlateStreamEach(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(0))
	for _, c := range []struct{ n, blocks int }{{100, 1}, {16384, 1}, {16385, 2}, {32768, 2}, {70536, 5}} {
		x := testField(c.n, int64(c.n))
		var want []byte
		for _, w := range []int{1, 2, 7} {
			parallel.SetWorkers(w)
			enc := compress(t, x, BlockedFlate{})
			if want == nil {
				want = enc
			} else if !bytes.Equal(enc, want) {
				t.Fatalf("n=%d: %d workers write other bytes than 1", c.n, w)
			}
			if dec, err := Decompress(enc, BlockedFlate{}); err != nil || !bytesEqualFloats(dec, x) {
				t.Fatalf("n=%d, %d workers: round trip failed (%v)", c.n, w, err)
			}
		}
		lay := layoutOf(t, want)
		if len(lay.Blocks) != c.blocks {
			t.Fatalf("n=%d: %d blocks, want %d", c.n, len(lay.Blocks), c.blocks)
		}
		for b, span := range lay.Blocks {
			lo, hi := lay.ElemRange(b)
			var one bytes.Buffer
			binary.Write(&one, binary.LittleEndian, uint64(hi-lo))
			zw, _ := flate.NewWriter(&one, flate.DefaultCompression)
			zw.Write(rawImage(x[lo:hi]))
			zw.Close()
			if !bytes.Equal(want[span.Start:span.End], one.Bytes()) {
				t.Fatalf("n=%d block %d: %d bytes, one flate stream is %d", c.n, b, span.End-span.Start, one.Len())
			}
		}
	}
}
