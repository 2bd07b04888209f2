package sz

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestRecompressionErrorDoesNotAccumulate: compressing an already
// lossy reconstruction with the same bound keeps the total error
// within 2·eb of the original — the situation of repeated
// checkpoint/recovery cycles in a long run.
func TestRecompressionErrorDoesNotAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 4000)
	for i := range x {
		x[i] = math.Sin(float64(i)/100) + 0.01*rng.NormFloat64()
	}
	const eb = 1e-4
	cur := x
	for round := 0; round < 5; round++ {
		comp, err := Compress(cur, Params{Mode: Abs, ErrorBound: eb})
		if err != nil {
			t.Fatal(err)
		}
		cur, err = Decompress(comp)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range x {
		// Each round adds at most eb, but quantization to the same
		// grid keeps drift far below the worst case; assert 5·eb as a
		// conservative envelope and 2·eb as the expected envelope on
		// at least 99% of points.
		if d := math.Abs(x[i] - cur[i]); d > 5*eb {
			t.Fatalf("index %d drifted %g after 5 recompressions", i, d)
		}
	}
	within := 0
	for i := range x {
		if math.Abs(x[i]-cur[i]) <= 2*eb {
			within++
		}
	}
	if float64(within) < 0.99*float64(len(x)) {
		t.Fatalf("only %d/%d points within 2·eb after recompression", within, len(x))
	}
}

// TestDenormalsAndTinyValues: values near the subnormal range must
// survive the PWRel log transform.
func TestDenormalsAndTinyValues(t *testing.T) {
	x := []float64{1e-300, -1e-300, 5e-324, 1e-308, -2.5e-310, 1.0}
	comp, err := Compress(x, Params{Mode: PWRel, ErrorBound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] == 0 {
			continue
		}
		rel := math.Abs(got[i]-x[i]) / math.Abs(x[i])
		// exp/log round-tripping at the subnormal edge can cost a few
		// ulps beyond the bound; 1e-2 slack on a 1e-3 bound is ample.
		if rel > 1.1e-2 {
			t.Fatalf("index %d (%g): relative error %g", i, x[i], rel)
		}
		if math.Signbit(got[i]) != math.Signbit(x[i]) {
			t.Fatalf("index %d: sign flipped", i)
		}
	}
}

// TestHugeMagnitudes: ABS mode with a bound tiny relative to the data
// forces everything unpredictable; output must stay exact-ish and the
// call must not error.
func TestHugeMagnitudes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 500)
	for i := range x {
		x[i] = rng.NormFloat64() * 1e150
	}
	comp, err := Compress(x, Params{Mode: Abs, ErrorBound: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-got[i]) > 1e-6 {
			t.Fatalf("index %d: error %g", i, math.Abs(x[i]-got[i]))
		}
	}
}

// TestAlternatingSignsPWRel: sign bitmap correctness under rapid sign
// changes.
func TestAlternatingSignsPWRel(t *testing.T) {
	x := make([]float64, 2001)
	for i := range x {
		v := 1.0 + float64(i%13)/13
		if i%2 == 1 {
			v = -v
		}
		x[i] = v
	}
	comp, err := Compress(x, Params{Mode: PWRel, ErrorBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Signbit(got[i]) != math.Signbit(x[i]) {
			t.Fatalf("sign flipped at %d", i)
		}
		if d := math.Abs(got[i]-x[i]) / math.Abs(x[i]); d > 1e-4*(1+1e-10) {
			t.Fatalf("bound violated at %d: %g", i, d)
		}
	}
}

// TestAllZerosPWRel: an all-zero vector is the degenerate case of the
// zero bitmap.
func TestAllZerosPWRel(t *testing.T) {
	x := make([]float64, 777)
	comp, err := Compress(x, Params{Mode: PWRel, ErrorBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(x) {
		t.Fatalf("length %d", len(got))
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("index %d: %g, want exact 0", i, v)
		}
	}
}

// TestStepFunction: discontinuities must not leak across the jump
// (each side reconstructs within bound).
func TestStepFunction(t *testing.T) {
	x := make([]float64, 3000)
	for i := range x {
		if i < 1500 {
			x[i] = 1
		} else {
			x[i] = 1000
		}
	}
	const eb = 1e-5
	comp, err := Compress(x, Params{Mode: Abs, ErrorBound: eb})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if d := math.Abs(x[i] - got[i]); d > eb*(1+1e-12) {
			t.Fatalf("index %d: error %g", i, d)
		}
	}
}

// TestDecompressRejectsCorruptBound: a valid stream whose stored bound
// or bin count is overwritten with one no encoder writes must be an
// error before anything reaches the destination — it used to decode,
// with a nil error, to NaN, Inf or garbage: a silently divergent
// restart.
func TestDecompressRejectsCorruptBound(t *testing.T) {
	x := blockedInput(3, 1)
	comp, err := Compress(x, Params{Mode: Abs, ErrorBound: 1e-3, Predictor: PredictorLorenzo})
	if err != nil {
		t.Fatal(err)
	}
	// Block: kind byte, uvarint n (1 byte), the bound, the predictor,
	// uvarint intervals (65536: 3 bytes).
	at := layoutOf(t, comp).Blocks[0].Start + 2
	mutate := func(f func(b []byte)) []byte {
		bad := append([]byte(nil), comp...)
		f(bad[at:])
		return bad
	}
	cases := map[string][]byte{}
	for _, eb := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		cases[fmt.Sprint("bound ", eb)] = mutate(func(b []byte) { binary.LittleEndian.PutUint64(b, math.Float64bits(eb)) })
	}
	cases["2 intervals"] = mutate(func(b []byte) { copy(b[9:], []byte{0x82, 0x80, 0x00}) })
	cases["2^21-1 intervals past the table"] = mutate(func(b []byte) { copy(b[9:], []byte{0xff, 0xff, 0x7f}) })
	for name, bad := range cases {
		if name == "2^21-1 intervals past the table" {
			// Inside [4, 2^24]: a legal header, and the codes still decode.
			if _, err := Decompress(bad); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			continue
		}
		if out, err := Decompress(bad); err == nil {
			t.Errorf("%s: decoded to %v without an error", name, out)
		}
		dst := []float64{42, 42, 42}
		if err := DecompressInto(dst, bad); err == nil {
			t.Errorf("%s: DecompressInto accepted the stream", name)
		}
		if dst[0] != 42 || dst[1] != 42 || dst[2] != 42 {
			t.Errorf("%s: destination %v written before the stream was rejected", name, dst)
		}
	}
}
