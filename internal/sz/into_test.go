package sz

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/codec"
)

// intoState builds a smooth, strictly positive state of n elements.
func intoState(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	v := 3.0
	for i := range x {
		v += 0.01 * math.Sin(float64(i)/37) * (1 + 0.1*rng.Float64())
		x[i] = v
	}
	return x
}

// TestDecompressIntoMatchesDecompress: the in-place decode must be
// bitwise identical to the allocating decode for every mode, for a
// vector of one block (the sizes that used to select the legacy
// single-stream format) and of many, even when dst holds stale values
// on entry.
func TestDecompressIntoMatchesDecompress(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		p    Params
	}{
		{"legacy-abs", 1000, Params{Mode: Abs, ErrorBound: 1e-4}},
		{"legacy-pwrel", 1000, Params{Mode: PWRel, ErrorBound: 1e-4}},
		{"legacy-relrange", 1000, Params{Mode: RelRange, ErrorBound: 1e-4}},
		{"blocked-abs", 100_000, Params{Mode: Abs, ErrorBound: 1e-4, BlockSize: 8192}},
		{"blocked-pwrel", 100_000, Params{Mode: PWRel, ErrorBound: 1e-4, BlockSize: 8192}},
		{"blocked-relrange", 100_000, Params{Mode: RelRange, ErrorBound: 1e-4, BlockSize: 8192}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x := intoState(tc.n, 1)
			comp, err := Compress(x, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Decompress(comp)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]float64, tc.n)
			for i := range got {
				got[i] = math.NaN() // stale contents must not survive
			}
			if err := DecompressInto(got, comp); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
					t.Fatalf("index %d: into %g != alloc %g", i, got[i], want[i])
				}
			}
		})
	}
}

// TestDecompressIntoConstant covers the degenerate constant stream
// (RelRange over constant data collapses to it).
func TestDecompressIntoConstant(t *testing.T) {
	x := make([]float64, 500)
	for i := range x {
		x[i] = 4.25
	}
	comp, err := Compress(x, Params{Mode: RelRange, ErrorBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(x))
	if err := DecompressInto(got, comp); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 4.25 {
			t.Fatalf("index %d: %g", i, v)
		}
	}
	if err := DecompressInto(make([]float64, 7), comp); err == nil {
		t.Fatal("length mismatch must be rejected for constant streams")
	}
}

// TestDecompressIntoLengthMismatch: a wrong-size destination is an
// error, never a partial decode.
func TestDecompressIntoLengthMismatch(t *testing.T) {
	for _, n := range []int{1000, 100_000} { // one block and four
		x := intoState(n, 2)
		comp, err := Compress(x, Params{Mode: Abs, ErrorBound: 1e-4})
		if err != nil {
			t.Fatal(err)
		}
		if err := DecompressInto(make([]float64, n-1), comp); err == nil {
			t.Fatalf("n=%d: short dst accepted", n)
		}
		if err := DecompressInto(make([]float64, n+1), comp); err == nil {
			t.Fatalf("n=%d: long dst accepted", n)
		}
	}
}

// TestParseBlockLayoutStreaming: the layout parsed from header bytes
// alone (what the parser asks a streaming reader to fetch) must match
// BlockRanges over the full stream, and each block must decode
// independently via Blocks.DecodeBlockInto into exactly the
// reconstruction Decompress produces.
func TestParseBlockLayoutStreaming(t *testing.T) {
	x := intoState(200_000, 3)
	comp, err := Compress(x, Params{Mode: PWRel, ErrorBound: 1e-4, BlockSize: 16384})
	if err != nil {
		t.Fatal(err)
	}
	fetched := 0
	lay, err := codec.ParseBlockLayout(func(n int) ([]byte, error) {
		fetched = max(fetched, min(n, len(comp)))
		return comp[:min(n, len(comp))], nil
	}, len(comp))
	if err != nil {
		t.Fatal(err)
	}
	if fetched < lay.Blocks[0].Start || fetched > lay.Blocks[0].Start+10*len(lay.Blocks) {
		t.Fatalf("parser fetched %d bytes for a %d-byte header of %d blocks", fetched, lay.Blocks[0].Start, len(lay.Blocks))
	}
	ranges, ok := codec.BlockRanges(comp)
	if !ok {
		t.Fatal("BlockRanges rejected the stream")
	}
	if len(lay.Blocks) != len(ranges) {
		t.Fatalf("%d layout blocks vs %d ranges", len(lay.Blocks), len(ranges))
	}
	for b := range ranges {
		if lay.Blocks[b] != ranges[b] {
			t.Fatalf("block %d span %+v != %+v", b, lay.Blocks[b], ranges[b])
		}
	}
	if lay.N != len(x) {
		t.Fatalf("layout N %d != %d", lay.N, len(x))
	}
	want, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, lay.N)
	for b := range lay.Blocks {
		lo, hi := lay.ElemRange(b)
		if err := (Blocks{}).DecodeBlockInto(got[lo:hi], comp[lay.Blocks[b].Start:lay.Blocks[b].End]); err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("index %d: block decode %g != %g", i, got[i], want[i])
		}
	}
}

// TestHeaderLenBoundRejectsForeign: the header fetch is bounded before
// the stream is believed. Retired formats and junk are turned away on
// the fixed-size prefix alone — a streaming reader never fetches a blob
// to learn it is foreign — and are not mistaken for containers.
func TestHeaderLenBoundRejectsForeign(t *testing.T) {
	x := intoState(100, 4)
	comp, err := Compress(x, Params{Mode: Abs, ErrorBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	legacy := append([]byte("SZG1"), comp[4:]...)
	big := append(legacy, make([]byte, 1<<16)...)
	for name, data := range map[string][]byte{"legacy SZG1 stream": big, "short junk": []byte("SZ"), "nil": nil} {
		asked := 0
		_, err := codec.ParseBlockLayout(func(n int) ([]byte, error) {
			asked = max(asked, n)
			return data[:min(n, len(data))], nil
		}, len(data))
		if err == nil {
			t.Fatalf("%s accepted", name)
		}
		if asked > 64 {
			t.Fatalf("%s: parser asked for %d bytes before rejecting it", name, asked)
		}
		if _, ok := codec.BlockRanges(data); ok {
			t.Fatalf("%s has block ranges", name)
		}
	}
}

// TestParseBlockLayoutRejectsWrongStreamLen: the allocation guards key
// off the declared stream length, so a header paired with a wrong
// length must fail rather than mis-span blocks.
func TestParseBlockLayoutRejectsWrongStreamLen(t *testing.T) {
	x := intoState(100_000, 5)
	comp, err := Compress(x, Params{Mode: Abs, ErrorBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codec.ParseBlockLayout(codec.Whole(comp), len(comp)-1); err == nil {
		t.Fatal("short stream length accepted")
	}
	if _, err := codec.ParseBlockLayout(codec.Whole(comp), len(comp)+10); err == nil {
		t.Fatal("long stream length accepted")
	}
	if _, err := codec.ParseBlockLayout(codec.Whole(comp[:2]), len(comp)); err == nil {
		t.Fatal("truncated header accepted")
	}
}

// TestDecodeConstantRejectsCraftedLength: a constant stream claiming an
// absurd element count must error, not panic in makeslice.
func TestDecodeConstantRejectsCraftedLength(t *testing.T) {
	if _, err := Decompress(constantStream(1<<50, 1.0)); err == nil {
		t.Fatal("crafted constant length accepted")
	}
}
