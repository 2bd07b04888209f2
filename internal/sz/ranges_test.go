package sz

import (
	"math"
	"testing"

	"repro/internal/codec"
)

func rangeTestData(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 5 + math.Sin(float64(i)/300)*math.Cos(float64(i)/47)
	}
	return x
}

func TestBlockRangesCoverStream(t *testing.T) {
	x := rangeTestData(200_000)
	for _, mode := range []Mode{Abs, PWRel} {
		data, err := Compress(x, Params{Mode: mode, ErrorBound: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		ranges, ok := codec.BlockRanges(data)
		if !ok {
			t.Fatalf("mode %v: expected a container", mode)
		}
		wantBlocks := (len(x) + codec.DefaultBlockElems - 1) / codec.DefaultBlockElems
		if len(ranges) != wantBlocks {
			t.Fatalf("mode %v: %d ranges for %d blocks", mode, len(ranges), wantBlocks)
		}
		// Contiguous, in-bounds, ending at the stream end.
		for i, r := range ranges {
			if r.End <= r.Start {
				t.Fatalf("empty range %d: %+v", i, r)
			}
			if i > 0 && r.Start != ranges[i-1].End {
				t.Fatalf("ranges %d..%d not contiguous", i-1, i)
			}
		}
		if ranges[0].Start <= len("BLK1") {
			t.Fatal("first block overlaps the container magic")
		}
		if ranges[len(ranges)-1].End != len(data) {
			t.Fatal("last range does not end at the stream end")
		}
	}
}

func TestBlockRangesRejectNonBlocked(t *testing.T) {
	small := rangeTestData(100) // one block: a container all the same
	data, err := Compress(small, Params{Mode: Abs, ErrorBound: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if ranges, ok := codec.BlockRanges(data); !ok || len(ranges) != 1 || ranges[0].End != len(data) {
		t.Fatalf("one-block stream: ranges %v, %v", ranges, ok)
	}
	if _, ok := codec.BlockRanges(append([]byte("SZG1"), data[4:]...)); ok {
		t.Fatal("legacy stream reported block ranges")
	}
	if _, ok := codec.BlockRanges([]byte("not a stream")); ok {
		t.Fatal("foreign bytes reported block ranges")
	}
	// A truncated header must be rejected, not panic.
	big, err := Compress(rangeTestData(100_000), Params{Mode: Abs, ErrorBound: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := codec.BlockRanges(big[:6]); ok {
		t.Fatal("truncated header reported block ranges")
	}
}
