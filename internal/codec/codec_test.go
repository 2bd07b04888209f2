package codec_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	. "repro/internal/codec"
	"repro/internal/parallel"
	"repro/internal/sz"
)

// testField builds a deterministic, smooth-but-noisy field like solver
// state: large-scale oscillation plus small noise.
func testField(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = 2.5 + math.Sin(float64(i)/97.0) + 1e-3*rng.NormFloat64()
	}
	return x
}

func compress(t testing.TB, x []float64, bc BlockCodec) []byte {
	t.Helper()
	enc, err := Compress(nil, x, bc)
	if err != nil {
		t.Fatalf("%v: compress: %v", bc.ID(), err)
	}
	return enc
}

func layoutOf(t testing.TB, enc []byte) BlockLayout {
	t.Helper()
	lay, err := ParseBlockLayout(Whole(enc), len(enc))
	if err != nil {
		t.Fatalf("ParseBlockLayout: %v", err)
	}
	return lay
}

// TestRoundTripBlockedAndLegacy: every length is framed — one block or
// many, the empty vector included — and round-trips exactly; a bare
// flate stream, which inputs of at most one block used to be written
// as, is turned away by name.
func TestRoundTripBlockedAndLegacy(t *testing.T) {
	bc := BlockedFlate{BlockElems: 4096}
	for _, n := range []int{0, 1, 31, 100, 4096, 4097, 14000} {
		x := testField(n, int64(n))
		enc := compress(t, x, bc)
		lay := layoutOf(t, enc)
		if want := max(1, (n+4095)/4096); len(lay.Blocks) != want || lay.N != n || lay.ID != Flate {
			t.Fatalf("n=%d: %d blocks of codec %v for %d values, want %d", n, len(lay.Blocks), lay.ID, lay.N, want)
		}
		dec, err := Decompress(enc, bc)
		if err != nil || !bytesEqualFloats(dec, x) {
			t.Fatalf("n=%d: decompress is not the input (%v)", n, err)
		}
		// DecompressInto must agree bitwise with Decompress.
		into := make([]float64, n)
		if err := DecompressInto(into, enc, bc); err != nil || !bytesEqualFloats(into, dec) {
			t.Fatalf("n=%d: DecompressInto differs (%v)", n, err)
		}
	}
	bare, err := BlockedFlate{}.EncodeBlock(nil, testField(100, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(bare, BlockedFlate{}); err == nil || !strings.Contains(err.Error(), "not a BLK1 stream") {
		t.Fatalf("bare flate vector: %v, want an error naming the magic", err)
	}
}

// TestBlockedMatchesLegacyBitwise checks that the blocks reconstruct
// exactly the bits one flate stream over the whole vector does.
func TestBlockedMatchesLegacyBitwise(t *testing.T) {
	x := testField(10000, 7)
	bc := BlockedFlate{BlockElems: 2048}
	enc := compress(t, x, bc)
	if got := len(layoutOf(t, enc).Blocks); got != 5 {
		t.Fatalf("%d blocks, want 5", got)
	}
	blockedDec, err := Decompress(enc, bc)
	if err != nil {
		t.Fatalf("blocked decompress: %v", err)
	}
	bare, err := BlockedFlate{}.EncodeBlock(nil, x)
	if err != nil {
		t.Fatal(err)
	}
	bareDec := make([]float64, len(x))
	if err := (BlockedFlate{}).DecodeBlockInto(bareDec, bare); err != nil {
		t.Fatal(err)
	}
	if !bytesEqualFloats(bareDec, blockedDec) {
		t.Fatal("blocks reconstruct other bits than one stream")
	}
}

func TestBlockLayoutAndPerBlockDecode(t *testing.T) {
	n := 9000
	x := testField(n, 3)
	bc := BlockedFlate{BlockElems: 2048}
	enc := compress(t, x, bc)
	lay := layoutOf(t, enc)
	if lay.N != n {
		t.Fatalf("layout N=%d", lay.N)
	}
	full, err := Decompress(enc, bc)
	if err != nil {
		t.Fatal(err)
	}
	for b, span := range lay.Blocks {
		lo, hi := lay.ElemRange(b)
		dst := make([]float64, hi-lo)
		if err := bc.DecodeBlockInto(dst, enc[span.Start:span.End]); err != nil {
			t.Fatalf("block %d: %v", b, err)
		}
		if !bytesEqualFloats(dst, full[lo:hi]) {
			t.Fatalf("block %d differs", b)
		}
	}
	// The header alone — what the parser asks a streaming reader for —
	// yields the same layout.
	hdr, err := ParseBlockLayout(Whole(enc[:lay.Blocks[0].Start]), len(enc))
	if err != nil || len(hdr.Blocks) != len(lay.Blocks) {
		t.Fatalf("layout from the header bytes alone: %v", err)
	}
	// BlockRanges must match the layout spans.
	ranges, ok := BlockRanges(enc)
	if !ok || len(ranges) != len(lay.Blocks) {
		t.Fatal("BlockRanges mismatch")
	}
	for b := range ranges {
		if ranges[b] != lay.Blocks[b] || hdr.Blocks[b] != lay.Blocks[b] {
			t.Fatalf("range %d mismatch", b)
		}
	}
}

// mangleHeader re-encodes a BLK1 header with the given fields, keeping
// the original payload bytes, to craft inconsistent streams.
func mangleHeader(enc []byte, n, blockElems, nBlocks uint64, lens []uint64, payload []byte) []byte {
	out := append([]byte(nil), enc[:5]...)
	out = binary.AppendUvarint(out, n)
	out = binary.AppendUvarint(out, blockElems)
	out = binary.AppendUvarint(out, nBlocks)
	for _, l := range lens {
		out = binary.AppendUvarint(out, l)
	}
	return append(out, payload...)
}

// TestCraftedHeaderRobustness is the hardening contract of the
// container: corrupt or adversarial headers must be rejected by the
// parser, before any output allocation happens.
func TestCraftedHeaderRobustness(t *testing.T) {
	x := testField(8192, 5)
	bc := BlockedFlate{BlockElems: 2048}
	enc := compress(t, x, bc)
	lay := layoutOf(t, enc)
	payload := enc[lay.Blocks[0].Start:]
	nb := uint64(len(lay.Blocks))
	lens := make([]uint64, nb)
	for b, r := range lay.Blocks {
		lens[b] = uint64(r.End - r.Start)
	}

	cases := map[string][]byte{
		"empty":               {},
		"magic only":          []byte("BLK1"),
		"truncated prefix":    enc[:6],
		"truncated table":     enc[:lay.Blocks[0].Start-2],
		"unknown id":          append([]byte("BLK1\xEE"), enc[5:]...),
		"zero id":             append([]byte("BLK1\x00"), enc[5:]...),
		"retired id 1 (zfp)":  append([]byte("BLK1\x01"), enc[5:]...),
		"retired id 2 (fpc)":  append([]byte("BLK1\x02"), enc[5:]...),
		"zero blocks":         mangleHeader(enc, 8192, 2048, 0, nil, payload),
		"zero blockElems":     mangleHeader(enc, 8192, 0, 4, lens, payload),
		"blockElems 2^63":     mangleHeader(enc, 8192, 1<<63, 1, lens[:1], payload),
		"block count lie":     mangleHeader(enc, 8192, 2048, 3, lens[:3], payload),
		"huge n":              mangleHeader(enc, 1<<40, 2048, 4, lens, payload),
		"n 2^64-1":            mangleHeader(enc, math.MaxUint64, math.MaxUint64, 1, lens[:1], payload),
		"overflowing length":  mangleHeader(enc, 8192, 2048, 4, []uint64{lens[0], lens[1], lens[2], 1 << 50}, payload),
		"length 2^63":         mangleHeader(enc, 8192, 2048, 4, []uint64{lens[0], lens[1], lens[2], 1 << 63}, payload),
		"overlapping blocks":  mangleHeader(enc, 8192, 2048, 4, []uint64{lens[0], lens[1], lens[2] - 10, lens[3]}, payload),
		"trailing bytes":      append(append([]byte(nil), enc...), 0xFF),
		"constant, 7 bytes":   mangleHeader(enc, 8192, 2048, 0, nil, make([]byte, 7)),
		"constant, 9 bytes":   mangleHeader(enc, 8192, 2048, 0, nil, make([]byte, 9)),
		"constant past limit": mangleHeader(enc, MaxConstantElems+1, 2048, 0, nil, make([]byte, 8)),
	}
	for name, data := range cases {
		if _, err := Decompress(data, bc); err == nil {
			t.Errorf("%s: Decompress accepted", name)
		}
		if name == "constant past limit" {
			continue // a layout, and no ranges to cut at: only allocating from it is refused
		}
		if _, err := ParseBlockLayout(Whole(data), len(data)); err == nil {
			t.Errorf("%s: ParseBlockLayout accepted", name)
		}
		if _, ok := BlockRanges(data); ok {
			t.Errorf("%s: BlockRanges accepted", name)
		}
	}

	// A stream of a retired codec is named as what it is, from the
	// header alone.
	for id, name := range map[byte]string{1: "retired id 1 (zfp)", 2: "retired id 2 (fpc)"} {
		retired := cases[name]
		want := fmt.Sprintf("unknown codec id %d", id)
		if _, err := ParseBlockLayout(Whole(retired[:8]), len(retired)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: %v, want %q", name, err, want)
		}
	}

	// The n-vs-payload allocation guard must trip before the decoder
	// allocates: a tiny stream claiming a huge element count is the
	// attack the parser's guard exists for, with the per-codec ceiling
	// bounding what each codec could genuinely hold. One element past
	// the ceiling is refused, the ceiling itself is a layout.
	for id, perByte := range map[ID]uint64{Flate: 129, SZ: 8} {
		head := append([]byte("BLK1"), byte(id))
		tiny := mangleHeader(head, 1<<40, 1<<39, 2, []uint64{4, 4}, make([]byte, 8))
		if _, err := ParseBlockLayout(Whole(tiny), len(tiny)); err == nil {
			t.Errorf("%v: huge-n guard missed", id)
		}
		at := mangleHeader(head, perByte*9, perByte*9, 1, []uint64{8}, make([]byte, 8)) // 9 bytes follow the fixed fields
		if _, err := ParseBlockLayout(Whole(at), len(at)); err != nil {
			t.Errorf("%v: %d elements in 9 bytes refused: %v", id, perByte*9, err)
		}
		past := mangleHeader(head, perByte*9+1, perByte*9+1, 1, []uint64{8}, make([]byte, 8))
		if _, err := ParseBlockLayout(Whole(past), len(past)); err == nil {
			t.Errorf("%v: %d elements in 9 bytes accepted", id, perByte*9+1)
		}
	}
}

// TestBlockedAdapters: the lossless adapter frames exactly, and an
// adapter turns away another codec's container.
func TestBlockedAdapters(t *testing.T) {
	x := testField(12000, 9)
	bc := BlockedFlate{BlockElems: 4096}
	enc := compress(t, x, bc)
	if got := len(layoutOf(t, enc).Blocks); got != 3 {
		t.Fatalf("%d blocks, want 3", got)
	}
	dec, err := Decompress(enc, bc)
	if err != nil || !bytesEqualFloats(dec, x) {
		t.Fatalf("blocked round trip mismatch (%v)", err)
	}
	// Appending leaves what dst already holds alone.
	prefixed, err := Compress([]byte("prefix"), x, bc)
	if err != nil || !bytes.Equal(prefixed, append([]byte("prefix"), enc...)) {
		t.Fatalf("Compress is not prefix + stream (%v)", err)
	}
	// Codec mismatch: SZ's block codec must reject a flate container.
	if _, err := Decompress(enc, sz.Blocks{}); err == nil {
		t.Fatal("SZ block codec accepted flate container")
	}
	if err := DecompressInto(make([]float64, len(x)), enc, sz.Blocks{}); err == nil {
		t.Fatal("SZ block codec accepted flate container into a destination")
	}
	if id := layoutOf(t, enc).ID; id != Flate || id.String() != "gzip(deflate)" {
		t.Fatalf("container ID = %v", id)
	}
}

func bytesEqualFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestDeterministicOutput: container bytes must not depend on the
// worker schedule.
func TestDeterministicOutput(t *testing.T) {
	x := testField(16384, 13)
	bc := BlockedFlate{BlockElems: 1024}
	if !bytes.Equal(compress(t, x, bc), compress(t, x, bc)) {
		t.Fatal("nondeterministic container bytes")
	}
}

// TestCompressAllocatesPerBlock: a blocked DEFLATE compress in steady
// state allocates O(block), not O(payload) — the per-block encode
// buffer and DEFLATE's byte image and writer come from pools. The
// stream is appended to a reused dst, so what is counted is scratch
// alone, and it must stay under the raw payload: one unpooled encode
// buffer per block is 9/8 of it. A 32³ vector, the Jacobi state,
// stays under 1% of its payload on one worker or two.
func TestCompressAllocatesPerBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	// GC paused: every collection empties the pools, and one after the
	// warm-up would bill the re-warm to a measured call.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		n, workers int
		share      float64 // of the raw payload
	}{{8 * DefaultBlockElems, 1, 1}, {32768, 1, 0.01}, {32768, 2, 0.01}} {
		parallel.SetWorkers(c.workers)
		x := testField(c.n, 5)
		const calls = 4
		bc := BlockedFlate{}
		runtime.GC()
		WarmDeflaters(c.workers, x[:min(len(x), bc.BlockSize())])
		dst := compress(t, x, bc) // warms the pools; dst keeps the stream's capacity
		var err error
		per := allocatedBytes(func() {
			for range calls {
				if dst, err = Compress(dst[:0], x, bc); err != nil {
					break
				}
			}
		}) / calls
		if err != nil {
			t.Fatal(err)
		}
		if limit := uint64(c.share * float64(8*len(x))); per >= limit {
			t.Errorf("compress of %d elements on %d workers allocated %d bytes per call, want under %d",
				c.n, c.workers, per, limit)
		}
	}
}

// gridStream is an SZ stream predicted over a 20×20×3 grid, two slabs
// to a block: the one stream whose block size the codec chose.
func gridStream(t testing.TB) []byte {
	x := make([]float64, 0, 20*20*3)
	for i := 0; i < cap(x); i++ {
		u, v, w := float64(i%20), float64(i/20%20), float64(i/400)
		x = append(x, 2.5+math.Sin(u/5)*math.Cos(v/4+w/6)+0.2*math.Sin(w/3))
	}
	enc, err := sz.Compress(x, sz.Params{Mode: sz.PWRel, ErrorBound: 1e-6, BlockSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if lay, err := ParseBlockLayout(Whole(enc), len(enc)); err != nil || lay.BlockElems != 800 {
		t.Fatalf("grid stream in blocks of %d (%v), want two 400-element slabs", lay.BlockElems, err)
	}
	return enc
}

// fuzzCodecs maps every codec ID to its block codec.
var fuzzCodecs = map[ID]BlockCodec{Flate: BlockedFlate{}, SZ: sz.Blocks{}}

// FuzzContainer: the one header parser and the block decoders behind
// it, for both codec IDs (the retired IDs 1 and 2 parse as unknown).
// Any input either errors or decodes, never panics, and never
// allocates more than a multiple of the input plus the destination it
// was handed; on success BlockRanges, the layout and a block-by-block
// decode agree with the whole-stream one.
func FuzzContainer(f *testing.F) {
	x := testField(700, 1)
	szStream := func(x []float64, p sz.Params) []byte {
		enc, err := sz.Compress(x, p)
		if err != nil {
			f.Fatal(err)
		}
		return enc
	}
	for _, enc := range [][]byte{
		szStream(x, sz.Params{Mode: sz.RelRange, ErrorBound: 1e-4, BlockSize: 256}),
		compress(f, x, BlockedFlate{BlockElems: 256}),
	} {
		f.Add(enc, uint32(len(x)))
		f.Add(enc[:len(enc)/2], uint32(len(x)))
	}
	f.Add(szStream(x, sz.Params{Mode: sz.Abs, ErrorBound: 1e-4, BlockSize: 256}), uint32(len(x)))
	f.Add(szStream(x, sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4, BlockSize: 256}), uint32(len(x)))
	f.Add(gridStream(f), uint32(20*20*3))
	f.Add(AppendConstant(nil, sz.Blocks{}, 9, 1.5), uint32(9))
	// The empty vector: one empty block, nothing to decode into.
	f.Add(szStream(nil, sz.Params{Mode: sz.Abs, ErrorBound: 1e-4}), uint32(0))
	f.Add(compress(f, nil, BlockedFlate{}), uint32(0))
	f.Add(mangleHeader([]byte("BLK1\x04"), 1<<40, 1<<39, 2, []uint64{4, 4}, make([]byte, 8)), uint32(4))
	f.Add(mangleHeader([]byte("BLK1\x01"), 1<<63, 1<<63, 1, []uint64{1 << 63}, nil), uint32(4))
	bomb := flateBomb(f)
	f.Add(mangleHeader([]byte("BLK1\x03"), 1, 1, 1, []uint64{uint64(len(bomb))}, bomb), uint32(1))
	// Thirty one-value flate blocks of garbage: each is refused, and
	// none may cost a fresh inflater.
	tiny := binary.LittleEndian.AppendUint64(nil, 1)
	tiny = append(tiny, 0xff, 0xff)
	f.Add(mangleHeader([]byte("BLK1\x03"), 30, 1, 30, slices.Repeat([]uint64{10}, 30), bytes.Repeat(tiny, 30)), uint32(30))
	f.Fuzz(func(t *testing.T, data []byte, n uint32) {
		dst := make([]float64, n%(1<<14))
		var lay BlockLayout
		var err error
		allocated := allocatedBytes(func() {
			if lay, err = ParseBlockLayout(Whole(data), len(data)); err == nil {
				if bc := fuzzCodecs[lay.ID]; bc == nil {
					t.Errorf("layout of unknown codec %v", lay.ID)
				} else {
					err = DecompressInto(dst, data, bc)
				}
			}
		})
		// A block inflates to no more than its slice of the
		// destination; the length table costs 16 bytes a block and each
		// block at least a byte; scratch is per destination element,
		// a cold pool is a constant, and so is the inflater (its 32 KiB
		// window) each worker takes from its pool.
		if limit := uint64(16*len(data) + 64*len(dst) + 1<<20 + 64<<10*parallel.Workers()); allocated > limit {
			t.Fatalf("%d input bytes into %d elements allocated %d bytes", len(data), len(dst), allocated)
		}
		ranges, ok := BlockRanges(data)
		if err != nil {
			if ok && lay.N == len(dst) && len(ranges) == 0 {
				t.Fatalf("a constant stream of the destination's length failed: %v", err)
			}
			return
		}
		if !ok || len(ranges) != len(lay.Blocks) || lay.N != len(dst) {
			t.Fatalf("decoded %d values, layout says %d; %d ranges, %d blocks (%v)", len(dst), lay.N, len(ranges), len(lay.Blocks), ok)
		}
		bc := fuzzCodecs[lay.ID]
		blockwise := make([]float64, lay.N)
		at := 0
		for b, r := range lay.Blocks {
			if r != ranges[b] || r.Start < at || r.End < r.Start {
				t.Fatalf("block %d spans %+v, ranges say %+v, previous ended at %d", b, r, ranges[b], at)
			}
			at = r.End
			lo, hi := lay.ElemRange(b)
			if err := bc.DecodeBlockInto(blockwise[lo:hi], data[r.Start:r.End]); err != nil {
				t.Fatalf("block %d alone: %v", b, err)
			}
		}
		if len(lay.Blocks) == 0 {
			for i := range blockwise {
				blockwise[i] = lay.Constant
			}
		} else if at != len(data) {
			t.Fatalf("blocks end at %d of %d bytes", at, len(data))
		}
		if !bytesEqualFloats(blockwise, dst) {
			t.Fatal("block-by-block decode differs from the whole-stream one")
		}
	})
}

// allocatedBytes reports the heap bytes allocated while f runs.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
