package codec_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	. "repro/internal/codec"
	"repro/internal/lossless"
	"repro/internal/parallel"
	"repro/internal/sz"
	"repro/internal/zfp"
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

const zfpBound = 1e-6

// blockCodecs returns the two codecs this package adapts, with a
// small block size so modest inputs span several blocks.
func blockCodecs(blockElems int) []BlockCodec {
	return []BlockCodec{
		BlockedZFP{Bound: zfpBound, BlockElems: blockElems},
		BlockedFlate{BlockElems: blockElems},
	}
}

func compress(t testing.TB, x []float64, bc BlockCodec) []byte {
	t.Helper()
	enc, err := Compress(nil, x, bc, nil)
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

// bareDecode decodes a whole-vector stream of bc's underlying codec,
// outside any container: the reference the blocks are compared to.
func bareDecode(t testing.TB, x []float64, bc BlockCodec) []float64 {
	t.Helper()
	dec := make([]float64, len(x))
	var bare []byte
	var err error
	switch bc.ID() {
	case ZFP:
		if bare, err = zfp.Compress(x, zfpBound); err == nil {
			err = zfp.DecompressInto(dec, bare)
		}
	default:
		if bare, err = (lossless.Flate{}).Compress(x); err == nil {
			err = lossless.Flate{}.DecompressInto(dec, bare)
		}
	}
	if err != nil {
		t.Fatalf("%v: bare codec: %v", bc.ID(), err)
	}
	return dec
}

// TestRoundTripBlockedAndLegacy: every length is framed — one block or
// many, the empty vector included — and round-trips within the codec's
// contract; a bare stream of the underlying codec, which inputs of at
// most one block used to be written as, is turned away by name.
func TestRoundTripBlockedAndLegacy(t *testing.T) {
	for _, n := range []int{0, 1, 31, 100, 4096, 4097, 14000} {
		x := testField(n, int64(n))
		for _, bc := range blockCodecs(4096) {
			enc := compress(t, x, bc)
			lay := layoutOf(t, enc)
			if want := max(1, (n+4095)/4096); len(lay.Blocks) != want || lay.N != n || lay.ID != bc.ID() {
				t.Fatalf("%v n=%d: %d blocks of codec %v for %d values, want %d", bc.ID(), n, len(lay.Blocks), lay.ID, lay.N, want)
			}
			dec, err := Decompress(enc, bc)
			if err != nil {
				t.Fatalf("%v n=%d: decompress: %v", bc.ID(), n, err)
			}
			if len(dec) != n {
				t.Fatalf("%v n=%d: got %d values", bc.ID(), n, len(dec))
			}
			for i := range x {
				if bc.ID() == ZFP {
					if d := math.Abs(dec[i] - x[i]); d > zfpBound*(1+1e-12) {
						t.Fatalf("%v n=%d: |err|=%g exceeds bound at %d", bc.ID(), n, d, i)
					}
				} else if dec[i] != x[i] {
					t.Fatalf("%v n=%d: lossless mismatch at %d: %v != %v", bc.ID(), n, i, dec[i], x[i])
				}
			}
			// DecompressInto must agree bitwise with Decompress.
			into := make([]float64, n)
			if err := DecompressInto(into, enc, bc); err != nil {
				t.Fatalf("%v n=%d: DecompressInto: %v", bc.ID(), n, err)
			}
			if !bytesEqualFloats(into, dec) {
				t.Fatalf("%v n=%d: Into differs", bc.ID(), n)
			}
		}
	}
	bare, err := zfp.Compress(testField(100, 1), zfpBound)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(bare, BlockedZFP{}); err == nil || !strings.Contains(err.Error(), "ZFG1") {
		t.Fatalf("bare ZFG1 vector: %v, want an error naming the magic", err)
	}
}

// TestBlockedMatchesLegacyBitwise checks that the blocks reconstruct
// exactly the bits one stream of the codec over the whole vector does:
// trivially true for the lossless codecs, and true for ZFP because
// container blocks are forced to transform-block multiples.
func TestBlockedMatchesLegacyBitwise(t *testing.T) {
	n := 10000
	x := testField(n, 7)
	for _, bc := range blockCodecs(2048) {
		enc := compress(t, x, bc)
		if got := len(layoutOf(t, enc).Blocks); got != 5 {
			t.Fatalf("%v: %d blocks, want 5", bc.ID(), got)
		}
		blockedDec, err := Decompress(enc, bc)
		if err != nil {
			t.Fatalf("%v: blocked decompress: %v", bc.ID(), err)
		}
		if !bytesEqualFloats(bareDecode(t, x, bc), blockedDec) {
			t.Fatalf("%v: blocks reconstruct other bits than one stream", bc.ID())
		}
	}
}

// TestZFPBlockElemsRounding verifies the transform-alignment rule.
func TestZFPBlockElemsRounding(t *testing.T) {
	be := BlockedZFP{Bound: 1e-4, BlockElems: 1000}.BlockSize()
	if be%zfp.BlockSize != 0 {
		t.Fatalf("block size %d not a transform-block multiple", be)
	}
	if be < 1000 {
		t.Fatalf("block size rounded down: %d", be)
	}
	if got := (BlockedZFP{}).BlockSize(); got != DefaultBlockElems {
		t.Fatalf("default block size %d", got)
	}
}

func TestBlockLayoutAndPerBlockDecode(t *testing.T) {
	n := 9000
	x := testField(n, 3)
	for _, bc := range blockCodecs(2048) {
		enc := compress(t, x, bc)
		lay := layoutOf(t, enc)
		if lay.N != n {
			t.Fatalf("%v: layout N=%d", bc.ID(), lay.N)
		}
		full, err := Decompress(enc, bc)
		if err != nil {
			t.Fatal(err)
		}
		for b, span := range lay.Blocks {
			lo, hi := lay.ElemRange(b)
			dst := make([]float64, hi-lo)
			if err := bc.DecodeBlockInto(dst, enc[span.Start:span.End]); err != nil {
				t.Fatalf("%v: block %d: %v", bc.ID(), b, err)
			}
			if !bytesEqualFloats(dst, full[lo:hi]) {
				t.Fatalf("%v: block %d differs", bc.ID(), b)
			}
		}
		// The header alone — what the parser asks a streaming reader
		// for — yields the same layout.
		hdr, err := ParseBlockLayout(Whole(enc[:lay.Blocks[0].Start]), len(enc))
		if err != nil || len(hdr.Blocks) != len(lay.Blocks) {
			t.Fatalf("%v: layout from the header bytes alone: %v", bc.ID(), err)
		}
		// BlockRanges must match the layout spans.
		ranges, ok := BlockRanges(enc)
		if !ok || len(ranges) != len(lay.Blocks) {
			t.Fatalf("%v: BlockRanges mismatch", bc.ID())
		}
		for b := range ranges {
			if ranges[b] != lay.Blocks[b] || hdr.Blocks[b] != lay.Blocks[b] {
				t.Fatalf("%v: range %d mismatch", bc.ID(), b)
			}
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

	// A stream of the retired codec is named as what it is, from the
	// header alone.
	retired := cases["retired id 2 (fpc)"]
	if _, err := ParseBlockLayout(Whole(retired[:8]), len(retired)); err == nil || !strings.Contains(err.Error(), "unknown codec id 2") {
		t.Errorf("retired id: %v, want the unknown-codec-id error", err)
	}

	// The n-vs-payload allocation guard must trip before the decoder
	// allocates: a tiny stream claiming a huge element count is the
	// attack the parser's guard exists for, with the per-codec ceiling
	// bounding what each codec could genuinely hold. One element past
	// the ceiling is refused, the ceiling itself is a layout.
	for id, perByte := range map[ID]uint64{ZFP: 1032, Flate: 129, SZ: 8} {
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

// TestBlockedAdapters: the lossless adapter frames exactly and reports
// the peak to an audit without touching the bytes, and an adapter
// turns away another codec's container.
func TestBlockedAdapters(t *testing.T) {
	x := testField(12000, 9)
	bc := BlockedFlate{BlockElems: 4096}
	enc := compress(t, x, bc)
	if got := len(layoutOf(t, enc).Blocks); got != 3 {
		t.Fatalf("%d blocks, want 3", got)
	}
	var st Stats
	audited, err := Compress(nil, x, bc, &st)
	if err != nil || !bytes.Equal(audited, enc) {
		t.Fatalf("audited bytes differ (%v)", err)
	}
	if st.Elements != len(x) || st.MaxErr != 0 || st.Bound != 0 || st.Lossy || st.MaxAbsValue < 3 {
		t.Fatalf("exact stats %+v", st)
	}
	dec, err := Decompress(enc, bc)
	if err != nil || !bytesEqualFloats(dec, x) {
		t.Fatalf("blocked round trip mismatch (%v)", err)
	}
	// Appending leaves what dst already holds alone.
	prefixed, err := Compress([]byte("prefix"), x, bc, nil)
	if err != nil || !bytes.Equal(prefixed, append([]byte("prefix"), enc...)) {
		t.Fatalf("Compress is not prefix + stream (%v)", err)
	}
	// Codec mismatch: a ZFP adapter must reject a flate container.
	if _, err := Decompress(enc, BlockedZFP{}); err == nil {
		t.Fatal("ZFP adapter accepted flate container")
	}
	if err := DecompressInto(make([]float64, len(x)), enc, BlockedZFP{}); err == nil {
		t.Fatal("ZFP adapter accepted flate container into a destination")
	}
	if id := layoutOf(t, enc).ID; id != Flate || id.String() != (lossless.Flate{}).Name() {
		t.Fatalf("container ID = %v", id)
	}
}

// TestZFPStatsMatchParent pins the decode-while-hot audit against the
// numbers of the commit before it moved into the container's block
// loop, where one whole-vector decode after the fact produced them. A
// vector of one block accumulates in the same order and matches bit
// for bit; over several blocks the two sums are per-block partial sums
// merged in block order, so they agree to rounding and the rest
// exactly. The stream sizes are the parent's plus the declared framing:
// a container header on what was a bare stream, one ID byte fewer per
// block on what was a container.
func TestZFPStatsMatchParent(t *testing.T) {
	for _, want := range []struct {
		n, bytes, elements                        int
		maxErr, sumErr, sumSqAbs, maxAbs, bound64 uint64
	}{
		{3000, 5988 + 13, 3000, 0x3ecabd763d5b0000, 0x3f643866bcc99a39, 0x3e2af6667fb2935f, 0x3ff51cca24309194, 0x3ee4f8b588e368f1},
		{100000, 197130 - 4, 100000, 0x3ed3469b17510000, 0x3fb4e192441cdbb2, 0x3e7be6fed6ff371d, 0x3ff51eb84fd79067, 0x3ee4f8b588e368f1},
	} {
		x := make([]float64, want.n)
		for i := range x {
			x[i] = math.Sin(float64(i)/50) * (1 + float64(i%97)/300)
		}
		var st Stats
		blob, err := Compress(nil, x, BlockedZFP{Bound: 1e-5}, &st)
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) != want.bytes {
			t.Errorf("n=%d: %d bytes, want %d", want.n, len(blob), want.bytes)
		}
		if st.Elements != want.elements || math.Float64bits(st.MaxErr) != want.maxErr ||
			math.Float64bits(st.MaxAbsValue) != want.maxAbs || math.Float64bits(st.Bound) != want.bound64 ||
			st.Relative || !st.Lossy {
			t.Errorf("n=%d: stats %+v differ from the parent commit's", want.n, st)
		}
		sumErr, sumSq := math.Float64frombits(want.sumErr), math.Float64frombits(want.sumSqAbs)
		if want.n <= DefaultBlockElems {
			if st.SumErr != sumErr || st.SumSqAbs != sumSq {
				t.Errorf("n=%d: sums %x %x, parent %x %x", want.n, st.SumErr, st.SumSqAbs, sumErr, sumSq)
			}
		} else if math.Abs(st.SumErr-sumErr) > 1e-13*sumErr || math.Abs(st.SumSqAbs-sumSq) > 1e-13*sumSq {
			t.Errorf("n=%d: sums %g %g, parent %g %g", want.n, st.SumErr, st.SumSqAbs, sumErr, sumSq)
		}
		plain := compress(t, x, BlockedZFP{Bound: 1e-5})
		if !bytes.Equal(plain, blob) {
			t.Errorf("n=%d: audited bytes differ from plain ones", want.n)
		}
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
	for _, bc := range blockCodecs(1024) {
		if !bytes.Equal(compress(t, x, bc), compress(t, x, bc)) {
			t.Fatalf("%v: nondeterministic container bytes", bc.ID())
		}
	}
}

// TestCompressAllocatesPerBlock: a blocked ZFP or DEFLATE compress in
// steady state allocates O(block), not O(payload) — the per-block encode
// buffer and the codecs' own scratch (DEFLATE's byte image and writer,
// ZFP's coefficient stream) come from pools. The stream is appended to
// a reused dst, so what is counted is scratch alone, and it must stay
// under the raw payload: one unpooled encode buffer per block is 9/8 of
// it.
func TestCompressAllocatesPerBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	x := testField(8*DefaultBlockElems, 5)
	const calls = 4
	for _, bc := range []BlockCodec{BlockedZFP{Bound: zfpBound}, BlockedFlate{}} {
		// GC paused: every collection empties the pools, and one after
		// the warm-up would bill the re-warm to a measured call.
		prevGC := debug.SetGCPercent(-1)
		runtime.GC()
		dst := compress(t, x, bc) // warms the pools; dst keeps the stream's capacity
		var err error
		per := allocatedBytes(func() {
			for range calls {
				if dst, err = Compress(dst[:0], x, bc, nil); err != nil {
					break
				}
			}
		}) / calls
		debug.SetGCPercent(prevGC)
		if err != nil {
			t.Fatalf("%v: %v", bc.ID(), err)
		}
		if raw := uint64(8 * len(x)); per >= raw {
			t.Errorf("%v: compress of %d blocks allocated %d bytes per call, want under the %d-byte raw payload",
				bc.ID(), len(x)/DefaultBlockElems, per, raw)
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
var fuzzCodecs = map[ID]BlockCodec{ZFP: BlockedZFP{}, Flate: BlockedFlate{}, SZ: sz.Blocks{}}

// FuzzContainer: the one header parser and the block decoders behind
// it, for all three codec IDs. Any input either errors or decodes, never
// panics, and never allocates more than a multiple of the input plus
// the destination it was handed; on success BlockRanges, the layout
// and a block-by-block decode agree with the whole-stream one.
func FuzzContainer(f *testing.F) {
	x := testField(700, 1)
	for _, bc := range []BlockCodec{
		BlockedZFP{Bound: 1e-4, BlockElems: 256}, BlockedFlate{BlockElems: 256},
	} {
		enc := compress(f, x, bc)
		f.Add(enc, uint32(len(x)))
		f.Add(enc[:len(enc)/2], uint32(len(x)))
	}
	for _, p := range []sz.Params{
		{Mode: sz.Abs, ErrorBound: 1e-4, BlockSize: 256},
		{Mode: sz.PWRel, ErrorBound: 1e-4, BlockSize: 256},
	} {
		enc, err := sz.Compress(x, p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc, uint32(len(x)))
	}
	f.Add(gridStream(f), uint32(20*20*3))
	f.Add(AppendConstant(nil, sz.Blocks{}, 9, 1.5), uint32(9))
	// The empty vector: one empty block, nothing to decode into.
	f.Add(compress(f, nil, BlockedZFP{Bound: 1e-4}), uint32(0))
	f.Add(compress(f, nil, BlockedFlate{}), uint32(0))
	f.Add(mangleHeader([]byte("BLK1\x04"), 1<<40, 1<<39, 2, []uint64{4, 4}, make([]byte, 8)), uint32(4))
	f.Add(mangleHeader([]byte("BLK1\x01"), 1<<63, 1<<63, 1, []uint64{1 << 63}, nil), uint32(4))
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
		// DEFLATE, under two of the three codecs, inflates a byte to at
		// most 1032; the length table costs 16 bytes a block and each
		// block at least a byte; scratch is per destination element, and
		// DEFLATE's window and a cold pool are a constant.
		if limit := uint64(1100*len(data) + 64*len(dst) + 1<<20); allocated > limit {
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
