package sz

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/huffman"
)

type goldenCase struct {
	name string
	x    []float64
	p    Params
}

// goldenCases are inputs whose reconstructions were hashed at the
// commit before the entropy stage and the log-transform framing were
// rebuilt.
func goldenCases() []goldenCase {
	smooth := blockedInput(100000, 13)
	// Every side channel of the log transform at once: zeros, both
	// signs, subnormals, and 300 decades of magnitude.
	mixed := make([]float64, 70000)
	for i := range mixed {
		switch v := math.Sin(float64(i)/37) * math.Exp(float64(i%600)-300); {
		case i%11 == 0:
			mixed[i] = 0
		case i%17 == 0:
			mixed[i] = math.Copysign(5e-324*float64(1+i%1000), v)
		default:
			mixed[i] = v
		}
	}
	negative := make([]float64, 40000)
	for i := range negative {
		negative[i] = -smooth[i]
	}
	return []goldenCase{
		{"smooth/pwrel", smooth, Params{Mode: PWRel, ErrorBound: 1e-4}},
		{"smooth/pwrel/tight", smooth, Params{Mode: PWRel, ErrorBound: 1e-13}},
		{"smooth/abs", smooth, Params{Mode: Abs, ErrorBound: 1e-4}},
		{"smooth/relrange", smooth, Params{Mode: RelRange, ErrorBound: 1e-5, BlockSize: 4096}},
		{"smooth/pwrel/legacy", smooth[:20000], Params{Mode: PWRel, ErrorBound: 1e-3}},
		{"mixed/pwrel", mixed, Params{Mode: PWRel, ErrorBound: 1e-4}},
		{"mixed/pwrel/small-blocks", mixed, Params{Mode: PWRel, ErrorBound: 1e-2, BlockSize: 1000}},
		{"negative/pwrel", negative, Params{Mode: PWRel, ErrorBound: 1e-4}},
	}
}

// bitmapSaving is what the presence byte saves on x against three
// always-stored bitmaps: per block, ⌈n/8⌉ bytes for every bitmap with
// no bit set, less the presence byte itself. The shorter blocks can
// also shorten their length varints in the container header, by at
// most one byte each.
func bitmapSaving(x []float64, p Params) (saved, varintSlack int) {
	if p.Mode != PWRel {
		return 0, 0
	}
	blockElems := p.BlockSize
	if blockElems == 0 {
		blockElems = codec.DefaultBlockElems
	}
	for lo := 0; lo < len(x); lo += blockElems {
		blk := x[lo:min(lo+blockElems, len(x))]
		var zero, neg, tiny bool
		for _, v := range blk {
			zero = zero || v == 0
			neg = neg || (v != 0 && math.Signbit(v))
			tiny = tiny || (v != 0 && math.Abs(v) < tinyThreshold)
		}
		saved--
		varintSlack++
		for _, stored := range []bool{zero, neg, tiny} {
			if !stored {
				saved += (len(blk) + 7) / 8
			}
		}
	}
	return saved, varintSlack
}

// TestReconstructionMatchesParent: the rebuilt Huffman stage and the
// presence-byte framing change bytes, never values. Reconstructions
// hash to what the parent commit produced, and the stream shrinks by
// exactly the bitmaps no longer stored (Abs and RelRange streams, which
// have none, keep their size to the byte: every optimal prefix code
// costs the same bits and the same table). Folding the SZ formats into
// the shared container left the reconstructions and every many-block
// size alone (the two container headers are the same length); the one
// single-block case gained its container header: 15 bytes of framing
// (magic, ID, n, block size, block count, block length, kind) where the
// single-stream format spent 6. Grid inference looks at all eight — each
// is long enough — and declines on all eight: they are 1-D signals, so
// no block is predicted over a grid and every hash and size stands.
func TestReconstructionMatchesParent(t *testing.T) { kernelPaths(t, reconstructionMatchesParent) }

func reconstructionMatchesParent(t *testing.T) {
	parent := map[string]struct {
		hash uint64
		size int
	}{
		"smooth/pwrel":             {0xf11c044cbcc49941, 55639},
		"smooth/pwrel/tight":       {0x43d35ae064334278, 769986},
		"smooth/abs":               {0x932b2f9983257aab, 22043},
		"smooth/relrange":          {0x410319ce1afa81d6, 22670},
		"smooth/pwrel/legacy":      {0x6467adcd72f98244, 10141 + 9},
		"mixed/pwrel":              {0x5e2ef6b1c772aab8, 161802},
		"mixed/pwrel/small-blocks": {0x78c9c9bf96e1cf51, 114641},
		"negative/pwrel":           {0xdeb005c739377c70, 22422},
	}
	for _, c := range goldenCases() {
		comp, err := Compress(c.x, c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for b, s := range predictorsOf(t, comp) {
			if s.pred == PredictorLorenzoND {
				t.Fatalf("%s: block %d predicted over strides (%d, %d): re-record the case", c.name, b, s.s1, s.s2)
			}
		}
		got, err := Decompress(comp)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		into := make([]float64, len(c.x))
		if err := DecompressInto(into, comp); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := fnv.New64a()
		for i, v := range got {
			if math.Float64bits(v) != math.Float64bits(into[i]) {
				t.Fatalf("%s: DecompressInto differs from Decompress at %d", c.name, i)
			}
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
		want := parent[c.name]
		if h.Sum64() != want.hash {
			t.Errorf("%s: reconstruction differs from the parent commit's", c.name)
		}
		saved, slack := bitmapSaving(c.x, c.p)
		if d := want.size - saved - len(comp); d < 0 || d > slack {
			t.Errorf("%s: %d bytes; parent %d less %d bytes of empty bitmaps is %d", c.name, len(comp), want.size, saved, want.size-saved)
		}
	}
}

// TestPositiveVectorStoresNoBitmaps: the case the presence byte exists
// for. A strictly positive, normal vector spent 3 bits per element on
// three empty bitmaps.
func TestPositiveVectorStoresNoBitmaps(t *testing.T) {
	x := blockedInput(codec.DefaultBlockElems, 5)
	comp, err := Compress(x, Params{Mode: PWRel, ErrorBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	at := layoutOf(t, comp).Blocks[0].Start + 1 // the block's kind byte
	payload := comp[at:]
	_, k := binary.Uvarint(payload)
	if payload[k] != 0 {
		t.Fatalf("presence byte %#x, want 0", payload[k])
	}
	x[100], x[200] = 0, -x[200]
	withBoth, err := Compress(x, Params{Mode: PWRel, ErrorBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if payload = withBoth[at:]; payload[k] != 0b011 {
		t.Fatalf("presence byte %#x, want zeros|signs", payload[k])
	}
	if grew, want := len(withBoth)-len(comp), 2*codec.DefaultBlockElems/8; grew < want-16 || grew > want+16 {
		t.Fatalf("one zero and one negative grew the stream by %d bytes, want two bitmaps (%d)", grew, want)
	}
}

// logBlock frames a log-transform block around a core sub-stream.
func logBlock(n uint64, presence byte, bitmaps []byte, nExact uint64, core []byte) []byte {
	p := binary.AppendUvarint([]byte{kindLogTransform}, n)
	p = append(p, presence)
	p = append(p, bitmaps...)
	p = binary.AppendUvarint(p, nExact)
	return append(p, core...)
}

// logPayload is a stream of four elements in one such block.
func logPayload(n uint64, presence byte, bitmaps []byte, nExact uint64, core []byte) []byte {
	return blockedOf(4, logBlock(n, presence, bitmaps, nExact, core))
}

// corePayload frames a core payload with the given (possibly lying)
// length fields around a Huffman stream.
func corePayload(n, nUnpred, hlen uint64, hstream []byte) []byte {
	return coreHeader(n, 1e-3, 16, nUnpred, hlen, hstream)
}

func coreHeader(n uint64, eb float64, intervals, nUnpred, hlen uint64, hstream []byte) []byte {
	p := binary.AppendUvarint(nil, n)
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(eb))
	p = append(p, byte(PredictorLorenzo))
	p = binary.AppendUvarint(p, intervals)
	p = binary.AppendUvarint(p, nUnpred)
	p = binary.AppendUvarint(p, hlen)
	return append(p, hstream...)
}

// stencilCore is the well-formed four-element core payload with its
// predictor byte replaced by pred and the uvarints that follow it.
func stencilCore(hstream []byte, pred byte, strides ...uint64) []byte {
	p := corePayload(4, 0, uint64(len(hstream)), hstream)
	out := append(bytes.Clone(p[:9]), pred) // uvarint n, the bound, the predictor byte
	for _, s := range strides {
		out = binary.AppendUvarint(out, s)
	}
	return append(out, p[10:]...)
}

// craftedStreams are streams whose fields lie. The length fields of the
// first three wrapped an int conversion or multiplication and panicked
// (slice bounds out of range, makeslice: len out of range) before they
// were compared in uint64; the bounds and bin counts of the five after
// "constant" are ones no encoder writes, and decoded to NaN, Inf or
// garbage without an error before they were checked; so did every
// predictor byte but Lorenzo's, which all took the linear path. The
// strides of the grid predictor are held to what an encoder writes
// before they index anything.
func craftedStreams(t testing.TB) map[string][]byte {
	hstream, err := huffman.AppendEncode(nil, []int{8, 8, 9, 8}, 16)
	if err != nil {
		t.Fatal(err)
	}
	core := func(n, nUnpred, hlen uint64) []byte {
		return blockedOf(4, append([]byte{kindCore}, corePayload(n, nUnpred, hlen, hstream)...))
	}
	bound := func(eb float64, intervals uint64) []byte {
		return blockedOf(4, append([]byte{kindCore}, coreHeader(4, eb, intervals, 0, uint64(len(hstream)), hstream)...))
	}
	stencil := func(pred byte, strides ...uint64) []byte {
		return blockedOf(4, append([]byte{kindCore}, stencilCore(hstream, pred, strides...)...))
	}
	good := corePayload(4, 0, uint64(len(hstream)), hstream)
	return map[string][]byte{
		"core/hlen-2pow63":      core(4, 0, 1<<63),
		"core/hlen-2pow64-1":    core(4, 0, math.MaxUint64),
		"core/nUnpred-2pow61":   core(4, 1<<61, uint64(len(hstream))),
		"core/nUnpred-2pow62":   core(4, 1<<62+1, uint64(len(hstream))),
		"log/nExact-2pow61":     logPayload(4, 0, nil, 1<<61, good),
		"log/nExact-2pow64-1":   logPayload(4, 0, nil, math.MaxUint64, good),
		"log/n-2pow63":          logPayload(1<<63, 0b111, nil, 0, good),
		"log/n-2pow64-1":        logPayload(math.MaxUint64, 0, nil, 0, good),
		"log/presence-8":        logPayload(4, 8, nil, 0, good),
		"log/missing-bitmap":    logPayload(4, 0b001, nil, 0, nil),
		"log/old-kind-2":        blockedOf(4, append([]byte{2}, logBlock(4, 0, nil, 0, good)[1:]...)),
		"log/count-mismatch":    logPayload(5, 0, nil, 0, good),
		"log/header-only":       blockedOf(4, logBlock(4, 0, nil, 0, nil)[:2]),
		"blocked/wrapped-log":   containerOf(8, 4, logBlock(4, 0, nil, 0, good), logBlock(4, 0, nil, 1<<61, good)),
		"constant/n-2pow47":     constantStream(1<<47, 1.5),
		"core/eb-nan":           bound(math.NaN(), 16),
		"core/eb-inf":           bound(math.Inf(1), 16),
		"core/eb-negative":      bound(-1, 16),
		"core/intervals-2":      bound(1e-3, 2),
		"core/intervals-2pow25": bound(1e-3, 1<<25),
		"core/pred-auto":        stencil(byte(PredictorAuto)),
		"core/pred-4":           stencil(4),
		"core/pred-255":         stencil(255),
		"core/nd-no-strides":    blockedOf(4, append([]byte{kindCore}, stencilCore(hstream, byte(PredictorLorenzoND))[:10]...)),
		"core/nd-s1-0":          stencil(byte(PredictorLorenzoND), 0, 0),
		"core/nd-s1-whole":      stencil(byte(PredictorLorenzoND), 4, 0),
		"core/nd-s1-2pow63":     stencil(byte(PredictorLorenzoND), 1<<63, 0),
		"core/nd-s2-ragged":     stencil(byte(PredictorLorenzoND), 2, 1),
		"core/nd-s2-overrun":    stencil(byte(PredictorLorenzoND), 1, 3),
		"core/nd-s2-2pow64-1":   stencil(byte(PredictorLorenzoND), 1, math.MaxUint64),
	}
}

// constantStream frames a constant stream declaring n values.
func constantStream(n uint64, c float64) []byte {
	p := containerOf(n, max(n, 1))
	return binary.LittleEndian.AppendUint64(p, math.Float64bits(c))
}

// TestConstantStreamCeiling: some 20 bytes may declare any count, and
// Decompress is the one entry point that sizes its output from the
// count alone. One value past the ceiling is an error before anything
// is allocated (at the parent commit: 128 MiB, and up to 2 PB asked
// for); the ceiling itself and DecompressInto, which is handed its
// destination, are unaffected.
func TestConstantStreamCeiling(t *testing.T) {
	var got []float64
	var err error
	allocated := allocatedBytes(func() { got, err = Decompress(constantStream(codec.MaxConstantElems+1, 1.5)) })
	if err == nil || got != nil {
		t.Fatalf("Decompress returned %d values, %v for a stream past the ceiling", len(got), err)
	}
	if allocated > 64<<10 {
		t.Fatalf("rejecting the stream allocated %d bytes", allocated)
	}
	dst := make([]float64, 3)
	if err := DecompressInto(dst, constantStream(3, 1.5)); err != nil || dst[0] != 1.5 || dst[2] != 1.5 {
		t.Fatalf("DecompressInto: %v, %v", dst, err)
	}
	if got, err := Decompress(constantStream(3, 1.5)); err != nil || len(got) != 3 || got[1] != 1.5 {
		t.Fatalf("Decompress: %v, %v", got, err)
	}
}

// containerOf frames block payloads (kind byte first) in a container
// declaring n elements in blocks of blockElems.
func containerOf(n, blockElems uint64, blocks ...[]byte) []byte {
	p := append([]byte("BLK1"), byte(codec.SZ))
	p = binary.AppendUvarint(p, n)
	p = binary.AppendUvarint(p, blockElems)
	p = binary.AppendUvarint(p, uint64(len(blocks)))
	for _, blk := range blocks {
		p = binary.AppendUvarint(p, uint64(len(blk)))
	}
	for _, blk := range blocks {
		p = append(p, blk...)
	}
	return p
}

// blockedOf wraps one block payload in a container of n elements.
func blockedOf(n uint64, block []byte) []byte { return containerOf(n, n, block) }

func TestCraftedLengthFieldsError(t *testing.T) {
	for name, data := range craftedStreams(t) {
		if _, err := Decompress(data); err == nil {
			t.Errorf("%s: Decompress accepted the stream", name)
		}
		if err := DecompressInto(make([]float64, 4), data); err == nil {
			t.Errorf("%s: DecompressInto accepted the stream", name)
		}
	}
	// The honest version of the same frames decodes.
	hstream, _ := huffman.AppendEncode(nil, []int{8, 8, 9, 8}, 16)
	good := logPayload(4, 0, nil, 0, corePayload(4, 0, uint64(len(hstream)), hstream))
	if got, err := Decompress(good); err != nil || len(got) != 4 {
		t.Fatalf("well-formed crafted stream: %v, %v", got, err)
	}
	// So do the grids four elements can be: two rows of two, and four
	// slabs of one row of one.
	for _, strides := range [][]uint64{{2, 0}, {1, 2}, {1, 1}} {
		grid := blockedOf(4, append([]byte{kindCore}, stencilCore(hstream, byte(PredictorLorenzoND), strides...)...))
		if got, err := Decompress(grid); err != nil || len(got) != 4 {
			t.Fatalf("well-formed crafted stream over strides %v: %v, %v", strides, got, err)
		}
	}
}

// FuzzDecompressInto: any input either errors or fills dst with what
// Decompress returns, without panicking and without allocating more
// than a multiple of the input plus the destination it was handed; and
// the decoder rejects what the reference loops reject and returns,
// bit for bit, what they return.
func FuzzDecompressInto(f *testing.F) {
	for _, data := range craftedStreams(f) {
		f.Add(data, uint32(4))
	}
	for _, c := range goldenCases() {
		x := c.x[:600]
		c.p.BlockSize = 250
		comp, err := Compress(x, c.p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(comp, uint32(len(x)))
		f.Add(comp[:len(comp)/2], uint32(len(x)))
	}
	grid, err := Compress(gridField(8, 8, 8, 0), Params{Mode: PWRel, ErrorBound: 1e-4, Predictor: PredictorLorenzoND, BlockSize: 250})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(grid, uint32(512))
	f.Fuzz(func(t *testing.T, data []byte, n uint32) {
		dst := make([]float64, n%(1<<16))
		var err error
		allocated := allocatedBytes(func() { err = DecompressInto(dst, data) })
		// Scratch is per element (codes, logarithms: 16 bytes) and per
		// input byte (each declares at most 8 elements, each block at
		// least one byte of length table); 256 KiB covers cold pools.
		if limit := uint64(256*len(data) + 32*len(dst) + 256<<10); allocated > limit {
			t.Fatalf("%d input bytes into %d elements allocated %d bytes", len(data), len(dst), allocated)
		}
		sameBits(t, "fuzz", data, len(dst))
		if err != nil {
			return
		}
		// Success pins the element count to len(dst), so the allocating
		// entry point is safe to run on the same bytes.
		fresh, err := Decompress(data)
		if err != nil || len(fresh) != len(dst) {
			t.Fatalf("DecompressInto succeeded, Decompress: %d values, %v", len(fresh), err)
		}
		for i := range dst {
			if math.Float64bits(dst[i]) != math.Float64bits(fresh[i]) {
				t.Fatalf("index %d: DecompressInto %x, Decompress %x", i, dst[i], fresh[i])
			}
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
