package sz

import (
	"encoding/binary"
	"fmt"

	"repro/internal/parallel"
)

// The SZG2 blocked container:
//
//	"SZG2" | mode byte | uvarint n | uvarint blockElems | uvarint nBlocks
//	       | nBlocks × uvarint blockByteLen | concatenated block payloads
//
// Block i covers elements [i·blockElems, min(n, (i+1)·blockElems)).
// Each block payload is a kind byte followed by the same kind-specific
// encoding the legacy SZG1 stream uses, so every block is a fully
// independent compression unit: its own predictor state (chosen per
// block under PredictorAuto), its own Huffman table, its own
// unpredictable-value list. Blocks therefore compress and decompress
// concurrently with bit-exact determinism — the output bytes do not
// depend on the schedule, only on the input and parameters.
//
// Error-bound semantics match the legacy format exactly. Abs and PWRel
// bounds are pointwise, so per-block encoding preserves them verbatim.
// The RelRange bound is defined against the *global* value range, so
// the range is computed once over the whole vector and the derived
// absolute bound is shared by every block — a block-local range would
// silently tighten or loosen the guarantee.

// compressBlocked emits the SZG2 container, compressing blocks
// concurrently across the parallel worker pool.
func compressBlocked(x []float64, p Params) ([]byte, error) {
	n := len(x)
	blockElems := p.BlockSize
	nBlocks := (n + blockElems - 1) / blockElems

	// Mode-specific preparation that needs a global view.
	ebAbs := p.ErrorBound
	if p.Mode == RelRange {
		lo, hi := valueRange(x)
		ebAbs = p.ErrorBound * (hi - lo)
		if ebAbs == 0 {
			// Globally constant data collapses to the legacy constant
			// stream regardless of size.
			out := []byte(magic)
			out = append(out, byte(p.Mode))
			return appendConstant(out, x), nil
		}
	}

	blocks := make([][]byte, nBlocks)
	errs := make([]error, nBlocks)
	parallel.For(nBlocks, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			start := b * blockElems
			end := start + blockElems
			if end > n {
				end = n
			}
			chunk := x[start:end]
			buf := parallel.GetBytes(len(chunk) + 64)
			var err error
			switch p.Mode {
			case Abs, RelRange:
				buf = append(buf, kindCore)
				buf, err = appendCore(buf, chunk, ebAbs, p.Predictor, p.Intervals)
			case PWRel:
				buf = append(buf, kindLogTransform)
				buf, err = appendLogTransform(buf, chunk, p)
			default:
				err = fmt.Errorf("sz: unknown mode %d", p.Mode)
			}
			blocks[b], errs[b] = buf, err
		}
	})
	for b, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sz: block %d: %w", b, err)
		}
	}

	total := 0
	for _, blk := range blocks {
		total += len(blk)
	}
	out := make([]byte, 0, total+16+binary.MaxVarintLen64*(nBlocks+3))
	out = append(out, magicBlocked...)
	out = append(out, byte(p.Mode))
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		k := binary.PutUvarint(scratch[:], v)
		out = append(out, scratch[:k]...)
	}
	putUvarint(uint64(n))
	putUvarint(uint64(blockElems))
	putUvarint(uint64(nBlocks))
	for _, blk := range blocks {
		putUvarint(uint64(len(blk)))
	}
	for b, blk := range blocks {
		out = append(out, blk...)
		parallel.PutBytes(blk)
		blocks[b] = nil
	}
	return out, nil
}

// blockedLayout describes where each block of an SZG2 stream lives:
// offsets[b] is the absolute byte offset of block b's payload within
// the stream, with offsets[nBlocks] == len(stream).
type blockedLayout struct {
	n, blockElems int
	offsets       []int
}

// parseBlockedLayout validates an SZG2 container header and returns
// the block layout. It is the single header parser shared by the
// decompressor, the shard-alignment API, and the streaming decoder, so
// the allocation guards against crafted headers apply uniformly. data
// must contain the complete header (through the block-length table)
// but may be truncated before the block payloads; streamLen is the
// byte length of the full stream, against which the guards and the
// block spans are validated (in-memory callers pass len(data)).
func parseBlockedLayout(data []byte, streamLen int) (blockedLayout, error) {
	var lay blockedLayout
	off := len(magicBlocked) + 1 // skip magic and the informational mode byte
	if len(data) < off {
		return lay, fmt.Errorf("sz: truncated blocked header")
	}
	getUvarint := func() (uint64, error) {
		v, k := binary.Uvarint(data[off:])
		if k <= 0 {
			return 0, fmt.Errorf("sz: truncated blocked header")
		}
		off += k
		return v, nil
	}
	n64, err := getUvarint()
	if err != nil {
		return lay, err
	}
	blockElems64, err := getUvarint()
	if err != nil {
		return lay, err
	}
	nBlocks64, err := getUvarint()
	if err != nil {
		return lay, err
	}
	n := int(n64)
	blockElems := int(blockElems64)
	nBlocks := int(nBlocks64)
	if n < 0 || blockElems < 1 || nBlocks < 1 {
		return lay, fmt.Errorf("sz: invalid blocked header (n=%d blockElems=%d nBlocks=%d)",
			n, blockElems, nBlocks)
	}
	if want := (n + blockElems - 1) / blockElems; want != nBlocks {
		return lay, fmt.Errorf("sz: blocked header inconsistent: %d elements in %d-element blocks needs %d blocks, header says %d",
			n, blockElems, want, nBlocks)
	}
	// Allocation guards against crafted headers: every block needs at
	// least one length byte, and both block kinds spend at least one
	// bit per element (a Huffman code in core blocks; a zeros- or
	// tiny-bitmap bit or a Huffman code in log-transform blocks), so a
	// genuine stream can never claim more blocks than remaining bytes
	// or more elements than 8× the remaining bytes.
	if nBlocks > streamLen-off {
		return lay, fmt.Errorf("sz: %d blocks exceed %d remaining bytes", nBlocks, streamLen-off)
	}
	if n > 8*(streamLen-off) {
		return lay, fmt.Errorf("sz: %d elements exceed %d payload bytes", n, streamLen-off)
	}
	lens := make([]int, nBlocks)
	for b := range lens {
		l, err := getUvarint()
		if err != nil {
			return lay, err
		}
		if l > uint64(streamLen-off) {
			return lay, fmt.Errorf("sz: block %d length %d exceeds payload", b, l)
		}
		lens[b] = int(l)
	}
	offsets := make([]int, nBlocks+1)
	offsets[0] = off
	for b, l := range lens {
		offsets[b+1] = offsets[b] + l
	}
	if offsets[nBlocks] != streamLen {
		return lay, fmt.Errorf("sz: blocked payload is %d bytes, blocks cover %d",
			streamLen-off, offsets[nBlocks]-off)
	}
	return blockedLayout{n: n, blockElems: blockElems, offsets: offsets}, nil
}

// decompressBlocked reverses compressBlocked, decoding blocks
// concurrently straight into their slices of the output vector.
func decompressBlocked(data []byte) ([]float64, error) {
	lay, err := parseBlockedLayout(data, len(data))
	if err != nil {
		return nil, err
	}
	out := make([]float64, lay.n)
	if err := decodeBlocksInto(data, lay, out); err != nil {
		return nil, err
	}
	return out, nil
}

// decompressBlockedInto is decompressBlocked into a caller-provided
// output vector, whose length must match the stream's element count.
func decompressBlockedInto(data []byte, dst []float64) error {
	lay, err := parseBlockedLayout(data, len(data))
	if err != nil {
		return err
	}
	if len(dst) != lay.n {
		return fmt.Errorf("sz: stream holds %d values, dst has %d", lay.n, len(dst))
	}
	return decodeBlocksInto(data, lay, dst)
}

// decodeBlocksInto decodes every block of a parsed SZG2 stream into
// its slice of out, concurrently across the worker pool.
func decodeBlocksInto(data []byte, lay blockedLayout, out []float64) error {
	n, blockElems, offsets := lay.n, lay.blockElems, lay.offsets
	nBlocks := len(offsets) - 1
	errs := make([]error, nBlocks)
	parallel.For(nBlocks, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			start := b * blockElems
			end := start + blockElems
			if end > n {
				end = n
			}
			errs[b] = decodeBlockInto(out[start:end], data[offsets[b]:offsets[b+1]])
		}
	})
	for b, err := range errs {
		if err != nil {
			return fmt.Errorf("sz: block %d: %w", b, err)
		}
	}
	return nil
}

// decodeBlockInto decodes one block payload (kind byte + payload) into
// dst, which must have exactly the block's element count. Only core
// and log-transform blocks exist inside SZG2 containers — globally
// constant data collapses to the legacy constant stream before
// blocking, and keeping kindConstant out of blocks is what makes the
// n ≤ 8·payload allocation guard in decompressBlocked sound.
func decodeBlockInto(dst []float64, blk []byte) error {
	if len(blk) < 1 {
		return fmt.Errorf("empty block")
	}
	kind, payload := blk[0], blk[1:]
	switch kind {
	case kindCore:
		_, err := decodeCoreInto(payload, dst)
		return err
	case kindLogTransform:
		_, err := decodeLogTransformInto(payload, dst)
		return err
	}
	return fmt.Errorf("unknown block payload kind %d", kind)
}

// Range is a half-open [Start, End) byte span within an encoded
// stream.
type Range struct {
	Start, End int
}

// BlockLayout describes the block structure of an SZG2 container for
// streaming decode: the total element count, the elements per full
// block (the last block may be shorter), and the absolute byte span of
// every block payload within the stream. A consumer holding only a
// contiguous piece of the stream — a checkpoint shard — can decode
// exactly the blocks whose spans it covers (DecodeBlockInto), without
// its neighbors.
type BlockLayout struct {
	N          int
	BlockElems int
	Blocks     []Range
}

// ElemRange returns the element span [lo, hi) that block b of the
// layout reconstructs.
func (l BlockLayout) ElemRange(b int) (lo, hi int) {
	lo = b * l.BlockElems
	hi = lo + l.BlockElems
	if hi > l.N {
		hi = l.N
	}
	return lo, hi
}

// HeaderPrefixLen is the number of leading bytes of an SZG2 stream
// that always contain the fixed header fields (magic, mode byte, and
// the three size varints); HeaderLenBound needs at most this much.
const HeaderPrefixLen = 5 + 3*binary.MaxVarintLen64

// HeaderLenBound reports an upper bound on the byte length of an SZG2
// container header (through the per-block length table), given the
// stream's first bytes. Streaming readers use it to size the header
// fetch before ParseBlockLayout: peek HeaderPrefixLen bytes, get the
// bound, fetch that much, parse. ok is false when prefix is not the
// start of an SZG2 stream or is too short to tell.
func HeaderLenBound(prefix []byte) (bound int, ok bool) {
	if len(prefix) < len(magicBlocked) || string(prefix[:len(magicBlocked)]) != magicBlocked {
		return 0, false
	}
	off := len(magicBlocked) + 1
	if len(prefix) < off {
		return 0, false
	}
	var nBlocks uint64
	for j := 0; j < 3; j++ {
		v, k := binary.Uvarint(prefix[off:])
		if k <= 0 {
			return 0, false
		}
		off += k
		nBlocks = v
	}
	// Guard the bound arithmetic against a crafted count; the real
	// nBlocks-vs-stream-length check happens in parseBlockedLayout.
	if nBlocks > uint64(1<<31/binary.MaxVarintLen64) {
		return 0, false
	}
	return off + int(nBlocks)*binary.MaxVarintLen64, true
}

// ParseBlockLayout validates an SZG2 container header and returns its
// block layout. header must contain the complete header (magic
// through the block-length table) and may be truncated anywhere after
// it; streamLen is the byte length of the full stream, which the
// crafted-header allocation guards and the block spans are validated
// against. In-memory callers pass the whole stream and its length.
func ParseBlockLayout(header []byte, streamLen int) (BlockLayout, error) {
	if len(header) < len(magicBlocked) || string(header[:len(magicBlocked)]) != magicBlocked {
		return BlockLayout{}, fmt.Errorf("sz: not an SZG2 stream")
	}
	lay, err := parseBlockedLayout(header, streamLen)
	if err != nil {
		return BlockLayout{}, err
	}
	bl := BlockLayout{N: lay.n, BlockElems: lay.blockElems, Blocks: make([]Range, len(lay.offsets)-1)}
	for b := range bl.Blocks {
		bl.Blocks[b] = Range{Start: lay.offsets[b], End: lay.offsets[b+1]}
	}
	return bl, nil
}

// DecodeBlockInto decodes one SZG2 block payload — the bytes of one
// BlockLayout span — into dst, which must hold exactly the block's
// element count (BlockLayout.ElemRange). It is the streaming-decode
// entry point: every block is a fully independent compression unit,
// so a shard holding whole blocks decodes without its neighbors.
func DecodeBlockInto(dst []float64, block []byte) error {
	return decodeBlockInto(dst, block)
}

// BlockRanges returns the absolute byte span of every independently
// compressed block payload inside an SZG2 stream, in order; the first
// span starts after the container header and the last ends at
// len(data). It returns (nil, false) when data is not a valid SZG2
// container (legacy SZG1 streams, other formats, corrupt headers).
//
// The spans are the natural cut points for sharded checkpoint storage:
// splitting the stream at block boundaries yields shards that each hold
// whole compression units, so a future streaming decoder can decompress
// a shard without its neighbors.
func BlockRanges(data []byte) ([]Range, bool) {
	if len(data) < len(magicBlocked) || string(data[:len(magicBlocked)]) != magicBlocked {
		return nil, false
	}
	lay, err := parseBlockedLayout(data, len(data))
	if err != nil {
		return nil, false
	}
	ranges := make([]Range, len(lay.offsets)-1)
	for b := range ranges {
		ranges[b] = Range{Start: lay.offsets[b], End: lay.offsets[b+1]}
	}
	return ranges, true
}

// SplitBlocks partitions an encoded stream into at most maxParts
// contiguous byte spans that cover it exactly. For SZG2 streams every
// cut falls on a block boundary (the container header travels with the
// first span) and the spans are balanced by bytes, not block count, so
// unevenly compressible blocks still split into similar-sized parts.
// Legacy or foreign streams return a single span; maxParts < 1 is
// treated as 1.
//
// Note: this partitions a *bare* SZ stream (e.g. for future
// shard-local streaming decode). The checkpoint writer does not cut
// with it — a checkpoint payload wraps one or more SZ streams in
// snapshot framing, so fti feeds BlockRanges-derived offsets to
// shard.Split, which snaps even cuts of the whole payload to those
// boundaries.
func SplitBlocks(data []byte, maxParts int) []Range {
	if maxParts < 1 {
		maxParts = 1
	}
	whole := []Range{{Start: 0, End: len(data)}}
	if maxParts == 1 {
		return whole
	}
	blocks, ok := BlockRanges(data)
	if !ok || len(blocks) == 0 {
		return whole
	}
	if maxParts > len(blocks) {
		maxParts = len(blocks)
	}
	parts := make([]Range, 0, maxParts)
	start := 0
	bi := 0
	for p := 0; p < maxParts; p++ {
		// Even byte target for the remaining parts, then advance to the
		// nearest block boundary at or past it.
		target := start + (len(data)-start+maxParts-p-1)/(maxParts-p)
		end := len(data)
		if p < maxParts-1 {
			for bi < len(blocks)-1 && blocks[bi].End < target {
				bi++
			}
			end = blocks[bi].End
			bi++
		}
		parts = append(parts, Range{Start: start, End: end})
		if end == len(data) {
			break
		}
		start = end
	}
	return parts
}

// blockedStats reports (nBlocks, blockElems) for an SZG2 stream and
// (1, len) for legacy streams; used by tests and diagnostics.
func blockedStats(data []byte) (nBlocks, blockElems int, blocked bool) {
	if len(data) < 5 || string(data[:4]) != magicBlocked {
		return 1, 0, false
	}
	off := 5
	n, k := binary.Uvarint(data[off:])
	if k <= 0 {
		return 1, 0, false
	}
	off += k
	be, k := binary.Uvarint(data[off:])
	if k <= 0 {
		return 1, 0, false
	}
	off += k
	nb, k := binary.Uvarint(data[off:])
	if k <= 0 {
		return 1, 0, false
	}
	_ = n
	return int(nb), int(be), true
}
