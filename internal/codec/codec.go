// Package codec is the one blocked container every compressed
// checkpoint vector is framed in, whichever codec compressed it: the
// vector is cut into fixed-size element blocks, each block is a fully
// independent stream of the codec — its own predictor state, Huffman
// table or DEFLATE window — and a header records every block's byte
// span. Blocks compress and decompress concurrently across the
// parallel worker pool with output bytes that depend only on the input
// and the parameters, a checkpoint shard holding whole blocks decodes
// them without its neighbours, and the spans are the cut points the
// sharded checkpoint writer aligns to (BlockRanges).
//
// The BLK1 container:
//
//	"BLK1" | codec ID byte | uvarint n | uvarint blockElems
//	       | uvarint nBlocks | nBlocks × uvarint blockByteLen
//	       | concatenated block payloads
//
// Block i covers elements [i·blockElems, min(n, (i+1)·blockElems)); an
// empty vector is one empty block. What a block payload holds is the
// codec's business (BlockCodec): an SZ core or log-transform payload,
// or a DEFLATE stream. The container never looks inside and never
// dispatches on the ID — the caller hands it the block codec — so a
// codec package can sit on top of this one. Two codecs write it, SZ for
// lossy checkpoints and DEFLATE for lossless ones; IDs 1 and 2 belonged
// to retired codecs and parse as unknown.
//
// A vector whose elements are all equal is the one thing not stored in
// blocks: nBlocks is 0 and the eight bytes after the header are the
// value (AppendConstant). Keeping constants out of blocks is what
// makes the elements-per-byte allocation guard sound for every blocked
// stream; a constant stream has its own ceiling, MaxConstantElems.
//
// There is one format. Streams written before it (the SZ-only
// single-stream and blocked formats, bare ZFG1/flate vectors) are
// rejected with an error naming their magic: no stream outlives its
// run's checkpoint directory.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/parallel"
)

// ID names the codec of a container. The values are part of the
// on-disk format; 1 and 2 belonged to retired codecs and stay unknown.
type ID byte

const (
	// Flate is the DEFLATE lossless codec (BlockedFlate).
	Flate ID = 3
	// SZ is the prediction-based error-bounded codec (sz package).
	SZ ID = 4
)

// String returns the codec's report name.
func (id ID) String() string {
	switch id {
	case Flate:
		return "gzip(deflate)"
	case SZ:
		return "sz"
	}
	return fmt.Sprintf("codec(%d)", byte(id))
}

// maxElemsPerByte is the allocation guard for crafted headers: the
// most elements one payload byte of each codec can genuinely hold, 0
// for an unknown ID. Flate's DEFLATE expands at most ~1032×, and eight
// raw bytes make one float64; SZ spends at least one bit per element —
// a Huffman code, or a zeros- or tiny-bitmap bit in a log-transform
// block.
func (id ID) maxElemsPerByte() uint64 {
	switch id {
	case Flate:
		return 129 // ceil(1032/8)
	case SZ:
		return 8
	}
	return 0
}

const magic = "BLK1"

// DefaultBlockElems is the element count per block when a codec's
// BlockSize is zero: 256 KiB of float64s, in the 64–256 KiB range
// production SZ implementations use — large enough to amortize the
// per-block Huffman table, small enough that even modest vectors split
// across all cores. One default for every codec keeps shard-cut
// granularity uniform.
const DefaultBlockElems = 32768

// MaxConstantElems is the most values an allocating decoder
// reconstructs from a constant stream (128 MiB of output for some 20
// bytes of input); BlockLayout.Alloc enforces it. A decoder handed its
// destination takes the count from there and has no ceiling.
const MaxConstantElems = 1 << 24

// BlockCodec compresses and decompresses one block of a container. The
// container calls it concurrently on distinct blocks, so an
// implementation holds no mutable state.
type BlockCodec interface {
	// ID is the codec ID written to, and required of, the header.
	ID() ID
	// BlockSize is the element count per block Compress cuts a vector
	// into; 0 means DefaultBlockElems.
	BlockSize() int
	// EncodeBlock appends the block payload of x to dst, as append
	// does. What the encoding distorted is judged by decoding it: the
	// encoder reports nothing about it.
	EncodeBlock(dst []byte, x []float64) ([]byte, error)
	// DecodeBlockInto decodes one block payload into dst, which has
	// exactly the block's element count. Every element is overwritten
	// on success.
	DecodeBlockInto(dst []float64, block []byte) error
}

// Range is a half-open [Start, End) byte span within an encoded
// stream.
type Range struct {
	Start, End int
}

// BlockLayout describes a parsed container: the codec, the element
// count, the elements per full block (the last may be shorter) and the
// absolute byte span of every block payload within the stream. A
// consumer holding only a contiguous piece of the stream — a checkpoint
// shard — decodes exactly the blocks whose spans it covers. A layout
// without blocks is a constant stream: all N elements equal Constant.
type BlockLayout struct {
	ID         ID
	N          int
	BlockElems int
	Blocks     []Range
	Constant   float64
}

// ElemRange returns the element span [lo, hi) that block b
// reconstructs.
func (l BlockLayout) ElemRange(b int) (lo, hi int) {
	lo = b * l.BlockElems
	return lo, min(lo+l.BlockElems, l.N)
}

// Alloc returns a fresh vector of the layout's element count. It is
// the one place a header's count sizes an allocation: a blocked
// layout's count passed the parser's elements-per-byte guard, and a
// constant layout's is held to MaxConstantElems here.
func (l BlockLayout) Alloc() ([]float64, error) {
	if len(l.Blocks) == 0 && l.N > MaxConstantElems {
		return nil, fmt.Errorf("codec: constant stream claims %d values, an allocating decoder takes at most %d", l.N, MaxConstantElems)
	}
	return make([]float64, l.N), nil
}

// blockCount is the number of blocks n elements occupy: an empty
// vector is one empty block, so a count of zero can mean constant.
func blockCount(n, blockElems uint64) uint64 {
	if n == 0 {
		return 1
	}
	return (n-1)/blockElems + 1
}

// appendHeader is the one header writer: magic through the per-block
// length table.
func appendHeader(dst []byte, id ID, n, blockElems int, blocks [][]byte) []byte {
	dst = append(append(dst, magic...), byte(id))
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.AppendUvarint(dst, uint64(blockElems))
	dst = binary.AppendUvarint(dst, uint64(len(blocks)))
	for _, blk := range blocks {
		dst = binary.AppendUvarint(dst, uint64(len(blk)))
	}
	return dst
}

// blockElemsOf resolves a codec's block size.
func blockElemsOf(bc BlockCodec) int {
	if be := bc.BlockSize(); be > 0 {
		return be
	}
	return DefaultBlockElems
}

// encodeBufs holds Compress calls' block encode buffers, a call's set
// at a time: every block of a call is live until the container is
// assembled. A sync.Pool would strand a buffer in one P's private slot
// whenever the block that reuses it runs on another P.
var encodeBufs freeList[[][]byte]

// Compress appends the container of x to dst, as append does, the
// blocks compressed concurrently across the worker pool by bc.
func Compress(dst []byte, x []float64, bc BlockCodec) ([]byte, error) {
	n := len(x)
	blockElems := blockElemsOf(bc)
	nBlocks := int(blockCount(uint64(n), uint64(blockElems)))
	bufs := encodeBufs.get()
	if bufs == nil {
		bufs = new([][]byte)
	}
	defer encodeBufs.put(bufs)
	*bufs = slices.Grow((*bufs)[:0], nBlocks)[:nBlocks]
	blocks := *bufs
	errs := make([]error, nBlocks)
	parallel.For(nBlocks, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			chunk := x[min(b*blockElems, n):min((b+1)*blockElems, n)]
			// One worst-case size for every codec, so a buffer settles
			// instead of growing block by block.
			blocks[b], errs[b] = bc.EncodeBlock(slices.Grow(blocks[b][:0], 9*len(chunk)+80), chunk)
		}
	})
	for b, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("codec: block %d: %w", b, err)
		}
	}
	total := 0
	for _, blk := range blocks {
		total += len(blk)
	}
	dst = slices.Grow(dst, total+len(magic)+1+binary.MaxVarintLen64*(nBlocks+3))
	dst = appendHeader(dst, bc.ID(), n, blockElems, blocks)
	for _, blk := range blocks {
		dst = append(dst, blk...)
	}
	return dst, nil
}

// AppendConstant appends the constant stream of n elements equal to c:
// a header without blocks, then the value.
func AppendConstant(dst []byte, bc BlockCodec, n int, c float64) []byte {
	dst = appendHeader(dst, bc.ID(), n, blockElemsOf(bc), nil)
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(c))
}

// Whole adapts an in-memory stream — or any prefix of one that holds
// its complete header — to ParseBlockLayout's head callback.
func Whole(data []byte) func(n int) ([]byte, error) {
	return func(n int) ([]byte, error) { return data[:min(n, len(data))], nil }
}

// headerPrefixLen is the number of leading bytes that always contain
// the fixed header fields: magic, ID byte and the three size varints.
const headerPrefixLen = len(magic) + 1 + 3*binary.MaxVarintLen64

// ParseBlockLayout validates a container header and returns its
// layout. It is the one header parser — the decompressors, the
// shard-cut alignment and the streaming restore all go through it — so
// the allocation guards against crafted headers apply uniformly, and
// before any caller allocates output: a genuine stream can never claim
// more blocks than remaining bytes (each costs a length byte), more
// elements than its codec fits in the remaining bytes, or block spans
// that do not cover the stream exactly.
//
// head(n) returns the first min(n, streamLen) bytes of the stream, so a
// reader that holds the stream in pieces fetches the header alone (it
// is asked for the fixed fields, then for the length table, whose size
// they give); in-memory callers pass Whole(data). streamLen is the byte
// length of the full stream, which the guards and the spans are
// validated against. All arithmetic on header fields stays in uint64
// until a guard has bounded it: a crafted count converted first wraps.
func ParseBlockLayout(head func(n int) ([]byte, error), streamLen int) (BlockLayout, error) {
	var lay BlockLayout
	data, err := head(headerPrefixLen)
	if err != nil {
		return lay, err
	}
	if len(data) < len(magic)+1 || string(data[:len(magic)]) != magic {
		return lay, fmt.Errorf("codec: not a %s stream (starts %q)", magic, data[:min(len(magic), len(data))])
	}
	id := ID(data[len(magic)])
	perByte := id.maxElemsPerByte()
	if perByte == 0 {
		return lay, fmt.Errorf("codec: unknown codec id %d", byte(id))
	}
	off := len(magic) + 1
	var fields [3]uint64 // n, blockElems, nBlocks
	for i := range fields {
		v, k := binary.Uvarint(data[off:])
		if k <= 0 {
			return lay, fmt.Errorf("codec: truncated blocked header")
		}
		fields[i] = v
		off += k
	}
	n, blockElems, nBlocks := fields[0], fields[1], fields[2]
	if off > streamLen {
		return lay, fmt.Errorf("codec: truncated blocked header")
	}
	rem := uint64(streamLen - off)
	if blockElems < 1 || blockElems > math.MaxInt64 {
		return lay, fmt.Errorf("codec: invalid blocked header (n=%d blockElems=%d nBlocks=%d)", n, blockElems, nBlocks)
	}
	if nBlocks == 0 {
		if n > math.MaxInt64 || rem != 8 {
			return lay, fmt.Errorf("codec: constant stream of %d values has %d payload bytes, want 8", n, rem)
		}
		if data, err = head(streamLen); err != nil {
			return lay, err
		}
		if len(data) < streamLen {
			return lay, fmt.Errorf("codec: truncated constant stream")
		}
		c := math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		return BlockLayout{ID: id, N: int(n), BlockElems: int(blockElems), Constant: c}, nil
	}
	if want := blockCount(n, blockElems); want != nBlocks {
		return lay, fmt.Errorf("codec: blocked header inconsistent: %d elements in %d-element blocks needs %d blocks, header says %d",
			n, blockElems, want, nBlocks)
	}
	if nBlocks > rem {
		return lay, fmt.Errorf("codec: %d blocks exceed %d remaining bytes", nBlocks, rem)
	}
	if n > 0 && (n-1)/perByte >= rem { // n > perByte·rem, without the product
		return lay, fmt.Errorf("codec: %d elements exceed %d payload bytes", n, rem)
	}
	need := off + int(nBlocks)*binary.MaxVarintLen64
	if need > streamLen || need < off {
		need = streamLen
	}
	if data, err = head(need); err != nil {
		return lay, err
	}
	blocks := make([]Range, nBlocks)
	for b := range blocks {
		l, k := binary.Uvarint(data[min(off, len(data)):])
		if k <= 0 {
			return lay, fmt.Errorf("codec: truncated blocked header")
		}
		off += k
		if off > streamLen || l > uint64(streamLen-off) {
			return lay, fmt.Errorf("codec: block %d length %d exceeds payload", b, l)
		}
		blocks[b].End = int(l) // the length, until the table's end is known
	}
	at := off
	for b := range blocks {
		l := blocks[b].End
		if l > streamLen-at {
			return lay, fmt.Errorf("codec: block %d overruns the %d payload bytes", b, streamLen-off)
		}
		blocks[b] = Range{Start: at, End: at + l}
		at += l
	}
	if at != streamLen {
		return lay, fmt.Errorf("codec: blocked payload is %d bytes, blocks cover %d", streamLen-off, at-off)
	}
	return BlockLayout{ID: id, N: int(n), BlockElems: int(blockElems), Blocks: blocks}, nil
}

// parseFor parses an in-memory stream and checks it was written by bc's
// codec: a container holding another codec's data is rejected.
func parseFor(data []byte, bc BlockCodec) (BlockLayout, error) {
	lay, err := ParseBlockLayout(Whole(data), len(data))
	if err == nil && lay.ID != bc.ID() {
		err = fmt.Errorf("codec: stream holds %v data, want %v", lay.ID, bc.ID())
	}
	return lay, err
}

// Decompress decodes a container written by bc's codec into a fresh
// vector.
func Decompress(data []byte, bc BlockCodec) ([]float64, error) {
	lay, err := parseFor(data, bc)
	if err != nil {
		return nil, err
	}
	out, err := lay.Alloc()
	if err != nil {
		return nil, err
	}
	if err := lay.DecodeInto(out, data, bc); err != nil {
		return nil, err
	}
	return out, nil
}

// DecompressInto decodes a container written by bc's codec into dst,
// whose length must equal the stream's element count; blocks decode
// concurrently straight into their slices of dst. Every element of dst
// is overwritten on success; on error its contents are unspecified.
func DecompressInto(dst []float64, data []byte, bc BlockCodec) error {
	lay, err := parseFor(data, bc)
	if err != nil {
		return err
	}
	if len(dst) != lay.N {
		return fmt.Errorf("codec: stream holds %d values, dst has %d", lay.N, len(dst))
	}
	return lay.DecodeInto(dst, data, bc)
}

// DecodeInto decodes every block of the stream the layout was parsed
// from into its slice of out (len(out) == l.N), concurrently across
// the worker pool.
func (l BlockLayout) DecodeInto(out []float64, data []byte, bc BlockCodec) error {
	if len(l.Blocks) == 0 {
		for i := range out {
			out[i] = l.Constant
		}
		return nil
	}
	errs := make([]error, len(l.Blocks))
	parallel.For(len(l.Blocks), 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			from, to := l.ElemRange(b)
			errs[b] = bc.DecodeBlockInto(out[from:to], data[l.Blocks[b].Start:l.Blocks[b].End])
		}
	})
	for b, err := range errs {
		if err != nil {
			return fmt.Errorf("codec: block %d: %w", b, err)
		}
	}
	return nil
}

// BlockRanges returns the absolute byte span of every block payload
// inside a container, in order: the first span starts after the header
// and the last ends at len(data); a constant stream has none. It
// returns false when data is not a valid container. The spans are the
// natural cut points for sharded checkpoint storage: a shard cut along
// them holds whole compression units.
func BlockRanges(data []byte) ([]Range, bool) {
	lay, err := ParseBlockLayout(Whole(data), len(data))
	return lay.Blocks, err == nil
}
