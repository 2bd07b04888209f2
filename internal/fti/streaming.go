package fti

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/codec"
	"repro/internal/fti/shard"
	"repro/internal/sz"
)

// This file is the streaming half of the restore path: a sharded
// checkpoint is decoded without ever reassembling its payload. The
// snapshot skeleton (framing, scalars, vector headers, SZG2/BLK1
// container headers) is parsed serially through a chunk cursor that touches only
// the bytes it needs — zero-copy within a shard, tiny stitched copies
// across boundaries — and then every compression block decodes straight
// into its destination slice, fanned out over the shard worker pool so
// read, CRC32C verification, and decode overlap across shards. Memory
// stays at the in-flight shard chunks plus the destinations; the
// legacy whole-payload buffer (shard.Read) and the decode-then-copy
// are both gone.

// chunkCursor is a serial forward reader over a shard group's payload,
// used to parse the snapshot skeleton without reassembly.
type chunkCursor struct {
	r     *shard.Reader
	off   int
	limit int // parseable bytes: payload minus the IEEE CRC trailer
}

func (c *chunkCursor) bytes(n int) ([]byte, error) {
	if n < 0 || c.off+n > c.limit {
		return nil, fmt.Errorf("truncated checkpoint at offset %d", c.off)
	}
	b, err := c.r.Bytes(c.off, c.off+n)
	if err != nil {
		return nil, err
	}
	c.off += n
	return b, nil
}

func (c *chunkCursor) uvarint() (uint64, error) {
	end := c.off + binary.MaxVarintLen64
	if end > c.limit {
		end = c.limit
	}
	b, err := c.r.Bytes(c.off, end)
	if err != nil {
		return 0, err
	}
	v, k := binary.Uvarint(b)
	if k <= 0 {
		return 0, fmt.Errorf("truncated varint at %d", c.off)
	}
	c.off += k
	return v, nil
}

func (c *chunkCursor) str() (string, error) {
	l, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if l > uint64(c.limit-c.off) {
		return "", fmt.Errorf("truncated string at %d", c.off)
	}
	b, err := c.bytes(int(l))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (c *chunkCursor) float() (float64, error) {
	b, err := c.bytes(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// streamBlock is one compression block (SZG2 or BLK1) scheduled for
// decode: its absolute byte span within the payload and its
// destination slice.
type streamBlock struct {
	span sz.Range
	dst  []float64
	vec  string // for error messages
}

// blockFormat describes one blocked-container family — how to bound
// and parse its header and how to decode one block payload — so the
// streaming restore path handles SZ's SZG2 container and the generic
// BLK1 container through a single code path.
type blockFormat struct {
	prefixLen   int
	lenBound    func(prefix []byte) (int, bool)
	parse       func(header []byte, streamLen int) (sz.BlockLayout, error)
	decodeBlock func(dst []float64, block []byte) error
}

var (
	szFormat = &blockFormat{
		prefixLen:   sz.HeaderPrefixLen,
		lenBound:    sz.HeaderLenBound,
		parse:       sz.ParseBlockLayout,
		decodeBlock: sz.DecodeBlockInto,
	}
	codecFormat = &blockFormat{
		prefixLen:   codec.HeaderPrefixLen,
		lenBound:    codec.HeaderLenBound,
		parse:       codec.ParseBlockLayout,
		decodeBlock: codec.DecodeBlockInto,
	}
	// rawFormat has no container and needs none: every eight bytes decode
	// on their own, so any run of whole elements is a block.
	rawFormat = &blockFormat{decodeBlock: Raw{}.DecodeInto}
)

// blockFormatFor returns the block family enc writes, or nil when its
// blobs only decode whole. A blob is never sniffed: in a raw float
// image a container magic is a byte coincidence — hence the explicit
// dispatch.
func blockFormatFor(enc Encoder) *blockFormat {
	switch e := enc.(type) {
	case Raw:
		return rawFormat
	case SZ:
		return szFormat
	case ZFP:
		return codecFormat
	case Lossless:
		if _, ok := e.Codec.(codec.Container); ok {
			return codecFormat
		}
	}
	return nil
}

// restoreStreaming decodes a sharded checkpoint in place. Vector
// payloads in a blocked container (SZ's SZG2, or the generic BLK1 the
// ZFP and blocked-lossless encoders write) are block-decoded per
// shard, and a raw payload decodes from each shard the elements it
// holds; other payloads (legacy single-block streams, un-containered
// lossless) are stitched and decoded through the encoder's DecodeInto
// path. The whole-payload IEEE CRC trailer is not re-verified: every
// byte served by the Reader already passed its shard's CRC32C.
func (c *Checkpointer) restoreStreaming(man *shard.Manifest, targets map[string][]float64) (*Snapshot, error) {
	if man.Encoder != c.enc.Name() {
		return nil, fmt.Errorf("checkpoint written by encoder %q, decoder is %q", man.Encoder, c.enc.Name())
	}
	r := shard.NewReader(c.storage, man)
	r.Instrument(c.ins.shardMetrics())
	if r.Total() < len(fileMagic)+4 {
		return nil, fmt.Errorf("truncated checkpoint")
	}
	cur := &chunkCursor{r: r, limit: r.Total() - 4}

	b, err := cur.bytes(len(fileMagic))
	if err != nil {
		return nil, err
	}
	if string(b) != fileMagic {
		return nil, fmt.Errorf("bad magic")
	}
	iter, err := cur.uvarint()
	if err != nil {
		return nil, err
	}
	encName, err := cur.str()
	if err != nil {
		return nil, err
	}
	if encName != c.enc.Name() {
		return nil, fmt.Errorf("checkpoint written by encoder %q, decoder is %q", encName, c.enc.Name())
	}

	s := &Snapshot{Iteration: int(iter), Scalars: map[string]float64{}, Vectors: map[string][]float64{}}
	nScalars, err := cur.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nScalars; i++ {
		name, err := cur.str()
		if err != nil {
			return nil, err
		}
		v, err := cur.float()
		if err != nil {
			return nil, fmt.Errorf("truncated scalar %q", name)
		}
		s.Scalars[name] = v
	}

	bf := blockFormatFor(c.enc)

	nVecs, err := cur.uvarint()
	if err != nil {
		return nil, err
	}
	offsets := r.Offsets()
	perShard := make([][]streamBlock, len(man.Shards))
	var stitched []streamBlock
	for i := uint64(0); i < nVecs; i++ {
		name, err := cur.str()
		if err != nil {
			return nil, err
		}
		n64, err := cur.uvarint()
		if err != nil {
			return nil, err
		}
		blobLen64, err := cur.uvarint()
		if err != nil {
			return nil, err
		}
		blobStart := cur.off
		if blobLen64 > uint64(cur.limit-blobStart) {
			return nil, fmt.Errorf("truncated vector %q", name)
		}
		blobLen := int(blobLen64)
		var dst []float64
		if t, ok := targets[name]; ok && uint64(len(t)) == n64 {
			dst = t
		}

		lay, blocked, err := peekBlockLayout(r, blobStart, blobLen, bf)
		if err != nil {
			return nil, fmt.Errorf("vector %q: %w", name, err)
		}
		if blocked && uint64(lay.N) == n64 {
			// Streaming path: schedule each whole-in-one-shard block
			// for the per-shard decode pass; blocks that straddle a
			// shard boundary (an unaligned cut) are stitched serially.
			if dst == nil {
				// lay.N is guarded against crafted headers by the
				// format's ParseBlockLayout allocation guards.
				dst = make([]float64, lay.N)
			}
			for bi := range lay.Blocks {
				lo, hi := lay.ElemRange(bi)
				blk := streamBlock{
					span: sz.Range{Start: blobStart + lay.Blocks[bi].Start, End: blobStart + lay.Blocks[bi].End},
					dst:  dst[lo:hi],
					vec:  name,
				}
				si := sort.Search(len(offsets)-1, func(j int) bool { return offsets[j+1] > blk.span.Start })
				if blk.span.End <= offsets[si+1] {
					perShard[si] = append(perShard[si], blk)
				} else {
					stitched = append(stitched, blk)
				}
			}
		} else if bf == rawFormat {
			// Checked before n sizes or overwrites anything.
			if blobLen%8 != 0 || n64 != uint64(blobLen/8) {
				return nil, fmt.Errorf("vector %q: raw payload is %d bytes, header says %d values", name, blobLen, n64)
			}
			// Read the blob's shards through the pool first: what n then
			// sizes is backed by bytes that passed their checksums.
			if err := r.Prefetch(blobStart, blobStart+blobLen, shard.Options{Workers: c.storageWorkers}); err != nil {
				return nil, err
			}
			if dst == nil {
				dst = make([]float64, blobLen/8)
			}
			// Each shard decodes the elements it holds whole straight into
			// dst; an element a cut runs through is stitched on its own.
			si := sort.Search(len(offsets)-1, func(j int) bool { return offsets[j+1] > blobStart })
			for e := 0; e < len(dst); {
				at := blobStart + 8*e
				for offsets[si+1] <= at {
					si++
				}
				whole := min((offsets[si+1]-at)/8, len(dst)-e)
				n := max(whole, 1)
				blk := streamBlock{span: sz.Range{Start: at, End: at + 8*n}, dst: dst[e : e+n], vec: name}
				if whole == 0 {
					stitched = append(stitched, blk)
				} else {
					perShard[si] = append(perShard[si], blk)
				}
				e += n
			}
		} else {
			// Non-blocked blob: stitch its bytes (zero-copy when it
			// lies inside one shard) and decode through the encoder.
			// Prefetch first so a blob spanning several shards reads
			// them through the bounded pool instead of one at a time —
			// the read fan-out the pre-streaming shard.Read path had.
			if err := r.Prefetch(blobStart, blobStart+blobLen, shard.Options{Workers: c.storageWorkers}); err != nil {
				return nil, err
			}
			blob, err := r.Bytes(blobStart, blobStart+blobLen)
			if err != nil {
				return nil, err
			}
			if dst != nil {
				if err := DecodeInto(c.enc, dst, blob); err != nil {
					return nil, fmt.Errorf("decode vector %q: %w", name, err)
				}
			} else {
				v, err := c.enc.Decode(blob)
				if err != nil {
					return nil, fmt.Errorf("decode vector %q: %w", name, err)
				}
				if uint64(len(v)) != n64 {
					return nil, fmt.Errorf("vector %q decoded to %d values, header says %d", name, len(v), n64)
				}
				dst = v
			}
		}
		s.Vectors[name] = dst
		cur.off = blobStart + blobLen
	}
	if cur.off != cur.limit {
		return nil, fmt.Errorf("%d trailing checkpoint bytes", cur.limit-cur.off)
	}

	for _, blk := range stitched {
		raw, err := r.Bytes(blk.span.Start, blk.span.End)
		if err != nil {
			return nil, err
		}
		if err := bf.decodeBlock(blk.dst, raw); err != nil {
			return nil, fmt.Errorf("decode vector %q: %w", blk.vec, err)
		}
	}
	// Each worker reads its shard, verifies its CRC32C, and decodes the
	// blocks it fully contains straight into the destination vectors —
	// read, checksum, and decode overlap across shards. Shards with no
	// scheduled blocks are still fetched and verified, so a corrupt or
	// missing shard anywhere rejects the whole group and recovery falls
	// back mid-stream.
	err = r.Process(shard.Options{Workers: c.storageWorkers}, func(i, start int, chunk []byte) error {
		for _, blk := range perShard[i] {
			if err := bf.decodeBlock(blk.dst, chunk[blk.span.Start-start:blk.span.End-start]); err != nil {
				return fmt.Errorf("decode vector %q: %w", blk.vec, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// peekBlockLayout inspects a blob's head and, when it is a block
// container of the encoder's format family (SZG2 or BLK1), parses its
// layout from the header bytes alone (no whole-blob read). A blob that
// does not parse as a container — legacy single-block streams, other
// encoders' payloads — reports blocked=false and is decoded whole by
// the caller; parse failures are only errors when the blob
// unambiguously started as a container, since a truncated container
// would fail whole-blob decode anyway. A bf that is nil or has no
// parser means the encoder never writes containers.
func peekBlockLayout(r *shard.Reader, blobStart, blobLen int, bf *blockFormat) (sz.BlockLayout, bool, error) {
	if bf == nil || bf.parse == nil || blobLen < bf.prefixLen {
		return sz.BlockLayout{}, false, nil
	}
	head, err := r.Bytes(blobStart, blobStart+bf.prefixLen)
	if err != nil {
		return sz.BlockLayout{}, false, err
	}
	bound, ok := bf.lenBound(head)
	if !ok {
		return sz.BlockLayout{}, false, nil
	}
	if bound > blobLen {
		bound = blobLen
	}
	hdr, err := r.Bytes(blobStart, blobStart+bound)
	if err != nil {
		return sz.BlockLayout{}, false, err
	}
	lay, err := bf.parse(hdr, blobLen)
	if err != nil {
		return sz.BlockLayout{}, false, err
	}
	return lay, true, nil
}
