package fti

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"repro/internal/codec"
	"repro/internal/fti/shard"
	"repro/internal/parallel"
)

// This file is the restore walk: one parser of the snapshot skeleton
// for both layouts. A sharded checkpoint is a source of several chunks
// and is decoded without ever reassembling its payload; a monolithic
// one is the same source with a single chunk. The skeleton (framing,
// scalars, vector headers, container headers) is parsed serially
// through a chunk cursor that touches only the bytes it needs —
// zero-copy within a chunk, tiny stitched copies across boundaries —
// and then every block decodes straight into its destination slice,
// fanned out over the shard worker pool so read, CRC32C verification,
// and decode overlap across shards. Memory stays at the in-flight
// chunks plus the destinations.

// chunkCursor is a serial forward reader over a checkpoint payload,
// used to parse the snapshot skeleton without reassembly. Lengths read
// from the payload are compared in uint64 against the bytes that remain
// before they are converted: a crafted one converted first wraps.
type chunkCursor struct {
	r     *shard.Reader
	off   int
	limit int // parseable bytes: payload minus the IEEE CRC trailer
}

func (c *chunkCursor) bytes(n int) ([]byte, error) {
	if n < 0 || n > c.limit-c.off {
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
	b, err := c.r.Bytes(c.off, min(c.off+binary.MaxVarintLen64, c.limit))
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

// streamBlock is one independently decodable piece of a vector
// scheduled for decode — a container block, or a run of whole elements
// of a raw image: its absolute byte span within the payload and its
// destination slice.
type streamBlock struct {
	span codec.Range
	dst  []float64
	vec  string // for error messages
}

// restore decodes the checkpoint payload r serves, in place where a
// target matches. A vector is one of two shapes. A raw image decodes,
// from each chunk, the elements that chunk holds. Anything else is one
// blocked container: its header is parsed under the codec package's
// allocation guards, its element count checked against the snapshot's,
// and each block decoded in the chunk that holds it. The whole-payload
// IEEE CRC trailer is not verified here: a monolithic payload's was by
// the caller, and every byte of a sharded one passed its shard's CRC32C.
func (c *Checkpointer) restore(r *shard.Reader, targets map[string][]float64) (*Snapshot, error) {
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

	// decodeBlock decodes one scheduled piece: a container block through
	// the encoder's block codec, a run of raw elements through the
	// encoder itself.
	decodeBlock := c.enc.DecodeInto
	bc := c.enc.Blocks()
	if bc != nil {
		decodeBlock = bc.DecodeBlockInto
	}
	workers := shard.Options{Workers: c.storageWorkers}

	nVecs, err := cur.uvarint()
	if err != nil {
		return nil, err
	}
	offsets := r.Offsets()
	chunkOf := func(at int) int {
		return sort.Search(len(offsets)-1, func(j int) bool { return offsets[j+1] > at })
	}
	perChunk := make([][]streamBlock, len(offsets)-1)
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

		if bc == nil {
			// Checked before n sizes or overwrites anything.
			if blobLen%8 != 0 || n64 != uint64(blobLen/8) {
				return nil, fmt.Errorf("vector %q: raw payload is %d bytes, header says %d values", name, blobLen, n64)
			}
			// Read the blob's chunks through the pool first: what n then
			// sizes is backed by bytes that passed their checksums.
			if err := r.Prefetch(blobStart, blobStart+blobLen, workers); err != nil {
				return nil, err
			}
			if dst == nil {
				dst = make([]float64, blobLen/8)
			}
			// Each chunk decodes the elements it holds whole straight into
			// dst; an element a cut runs through is stitched on its own.
			si := chunkOf(blobStart)
			for e := 0; e < len(dst); {
				at := blobStart + 8*e
				for offsets[si+1] <= at {
					si++
				}
				whole := min((offsets[si+1]-at)/8, len(dst)-e)
				n := max(whole, 1)
				blk := streamBlock{span: codec.Range{Start: at, End: at + 8*n}, dst: dst[e : e+n], vec: name}
				if whole == 0 {
					stitched = append(stitched, blk)
				} else {
					perChunk[si] = append(perChunk[si], blk)
				}
				e += n
			}
		} else {
			// The header alone is fetched, never the blob.
			lay, err := codec.ParseBlockLayout(func(n int) ([]byte, error) {
				return r.Bytes(blobStart, blobStart+min(n, blobLen))
			}, blobLen)
			if err == nil && lay.ID != bc.ID() {
				err = fmt.Errorf("container holds %v data, decoder is %v", lay.ID, bc.ID())
			}
			if err == nil && uint64(lay.N) != n64 {
				err = fmt.Errorf("container holds %d values, header says %d", lay.N, n64)
			}
			if err == nil && dst == nil {
				dst, err = lay.Alloc()
			}
			if err != nil {
				return nil, fmt.Errorf("vector %q: %w", name, err)
			}
			if len(lay.Blocks) == 0 {
				if err := lay.DecodeInto(dst, nil, bc); err != nil { // constant: nothing to read
					return nil, fmt.Errorf("vector %q: %w", name, err)
				}
			}
			// Schedule each block that lies whole in one chunk for that
			// chunk's decode pass; a block that straddles a chunk boundary
			// (an unaligned cut) is stitched serially.
			for bi, span := range lay.Blocks {
				lo, hi := lay.ElemRange(bi)
				blk := streamBlock{
					span: codec.Range{Start: blobStart + span.Start, End: blobStart + span.End},
					dst:  dst[lo:hi],
					vec:  name,
				}
				if si := chunkOf(blk.span.Start); blk.span.End <= offsets[si+1] {
					perChunk[si] = append(perChunk[si], blk)
				} else {
					stitched = append(stitched, blk)
				}
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
		if err := decodeBlock(blk.dst, raw); err != nil {
			return nil, fmt.Errorf("decode vector %q: %w", blk.vec, err)
		}
	}
	// Each worker reads its shard, verifies its CRC32C, and decodes the
	// blocks it fully contains straight into the destination vectors —
	// read, checksum, and decode overlap across shards. Shards with no
	// scheduled blocks are still fetched and verified, so a corrupt or
	// missing shard anywhere rejects the whole group and recovery falls
	// back mid-stream. The shards of a group are the unit of fan-out; a
	// payload of one chunk has only its blocks to fan out over.
	err = r.Process(workers, func(i, start int, chunk []byte) error {
		blks := perChunk[i]
		grain := len(blks)
		if len(perChunk) == 1 {
			grain = 1
		}
		errs := make([]error, len(blks))
		parallel.For(len(blks), grain, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				errs[k] = decodeBlock(blks[k].dst, chunk[blks[k].span.Start-start:blks[k].span.End-start])
			}
		})
		for k, err := range errs {
			if err != nil {
				return fmt.Errorf("decode vector %q: %w", blks[k].vec, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}
