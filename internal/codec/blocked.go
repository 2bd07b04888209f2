package codec

import (
	"fmt"
	"math"

	"repro/internal/lossless"
	"repro/internal/parallel"
	"repro/internal/zfp"
)

// BlockedZFP is the ZFP-like transform codec as a block codec: every
// container block is one "ZFG1" stream under the absolute bound.
type BlockedZFP struct {
	// Bound is the absolute error bound.
	Bound float64
	// BlockElems is the element count per container block; 0 means
	// DefaultBlockElems.
	BlockElems int
}

// ID implements BlockCodec.
func (BlockedZFP) ID() ID { return ZFP }

// BlockSize rounds the block size up to a multiple of the transform
// block (zfp.BlockSize), which keeps every transform block inside one
// container block at the same intra-block offsets: the reconstruction
// is then bitwise that of one "ZFG1" stream over the whole vector,
// whatever the container block size.
func (c BlockedZFP) BlockSize() int {
	be := c.BlockElems
	if be <= 0 {
		be = DefaultBlockElems
	}
	if r := be % zfp.BlockSize; r != 0 {
		be += zfp.BlockSize - r
	}
	return be
}

// EncodeBlock implements BlockCodec. ZFP's transform does not expose
// per-coefficient reconstructions on the encode path, so an audited
// block is decoded into pooled scratch while it is cache-hot and the
// pointwise absolute errors accumulated from that.
func (c BlockedZFP) EncodeBlock(dst []byte, x []float64, st *Stats) ([]byte, error) {
	at := len(dst)
	dst, err := zfp.AppendCompress(dst, x, c.Bound)
	if err != nil || st == nil {
		return dst, err
	}
	scratch := parallel.GetFloat64s(len(x))[:len(x)]
	defer parallel.PutFloat64s(scratch)
	if err := zfp.DecompressInto(scratch, dst[at:]); err != nil {
		return nil, fmt.Errorf("audit decode: %w", err)
	}
	for i, v := range x {
		d := math.Abs(v - scratch[i])
		st.Add(math.Abs(v), d, d)
	}
	st.Bound, st.Lossy = c.Bound, true
	return dst, nil
}

// DecodeBlockInto implements BlockCodec.
func (BlockedZFP) DecodeBlockInto(dst []float64, block []byte) error {
	return zfp.DecompressInto(dst, block)
}

// BlockedFlate is the DEFLATE codec (the paper's Gzip baseline) as a
// block codec. Level follows compress/flate (0 = default).
type BlockedFlate struct {
	Level int
	// BlockElems is the element count per container block; 0 means
	// DefaultBlockElems.
	BlockElems int
}

// ID implements BlockCodec.
func (BlockedFlate) ID() ID { return Flate }

// BlockSize implements BlockCodec.
func (c BlockedFlate) BlockSize() int { return c.BlockElems }

// EncodeBlock implements BlockCodec: exact, so an audit only scans for
// the peak.
func (c BlockedFlate) EncodeBlock(dst []byte, x []float64, st *Stats) ([]byte, error) {
	if st != nil {
		st.AddExact(x)
	}
	return lossless.Flate{Level: c.Level}.AppendCompress(dst, x)
}

// DecodeBlockInto implements BlockCodec.
func (BlockedFlate) DecodeBlockInto(dst []float64, block []byte) error {
	return lossless.Flate{}.DecompressInto(dst, block)
}
