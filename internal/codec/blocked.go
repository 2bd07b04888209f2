package codec

import "repro/internal/lossless"

// BlockedFlate is the DEFLATE codec (the paper's Gzip baseline) as a
// block codec, at compress/flate's default level.
type BlockedFlate struct {
	// BlockElems is the element count per container block; 0 means
	// DefaultBlockElems.
	BlockElems int
}

// ID implements BlockCodec.
func (BlockedFlate) ID() ID { return Flate }

// BlockSize implements BlockCodec.
func (c BlockedFlate) BlockSize() int { return c.BlockElems }

// EncodeBlock implements BlockCodec.
func (c BlockedFlate) EncodeBlock(dst []byte, x []float64) ([]byte, error) {
	return lossless.Flate{}.AppendCompress(dst, x)
}

// DecodeBlockInto implements BlockCodec.
func (BlockedFlate) DecodeBlockInto(dst []float64, block []byte) error {
	return lossless.Flate{}.DecompressInto(dst, block)
}
