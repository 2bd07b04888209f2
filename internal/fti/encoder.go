package fti

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/codec"
	"repro/internal/sz"
)

// BoundInfo describes the distortion contract an encoder was
// configured with: the requested error bound in its native metric
// (absolute, or relative when Relative) and whether the encoder can
// distort at all. Encoders whose bound cannot be stated up front
// (e.g. range-relative, where the absolute bound depends on the data)
// report Bound 0 with Lossy true.
type BoundInfo struct {
	Bound    float64
	Relative bool
	Lossy    bool
}

// Raw is the traditional-checkpointing encoder: vectors are stored as
// their exact little-endian byte image, no compression.
type Raw struct{}

// Name returns "raw".
func (Raw) Name() string { return "raw" }

// Encode appends the exact bytes of x: the one pass a traditional
// checkpoint makes over the state, stored straight into the payload.
func (Raw) Encode(dst []byte, x []float64, st *codec.Stats) ([]byte, error) {
	if st != nil {
		st.AddExact(x)
	}
	off := len(dst)
	dst = slices.Grow(dst, 8*len(x))[:off+8*len(x)]
	out := dst[off:]
	for _, v := range x {
		binary.LittleEndian.PutUint64(out, math.Float64bits(v))
		out = out[8:]
	}
	return dst, nil
}

// DecodeInto reverses Encode into dst. Every eight bytes decode on
// their own, so data may equally be any run of whole elements of an
// image — what one shard of a checkpoint holds of it.
func (Raw) DecodeInto(dst []float64, data []byte) error {
	if len(data) != 8*len(dst) {
		return fmt.Errorf("fti: raw payload is %d bytes, a %d-element destination needs %d", len(data), len(dst), 8*len(dst))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return nil
}

// BoundInfo reports the exact contract (no distortion).
func (Raw) BoundInfo() BoundInfo { return BoundInfo{} }

// Blocks is nil: a raw image has no container.
func (Raw) Blocks() codec.BlockCodec { return nil }

// Lossless stores vectors exactly through a lossless block codec in the
// blocked container (the paper's Gzip baseline is codec.BlockedFlate).
type Lossless struct {
	Codec codec.BlockCodec
}

// Name returns "lossless/<codec>".
func (e Lossless) Name() string { return "lossless/" + e.Codec.ID().String() }

// Encode compresses exactly.
func (e Lossless) Encode(dst []byte, x []float64, st *codec.Stats) ([]byte, error) {
	return codec.Compress(dst, x, e.Codec, st)
}

// DecodeInto decompresses exactly into dst.
func (e Lossless) DecodeInto(dst []float64, data []byte) error {
	return codec.DecompressInto(dst, data, e.Codec)
}

// BoundInfo reports the exact contract (no distortion).
func (Lossless) BoundInfo() BoundInfo { return BoundInfo{} }

// Blocks returns the wrapped codec.
func (e Lossless) Blocks() codec.BlockCodec { return e.Codec }

// SZ wraps the SZ-like error-bounded lossy compressor — the paper's
// choice for solver state, which it predicts over the grid the vector
// is a flattened field of (inferred from the data, not declared).
type SZ struct {
	Params sz.Params
}

// Name returns "sz".
func (SZ) Name() string { return "sz" }

// Encode compresses within the configured error bound.
func (e SZ) Encode(dst []byte, x []float64, st *codec.Stats) ([]byte, error) {
	return sz.AppendCompress(dst, x, e.Params, st)
}

// DecodeInto reconstructs within the error bound into dst.
func (SZ) DecodeInto(dst []float64, data []byte) error { return sz.DecompressInto(dst, data) }

// BoundInfo reports the configured sz bound in its native metric.
func (e SZ) BoundInfo() BoundInfo {
	switch e.Params.Mode {
	case sz.PWRel:
		return BoundInfo{Bound: e.Params.ErrorBound, Relative: true, Lossy: true}
	case sz.RelRange:
		// The absolute bound is data-dependent (bound × value range).
		return BoundInfo{Lossy: true}
	default:
		return BoundInfo{Bound: e.Params.ErrorBound, Lossy: true}
	}
}

// Blocks returns SZ's block decoder.
func (SZ) Blocks() codec.BlockCodec { return sz.Blocks{} }

// ZFP wraps the transform-based lossy compressor (absolute bound) in
// the blocked container — compressed block-parallel and restorable
// shard-by-shard — with a reconstruction bitwise identical to one
// stream over the whole vector.
type ZFP struct {
	Bound float64
	// BlockElems is the container block size in elements; 0 means
	// codec.DefaultBlockElems (rounded to a transform-block multiple).
	BlockElems int
}

// Name returns "zfp".
func (ZFP) Name() string { return "zfp" }

// Encode compresses within the absolute error bound.
func (e ZFP) Encode(dst []byte, x []float64, st *codec.Stats) ([]byte, error) {
	return codec.Compress(dst, x, e.Blocks(), st)
}

// DecodeInto reconstructs within the bound into dst.
func (e ZFP) DecodeInto(dst []float64, data []byte) error {
	return codec.DecompressInto(dst, data, e.Blocks())
}

// BoundInfo reports the configured absolute ZFP bound.
func (e ZFP) BoundInfo() BoundInfo { return BoundInfo{Bound: e.Bound, Lossy: true} }

// Blocks returns the ZFP block codec.
func (e ZFP) Blocks() codec.BlockCodec {
	return codec.BlockedZFP{Bound: e.Bound, BlockElems: e.BlockElems}
}
