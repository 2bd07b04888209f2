package fti

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/codec"
	"repro/internal/sz"
	"repro/internal/vec"
)

// BoundInfo describes the distortion contract an encoder holds one
// vector to: the error bound in its native metric (absolute, or
// relative when Relative) and whether the encoder can distort at all.
// Bound 0 on an absolute contract means exact.
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
func (Raw) Encode(dst []byte, x []float64) ([]byte, error) {
	off := len(dst)
	dst = slices.Grow(dst, 8*len(x))[:off+8*len(x)]
	out := dst[off:]
	if nativeIsRaw {
		copy(out, memoryImage(x))
		return dst, nil
	}
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
	if nativeIsRaw {
		copy(memoryImage(dst), data)
		return nil
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return nil
}

// nativeIsRaw is set where a float64's in-memory bytes are its
// little-endian image (amd64, arm64): there Raw moves a vector as one
// copy of memoryImage, and elsewhere element by element.
var nativeIsRaw = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// memoryImage is x's memory viewed as its 8·len(x) bytes, aliasing x.
// It is the package's one use of unsafe: a float64 has no padding and
// any byte address is aligned, so the view is valid for the slice's
// lifetime on every platform; only its byte order varies, which is why
// callers ask nativeIsRaw first.
func memoryImage(x []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(x))), 8*len(x))
}

// BoundInfo reports the exact contract (no distortion).
func (Raw) BoundInfo([]float64) BoundInfo { return BoundInfo{} }

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
func (e Lossless) Encode(dst []byte, x []float64) ([]byte, error) {
	return codec.Compress(dst, x, e.Codec)
}

// DecodeInto decompresses exactly into dst.
func (e Lossless) DecodeInto(dst []float64, data []byte) error {
	return codec.DecompressInto(dst, data, e.Codec)
}

// BoundInfo reports the exact contract (no distortion).
func (Lossless) BoundInfo([]float64) BoundInfo { return BoundInfo{} }

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
func (e SZ) Encode(dst []byte, x []float64) ([]byte, error) {
	return sz.AppendCompress(dst, x, e.Params)
}

// DecodeInto reconstructs within the error bound into dst.
func (SZ) DecodeInto(dst []float64, data []byte) error { return sz.DecompressInto(dst, data) }

// BoundInfo reports the configured sz bound in its native metric; a
// range-relative bound is the absolute bound × the value range of x,
// as the compressor derives it.
func (e SZ) BoundInfo(x []float64) BoundInfo {
	switch e.Params.Mode {
	case sz.PWRel:
		return BoundInfo{Bound: e.Params.ErrorBound, Relative: true, Lossy: true}
	case sz.RelRange:
		lo, hi := vec.Range(x)
		return BoundInfo{Bound: e.Params.ErrorBound * (hi - lo), Lossy: true}
	default:
		return BoundInfo{Bound: e.Params.ErrorBound, Lossy: true}
	}
}

// Blocks returns SZ's block decoder.
func (SZ) Blocks() codec.BlockCodec { return sz.Blocks{} }
