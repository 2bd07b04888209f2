package fti

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/codec"
	"repro/internal/lossless"
	"repro/internal/sz"
	"repro/internal/zfp"
)

// DecoderInto is the optional streaming extension of Encoder: encoders
// implementing it decode directly into a caller-provided slice, which
// the restore path uses to reconstruct vector payloads in place —
// straight into the registered (protected) variables — instead of
// allocating a fresh vector and copying. All encoders in this package
// implement it.
//
// Contract: dst's length must equal the encoded element count exactly
// (an error is returned otherwise — never a partial decode into a
// shorter dst); every element of dst is overwritten on success, so
// stale contents cannot survive (accumulate-style decoders must zero
// dst first); on error dst's contents are unspecified; and the
// reconstruction must be bitwise identical to Decode on the same
// bytes.
type DecoderInto interface {
	DecodeInto(dst []float64, data []byte) error
}

// DecodeInto decodes data with enc into dst, whose length must match
// the encoded element count, using the encoder's DecoderInto fast path
// when implemented and falling back to Decode plus a copy.
func DecodeInto(enc Encoder, dst []float64, data []byte) error {
	if di, ok := enc.(DecoderInto); ok {
		return di.DecodeInto(dst, data)
	}
	v, err := enc.Decode(data)
	if err != nil {
		return err
	}
	if len(v) != len(dst) {
		return fmt.Errorf("fti: decoded %d values into a %d-element destination", len(v), len(dst))
	}
	copy(dst, v)
	return nil
}

// EncodeStats summarizes the distortion one vector's encoding
// introduced, in the shape the sz/codec containers report it: errors
// in the bound's native metric (absolute, or relative when Relative),
// plus the value-domain aggregates PSNR needs. Lossless encoders
// report exact zeros. It mirrors sz.Stats field-for-field so the
// quality layer depends only on fti.
type EncodeStats struct {
	Elements    int
	MaxErr      float64
	SumErr      float64
	SumSqAbs    float64
	MaxAbsValue float64
	Bound       float64
	Relative    bool
	// Lossy reports whether the encoder can distort at all; exact
	// encoders audit trivially (zero error, no decode).
	Lossy bool
}

// fromSZStats converts the container packages' stats form.
func fromSZStats(st sz.Stats, lossy bool) EncodeStats {
	return EncodeStats{
		Elements:    st.Elements,
		MaxErr:      st.MaxErr,
		SumErr:      st.SumErr,
		SumSqAbs:    st.SumSqAbs,
		MaxAbsValue: st.MaxAbsValue,
		Bound:       st.Bound,
		Relative:    st.Relative,
		Lossy:       lossy,
	}
}

// MeanErr returns the mean per-element error in the bound's metric.
func (s EncodeStats) MeanErr() float64 {
	if s.Elements == 0 {
		return 0
	}
	return s.SumErr / float64(s.Elements)
}

// RMSE returns the root-mean-square absolute (value-domain) error.
func (s EncodeStats) RMSE() float64 {
	if s.Elements == 0 {
		return 0
	}
	return math.Sqrt(s.SumSqAbs / float64(s.Elements))
}

// PSNR returns the peak signal-to-noise ratio in dB; +Inf for exact
// reconstructions, 0 for an all-zero input.
func (s EncodeStats) PSNR() float64 {
	rmse := s.RMSE()
	if rmse == 0 {
		if s.MaxAbsValue == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return 20 * math.Log10(s.MaxAbsValue/rmse)
}

// StatsEncoder is the optional audit extension of Encoder: EncodeStats
// appends the same bytes Encode would — bitwise — and returns the
// distortion the encoding introduced, accumulated on the encode path
// itself (the sz quantizer already knows every reconstruction; the ZFP
// container decodes each block while cache-hot; lossless encoders
// report exact zeros without any extra pass over the payload).
type StatsEncoder interface {
	Encoder
	EncodeStats(dst []byte, x []float64) ([]byte, EncodeStats, error)
}

// appendBlob ends every compressing Encode: the codec's buffer joins dst.
func appendBlob(dst, blob []byte, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return append(dst, blob...), nil
}

// exactStats builds the EncodeStats of a lossless encoding of x.
func exactStats(x []float64) EncodeStats {
	st := EncodeStats{Elements: len(x)}
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > st.MaxAbsValue {
			st.MaxAbsValue = v
		}
	}
	return st
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
	for _, v := range x {
		binary.LittleEndian.PutUint64(out, math.Float64bits(v))
		out = out[8:]
	}
	return dst, nil
}

// Decode reverses Encode.
func (Raw) Decode(data []byte) ([]float64, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("fti: raw payload length %d not a multiple of 8", len(data))
	}
	out := make([]float64, len(data)/8)
	return out, Raw{}.DecodeInto(out, data)
}

// DecodeInto reverses Encode into dst (DecoderInto).
func (Raw) DecodeInto(dst []float64, data []byte) error {
	if len(data) != 8*len(dst) {
		return fmt.Errorf("fti: raw payload is %d bytes, a %d-element destination needs %d", len(data), len(dst), 8*len(dst))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return nil
}

// Lossless wraps a lossless codec (the paper's Gzip baseline).
type Lossless struct {
	Codec lossless.Codec
}

// Name returns "lossless/<codec>".
func (e Lossless) Name() string { return "lossless/" + e.Codec.Name() }

// Encode compresses exactly.
func (e Lossless) Encode(dst []byte, x []float64) ([]byte, error) {
	blob, err := e.Codec.Compress(x)
	return appendBlob(dst, blob, err)
}

// Decode decompresses exactly.
func (e Lossless) Decode(data []byte) ([]float64, error) { return e.Codec.Decompress(data) }

// DecodeInto decompresses exactly into dst (DecoderInto).
func (e Lossless) DecodeInto(dst []float64, data []byte) error {
	return e.Codec.DecompressInto(dst, data)
}

// SZ wraps the SZ-like error-bounded lossy compressor — the paper's
// choice for 1D solver state.
type SZ struct {
	Params sz.Params
}

// Name returns "sz".
func (SZ) Name() string { return "sz" }

// Encode compresses within the configured error bound.
func (e SZ) Encode(dst []byte, x []float64) ([]byte, error) {
	blob, err := sz.Compress(x, e.Params)
	return appendBlob(dst, blob, err)
}

// Decode reconstructs within the error bound.
func (SZ) Decode(data []byte) ([]float64, error) { return sz.Decompress(data) }

// DecodeInto reconstructs within the error bound into dst
// (DecoderInto).
func (SZ) DecodeInto(dst []float64, data []byte) error { return sz.DecompressInto(dst, data) }

// ZFP wraps the transform-based lossy compressor (absolute bound).
// Vectors larger than one container block are written in the BLK1
// blocked container — compressed block-parallel and restorable
// shard-by-shard through the streaming path — with bitwise identical
// reconstruction to the legacy stream; legacy single-block streams
// from older checkpoints still decode.
type ZFP struct {
	Bound float64
	// BlockElems is the container block size in elements; 0 means
	// codec.DefaultBlockElems (rounded to a transform-block multiple).
	BlockElems int
}

// Name returns "zfp".
func (ZFP) Name() string { return "zfp" }

// Encode compresses within the absolute error bound.
func (e ZFP) Encode(dst []byte, x []float64) ([]byte, error) {
	blob, err := codec.Compress(x, codec.Params{Codec: codec.ZFP, Bound: e.Bound, BlockElems: e.BlockElems})
	return appendBlob(dst, blob, err)
}

// Decode reconstructs within the bound.
func (ZFP) Decode(data []byte) ([]float64, error) {
	if codec.IsBlocked(data) {
		return codec.DecompressAs(data, codec.ZFP)
	}
	return zfp.Decompress(data)
}

// DecodeInto reconstructs within the bound into dst (DecoderInto).
func (ZFP) DecodeInto(dst []float64, data []byte) error {
	if codec.IsBlocked(data) {
		return codec.DecompressIntoAs(dst, data, codec.ZFP)
	}
	return zfp.DecompressInto(dst, data)
}

// EncodeStats implements StatsEncoder: exact bytes, zero error.
func (e Raw) EncodeStats(dst []byte, x []float64) ([]byte, EncodeStats, error) {
	dst, err := e.Encode(dst, x)
	return dst, exactStats(x), err
}

// EncodeStats implements StatsEncoder: exact bytes, zero error.
func (e Lossless) EncodeStats(dst []byte, x []float64) ([]byte, EncodeStats, error) {
	dst, err := e.Encode(dst, x)
	return dst, exactStats(x), err
}

// EncodeStats implements StatsEncoder via the sz encode-path
// accumulators: same bytes as Encode, no audit decode.
func (e SZ) EncodeStats(dst []byte, x []float64) ([]byte, EncodeStats, error) {
	blob, st, err := sz.CompressWithStats(x, e.Params)
	dst, err = appendBlob(dst, blob, err)
	return dst, fromSZStats(st, true), err
}

// EncodeStats implements StatsEncoder via the blocked container's
// audit path (per-block decode into pooled scratch).
func (e ZFP) EncodeStats(dst []byte, x []float64) ([]byte, EncodeStats, error) {
	blob, st, err := codec.CompressWithStats(x, codec.Params{Codec: codec.ZFP, Bound: e.Bound, BlockElems: e.BlockElems})
	dst, err = appendBlob(dst, blob, err)
	return dst, fromSZStats(st, true), err
}

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

// Bounded is the optional introspection extension of Encoder: it
// exposes the configured error-bound contract so an external auditor
// can judge a decoded reconstruction against it even when the encoder
// does not implement StatsEncoder.
type Bounded interface {
	BoundInfo() BoundInfo
}

// BoundInfo reports the exact contract (no distortion).
func (Raw) BoundInfo() BoundInfo { return BoundInfo{} }

// BoundInfo reports the exact contract (no distortion).
func (Lossless) BoundInfo() BoundInfo { return BoundInfo{} }

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

// BoundInfo reports the configured absolute ZFP bound.
func (e ZFP) BoundInfo() BoundInfo { return BoundInfo{Bound: e.Bound, Lossy: true} }

// The four built-in encoders all support audited saves.
var (
	_ StatsEncoder = Raw{}
	_ StatsEncoder = Lossless{}
	_ StatsEncoder = SZ{}
	_ StatsEncoder = ZFP{}

	_ Bounded = Raw{}
	_ Bounded = Lossless{}
	_ Bounded = SZ{}
	_ Bounded = ZFP{}
)
