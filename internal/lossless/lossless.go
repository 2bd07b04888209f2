// Package lossless provides the lossless baselines the paper compares
// against: a DEFLATE codec standing in for Gzip (the paper's "lossless
// checkpointing" uses Gzip) and an FPC-style predictive XOR coder
// (Burtscher & Ratanaworabhan) specialized for float64 streams. The
// paper's §2 observation — lossless ratios on floating-point
// scientific data rarely exceed ~2 except on very smooth fields — is
// reproduced by these codecs in the Table 3 experiment.
package lossless

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"

	"repro/internal/parallel"
)

// appendWriter is an io.Writer that appends to a byte slice, so the
// DEFLATE stage can emit straight into a caller-provided (possibly
// pooled) buffer instead of a bytes.Buffer of its own.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// flateWriterPools recycles flate.Writer instances per compression
// level (a flate.Writer carries ~600 KiB of match-finder state, by far
// the dominant allocation of a small compress call). Index is
// level+2: flate levels span -2 (HuffmanOnly) through 9.
var flateWriterPools [12]sync.Pool

// getFlateWriter returns a writer for level bound to w, reusing pooled
// state when available.
func getFlateWriter(level int, w io.Writer) (*flate.Writer, error) {
	idx := level + 2
	if idx < 0 || idx >= len(flateWriterPools) {
		return flate.NewWriter(w, level) // out-of-range level: let flate report it
	}
	if v := flateWriterPools[idx].Get(); v != nil {
		fw := v.(*flate.Writer)
		fw.Reset(w)
		return fw, nil
	}
	return flate.NewWriter(w, level)
}

// putFlateWriter recycles a writer obtained from getFlateWriter.
func putFlateWriter(level int, fw *flate.Writer) {
	idx := level + 2
	if idx >= 0 && idx < len(flateWriterPools) {
		flateWriterPools[idx].Put(fw)
	}
}

// Flate is the DEFLATE/Gzip-family codec. Level follows compress/flate
// (0 = default speed/ratio tradeoff used by gzip).
type Flate struct {
	Level int
}

// Name returns "gzip(deflate)".
func (Flate) Name() string { return "gzip(deflate)" }

// Compress DEFLATE-compresses the little-endian byte image of x.
func (f Flate) Compress(x []float64) ([]byte, error) {
	return f.AppendCompress(nil, x)
}

// AppendCompress is Compress appending to dst (which may be pooled
// scratch), returning the extended slice. The byte image and the
// DEFLATE state come from pools, so the only growth is dst itself —
// the blocked container uses this to keep per-block encode free of
// whole-payload intermediates.
func (f Flate) AppendCompress(dst []byte, x []float64) ([]byte, error) {
	level := f.Level
	if level == 0 {
		level = flate.DefaultCompression
	}
	raw := parallel.GetBytes(8 * len(x))[:8*len(x)]
	for i, v := range x {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	aw := &appendWriter{b: dst}
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], uint64(len(x)))
	aw.b = append(aw.b, b8[:]...)
	w, err := getFlateWriter(level, aw)
	if err != nil {
		parallel.PutBytes(raw)
		return nil, err
	}
	if _, err := w.Write(raw); err != nil {
		parallel.PutBytes(raw)
		return nil, err
	}
	err = w.Close()
	putFlateWriter(level, w)
	parallel.PutBytes(raw)
	if err != nil {
		return nil, err
	}
	return aw.b, nil
}

// Decompress reverses Compress.
func (f Flate) Decompress(data []byte) ([]float64, error) {
	raw, n, err := inflateFlate(data)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	fillFloats(out, raw)
	parallel.PutBytes(raw)
	return out, nil
}

// DecompressInto reverses Compress into dst (serial, allocation-free
// on the output side); len(dst) must equal the stream's element count.
func (f Flate) DecompressInto(dst []float64, data []byte) error {
	raw, n, err := inflateFlate(data)
	if err != nil {
		return err
	}
	if n != len(dst) {
		parallel.PutBytes(raw)
		return fmt.Errorf("lossless: stream holds %d values, dst has %d", n, len(dst))
	}
	fillFloats(dst, raw)
	parallel.PutBytes(raw)
	return nil
}

// inflateFlate validates a Flate stream and returns the inflated byte
// image (pooled; the caller returns it with parallel.PutBytes) plus
// the element count.
func inflateFlate(data []byte) ([]byte, int, error) {
	if len(data) < 8 {
		return nil, 0, fmt.Errorf("lossless: truncated flate header")
	}
	n := int(binary.LittleEndian.Uint64(data))
	if n < 0 {
		return nil, 0, fmt.Errorf("lossless: negative length")
	}
	// DEFLATE expands at most ~1032×, so a genuine stream can never
	// claim more raw bytes than that bound allows; checking before the
	// inflate loop sizes its buffer keeps crafted headers from
	// demanding terabytes.
	const maxDeflateExpansion = 1032
	if n > maxDeflateExpansion*(len(data)-8)/8+1 {
		return nil, 0, fmt.Errorf("lossless: %d values exceed %d payload bytes", n, len(data)-8)
	}
	r := flate.NewReader(bytes.NewReader(data[8:]))
	raw := parallel.GetBytes(8 * n)
	raw, err := readAllInto(raw, r)
	if err != nil {
		parallel.PutBytes(raw)
		return nil, 0, fmt.Errorf("lossless: inflate: %w", err)
	}
	if len(raw) != 8*n {
		parallel.PutBytes(raw)
		return nil, 0, fmt.Errorf("lossless: inflated %d bytes, want %d", len(raw), 8*n)
	}
	return raw, n, nil
}

// readAllInto reads r to EOF appending into buf, like io.ReadAll but
// reusing buf's capacity.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		m, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// fillFloats decodes the little-endian byte image raw into out.
func fillFloats(out []float64, raw []byte) {
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
}

// FPC is a simplified FPC coder: each value is predicted by the better
// of a last-value predictor and a linear-stride predictor, the
// prediction is XORed with the true bit pattern, and the leading zero
// bytes of the XOR are elided. A 4-bit header per value records the
// predictor choice and the count of residual bytes.
type FPC struct{}

// Name returns "fpc".
func (FPC) Name() string { return "fpc" }

// fpcWorstCase bounds the encoded size of n values: the 8-byte count,
// one header nibble per value, and a full 8-byte residual per value.
func fpcWorstCase(n int) int { return 8 + (n+1)/2 + 8*n }

// Compress encodes x exactly. The encode runs in pooled worst-case
// scratch and the result is copied out at its exact size, so the only
// retained allocation is the returned stream.
func (c FPC) Compress(x []float64) ([]byte, error) {
	scratch := parallel.GetBytes(fpcWorstCase(len(x)))
	enc, err := c.AppendCompress(scratch, x)
	if err != nil {
		parallel.PutBytes(scratch)
		return nil, err
	}
	out := make([]byte, len(enc))
	copy(out, enc)
	parallel.PutBytes(enc)
	return out, nil
}

// AppendCompress is Compress appending to dst, returning the extended
// slice. dst is grown once to the worst-case bound up front, then the
// single encode pass writes headers and residuals in place — no
// repeated append growth, no intermediate nibble or payload slices.
func (FPC) AppendCompress(dst []byte, x []float64) ([]byte, error) {
	n := len(x)
	base := len(dst)
	worst := fpcWorstCase(n)
	if cap(dst)-base < worst {
		grown := make([]byte, base, base+worst)
		copy(grown, dst)
		dst = grown
	}
	buf := dst[:base+worst]
	binary.LittleEndian.PutUint64(buf[base:], uint64(n))
	hdrLen := (n + 1) / 2
	hdr := buf[base+8 : base+8+hdrLen]
	for i := range hdr {
		hdr[i] = 0
	}
	idx := base + 8 + hdrLen

	var prev, prev2 float64
	for i, v := range x {
		vb := math.Float64bits(v)
		x1 := vb ^ math.Float64bits(prev)
		x2 := vb ^ math.Float64bits(2*prev-prev2) // linear stride
		sel := byte(0)
		res := x1
		if lzBytes(x2) > lzBytes(x1) {
			sel = 1
			res = x2
		}
		nres := 8 - lzBytes(res)
		nib := sel<<3 | byte(nres&7)
		emit := nres
		if nres >= 7 {
			// Can't distinguish 7 from 8 in 3 bits; code 7 means "7 or
			// 8" and always emits 8 bytes (one wasted byte for true
			// 7-byte residuals).
			nib = sel<<3 | 7
			emit = 8
		}
		if i&1 == 0 {
			hdr[i>>1] = nib << 4
		} else {
			hdr[i>>1] |= nib
		}
		for b := emit - 1; b >= 0; b-- {
			buf[idx] = byte(res >> (8 * uint(b)))
			idx++
		}
		prev2 = prev
		prev = v
	}
	return dst[:idx], nil
}

// Decompress reverses Compress.
func (c FPC) Decompress(data []byte) ([]float64, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("lossless: truncated fpc header")
	}
	n := int(binary.LittleEndian.Uint64(data))
	if n < 0 {
		return nil, fmt.Errorf("lossless: negative length")
	}
	// Every value costs a header nibble, so a genuine stream can never
	// claim more values than twice its remaining bytes; checking before
	// allocating keeps crafted headers from demanding terabytes.
	if n > 2*(len(data)-8) {
		return nil, fmt.Errorf("lossless: %d values exceed %d payload bytes", n, len(data)-8)
	}
	out := make([]float64, n)
	if err := c.DecompressInto(out, data); err != nil {
		return nil, err
	}
	return out, nil
}

// DecompressInto reverses Compress into dst (serial, allocation-free
// on the output side); len(dst) must equal the stream's element count.
func (FPC) DecompressInto(dst []float64, data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("lossless: truncated fpc header")
	}
	n := int(binary.LittleEndian.Uint64(data))
	if n < 0 {
		return fmt.Errorf("lossless: negative length")
	}
	if n != len(dst) {
		return fmt.Errorf("lossless: stream holds %d values, dst has %d", n, len(dst))
	}
	hdrLen := (n + 1) / 2
	if len(data) < 8+hdrLen {
		return fmt.Errorf("lossless: truncated fpc nibbles")
	}
	headers := data[8 : 8+hdrLen]
	payload := data[8+hdrLen:]
	out := dst
	var prev, prev2 float64
	off := 0
	for i := 0; i < n; i++ {
		nib := headers[i/2]
		if i%2 == 0 {
			nib >>= 4
		}
		nib &= 0x0f
		sel := nib >> 3
		nres := int(nib & 7)
		if nres == 7 {
			nres = 8
		}
		if off+nres > len(payload) {
			return fmt.Errorf("lossless: truncated fpc payload at value %d", i)
		}
		var res uint64
		for b := 0; b < nres; b++ {
			res = res<<8 | uint64(payload[off+b])
		}
		off += nres
		var pred uint64
		if sel == 0 {
			pred = math.Float64bits(prev)
		} else {
			pred = math.Float64bits(2*prev - prev2)
		}
		v := math.Float64frombits(pred ^ res)
		out[i] = v
		prev2 = prev
		prev = v
	}
	if off != len(payload) {
		return fmt.Errorf("lossless: %d payload bytes unconsumed", len(payload)-off)
	}
	return nil
}

// lzBytes counts the leading zero bytes of v (0–8).
func lzBytes(v uint64) int {
	return bits.LeadingZeros64(v) >> 3
}

// Ratio returns the compression ratio original/compressed in bytes.
func Ratio(n int, compressed []byte) float64 {
	if len(compressed) == 0 {
		return 0
	}
	return float64(8*n) / float64(len(compressed))
}
