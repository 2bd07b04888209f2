// Package zfp implements a transform-based, error-bounded lossy
// compressor in the spirit of ZFP's fixed-accuracy mode (Lindstrom,
// TVCG 2014), the block-transform comparator the paper cites. Data is
// processed in fixed-size blocks; each block is rotated into a
// decorrelated basis by an orthonormal DCT-II, the coefficients are
// uniformly quantized with a step chosen so the L∞ reconstruction
// error never exceeds the requested bound, and the quantized integers
// are zigzag-varint coded and entropy-compressed.
//
// This is a simplified cousin of real ZFP (which uses a custom lifted
// transform and bit-plane coding), but it preserves the properties the
// paper relies on: a hard absolute error bound, block locality, and
// transform-style ratio behaviour that differs from SZ's
// prediction-style behaviour on 1D solver state.
package zfp

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/parallel"
)

// BlockSize is the number of samples per transform block.
const BlockSize = 32

const magic = "ZFG1"

// basisCache maps block length to its orthonormal DCT-II basis.
var basisCache sync.Map // int -> [][]float64

// basis returns the n×n orthonormal DCT-II matrix.
func basis(n int) [][]float64 {
	if v, ok := basisCache.Load(n); ok {
		return v.([][]float64)
	}
	b := make([][]float64, n)
	for k := 0; k < n; k++ {
		b[k] = make([]float64, n)
		amp := math.Sqrt(2 / float64(n))
		if k == 0 {
			amp = math.Sqrt(1 / float64(n))
		}
		for i := 0; i < n; i++ {
			b[k][i] = amp * math.Cos(math.Pi*(float64(i)+0.5)*float64(k)/float64(n))
		}
	}
	basisCache.Store(n, b)
	return b
}

// appendWriter is an io.Writer appending into a byte slice, so the
// DEFLATE stage emits straight into the output stream.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// flateWriters recycles BestSpeed flate.Writer state (~600 KiB of
// match-finder tables per writer) across compress calls.
var flateWriters sync.Pool

func getFlateWriter(w io.Writer) *flate.Writer {
	if v := flateWriters.Get(); v != nil {
		fw := v.(*flate.Writer)
		fw.Reset(w)
		return fw
	}
	fw, _ := flate.NewWriter(w, flate.BestSpeed) // BestSpeed is always a valid level
	return fw
}

// Compress encodes x with the absolute error bound eb.
func Compress(x []float64, eb float64) ([]byte, error) {
	return AppendCompress(nil, x, eb)
}

// AppendCompress is Compress appending to dst (which may be pooled
// scratch), returning the extended slice. The varint scratch stream
// and the DEFLATE state come from pools, so the only growth is dst
// itself — the blocked container uses this to keep per-block encode
// free of whole-payload intermediates.
func AppendCompress(dst []byte, x []float64, eb float64) ([]byte, error) {
	if eb <= 0 || math.IsNaN(eb) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("zfp: error bound must be positive and finite, got %v", eb)
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("zfp: non-finite value at index %d", i)
		}
	}
	n := len(x)

	// Quantized coefficient stream, zigzag varint coded, in pooled
	// scratch.
	raw := parallel.GetBytes(2*n + 64)
	var scratch [binary.MaxVarintLen64]byte
	var coeff [BlockSize]float64
	for off := 0; off < n; off += BlockSize {
		bl := BlockSize
		if off+bl > n {
			bl = n - off
		}
		bb := basis(bl)
		q := 2 * eb / math.Sqrt(float64(bl))
		for k := 0; k < bl; k++ {
			var c float64
			row := bb[k]
			for i := 0; i < bl; i++ {
				c += row[i] * x[off+i]
			}
			coeff[k] = math.Round(c / q)
			if math.Abs(coeff[k]) > 1e18 {
				parallel.PutBytes(raw)
				return nil, fmt.Errorf("zfp: coefficient overflow; bound %g too small for data magnitude", eb)
			}
		}
		for k := 0; k < bl; k++ {
			z := zigzag(int64(coeff[k]))
			m := binary.PutUvarint(scratch[:], z)
			raw = append(raw, scratch[:m]...)
		}
	}

	// Entropy stage: DEFLATE over the varint stream, straight onto the
	// header.
	aw := &appendWriter{b: dst}
	aw.b = append(aw.b, magic...)
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], uint64(n))
	aw.b = append(aw.b, b8[:]...)
	binary.LittleEndian.PutUint64(b8[:], math.Float64bits(eb))
	aw.b = append(aw.b, b8[:]...)
	w := getFlateWriter(aw)
	_, werr := w.Write(raw)
	cerr := w.Close()
	flateWriters.Put(w)
	parallel.PutBytes(raw)
	if werr != nil {
		return nil, werr
	}
	if cerr != nil {
		return nil, cerr
	}
	return aw.b, nil
}

// Decompress reverses Compress.
func Decompress(data []byte) ([]float64, error) {
	n, err := decodedLen(data)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	if err := decompressInto(data, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecompressInto reverses Compress into a caller-provided slice: dst
// must have exactly the stream's element count, and no output
// allocation is performed. The varint stream is decoded serially, then
// the inverse transforms — the expensive stage — run block-parallel
// across the worker pool; transform blocks are independent, so the
// reconstruction is bitwise identical to Decompress.
func DecompressInto(dst []float64, data []byte) error {
	n, err := decodedLen(data)
	if err != nil {
		return err
	}
	if n != len(dst) {
		return fmt.Errorf("zfp: stream holds %d values, dst has %d", n, len(dst))
	}
	return decompressInto(data, dst)
}

// decodedLen validates the stream header and returns its element count.
func decodedLen(data []byte) (int, error) {
	if len(data) < 20 || string(data[:4]) != magic {
		return 0, fmt.Errorf("zfp: bad magic")
	}
	n := int(binary.LittleEndian.Uint64(data[4:]))
	if n < 0 {
		return 0, fmt.Errorf("zfp: negative length")
	}
	// Every coefficient costs at least one varint byte before the
	// DEFLATE stage, and DEFLATE expands at most ~1032× (one byte per
	// stored bit plus framing), so a genuine stream can never claim
	// more values than that bound; checking before the caller
	// allocates keeps crafted headers from demanding terabytes.
	const maxDeflateExpansion = 1032
	if n > maxDeflateExpansion*(len(data)-20) {
		return 0, fmt.Errorf("zfp: %d values exceed %d payload bytes", n, len(data)-20)
	}
	return n, nil
}

// decompressInto reconstructs the stream into out (len(out) == n).
func decompressInto(data []byte, out []float64) error {
	n := len(out)
	eb := math.Float64frombits(binary.LittleEndian.Uint64(data[12:]))
	// The bound the encoder accepts, checked before anything is written to
	// out: NaN or +Inf would reconstruct NaN/Inf without an error.
	if !(eb > 0) || math.IsInf(eb, 0) {
		return fmt.Errorf("zfp: corrupt error bound %v", eb)
	}
	r := flate.NewReader(bytes.NewReader(data[20:]))
	raw, err := readAllInto(parallel.GetBytes(2*n+64), r)
	if err != nil {
		parallel.PutBytes(raw)
		return fmt.Errorf("zfp: inflate: %w", err)
	}

	// Serial pass: the varint stream is sequential, so coefficient
	// boundaries are only known by scanning it once.
	vals := parallel.GetFloat64s(n)[:n]
	off := 0
	for k := 0; k < n; k++ {
		z, m := binary.Uvarint(raw[off:])
		if m <= 0 {
			parallel.PutBytes(raw)
			parallel.PutFloat64s(vals)
			return fmt.Errorf("zfp: truncated coefficient stream")
		}
		off += m
		vals[k] = float64(unzigzag(z))
	}
	parallel.PutBytes(raw)

	// Parallel pass: every BlockSize-sample inverse transform touches a
	// disjoint slice of out, so blocks reconstruct concurrently.
	nBlocks := (n + BlockSize - 1) / BlockSize
	parallel.For(nBlocks, parallel.Grain(nBlocks, 8, 4), func(lo, hi int) {
		for b := lo; b < hi; b++ {
			blockOff := b * BlockSize
			bl := BlockSize
			if blockOff+bl > n {
				bl = n - blockOff
			}
			bb := basis(bl)
			q := 2 * eb / math.Sqrt(float64(bl))
			dst := out[blockOff : blockOff+bl]
			for i := range dst {
				dst[i] = 0
			}
			for k := 0; k < bl; k++ {
				c := vals[blockOff+k] * q
				if c == 0 {
					continue
				}
				row := bb[k]
				for i := 0; i < bl; i++ {
					dst[i] += c * row[i]
				}
			}
		}
	})
	parallel.PutFloat64s(vals)
	return nil
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

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
