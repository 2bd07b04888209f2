// Package lossless provides the lossless baseline the paper compares
// against: a DEFLATE codec standing in for Gzip (the paper's "lossless
// checkpointing" uses Gzip). The paper's §2 observation — lossless
// ratios on floating-point scientific data rarely exceed ~2 except on
// very smooth fields — is reproduced by it in the Table 3 experiment.
package lossless

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

// appendWriter is an io.Writer that appends to a byte slice, so the
// DEFLATE stage can emit straight into a caller-provided (possibly
// pooled) buffer instead of a bytes.Buffer of its own.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// flateWriters recycles flate.Writer instances at
// flate.DefaultCompression (a flate.Writer carries ~600 KiB of
// match-finder state, by far the dominant allocation of a small
// compress call).
var flateWriters sync.Pool

// getFlateWriter returns a writer bound to w, reusing pooled state
// when available.
func getFlateWriter(w io.Writer) (*flate.Writer, error) {
	if v := flateWriters.Get(); v != nil {
		fw := v.(*flate.Writer)
		fw.Reset(w)
		return fw, nil
	}
	return flate.NewWriter(w, flate.DefaultCompression)
}

// Flate is the DEFLATE/Gzip-family codec at compress/flate's default
// level, the speed/ratio tradeoff gzip uses.
type Flate struct{}

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
func (Flate) AppendCompress(dst []byte, x []float64) ([]byte, error) {
	raw := parallel.GetBytes(8 * len(x))[:8*len(x)]
	for i, v := range x {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	aw := &appendWriter{b: dst}
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], uint64(len(x)))
	aw.b = append(aw.b, b8[:]...)
	w, err := getFlateWriter(aw)
	if err != nil {
		parallel.PutBytes(raw)
		return nil, err
	}
	if _, err := w.Write(raw); err != nil {
		parallel.PutBytes(raw)
		return nil, err
	}
	err = w.Close()
	flateWriters.Put(w)
	parallel.PutBytes(raw)
	if err != nil {
		return nil, err
	}
	return aw.b, nil
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
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
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
