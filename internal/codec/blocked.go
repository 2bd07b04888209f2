package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"repro/internal/parallel"
)

// BlockedFlate is the DEFLATE codec as a block codec: the paper's Gzip
// baseline, at compress/flate's default level, the speed/ratio tradeoff
// gzip uses. Its §2 observation — lossless ratios on floating-point
// scientific data rarely exceed ~2 except on very smooth fields — is
// what the Table 3 experiment reproduces with it. A block payload is
// the element count (uint64, little-endian) and one DEFLATE stream of
// the block's little-endian byte image.
type BlockedFlate struct {
	// BlockElems is the element count per container block; 0 means
	// 16,384 (flateBlockElems).
	BlockElems int
}

// flateBlockElems is BlockedFlate's default block: 128 KiB of input,
// pigz's block size. A 32³ vector is then two blocks the container
// compresses and inflates concurrently rather than one stream on one
// core; the second block's empty window costs 4.3% in bytes on the
// Jacobi state.
const flateBlockElems = 16384

// ID implements BlockCodec.
func (BlockedFlate) ID() ID { return Flate }

// BlockSize implements BlockCodec.
func (c BlockedFlate) BlockSize() int {
	if c.BlockElems == 0 {
		return flateBlockElems
	}
	return c.BlockElems
}

// appendWriter is an io.Writer that appends to a byte slice, so a
// pooled flate.Writer emits straight into the caller's buffer.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// deflater is a pooled flate.Writer (about 600 KiB of match-finder
// state, the dominant allocation of a cold compress), its sink and the
// byte image of the block it compresses.
type deflater struct {
	zw  *flate.Writer
	out appendWriter
	raw []byte
}

// inflater is a pooled flate reader (its 32 KiB window and Huffman
// tables), the source it reads and the byte image it inflates into.
type inflater struct {
	zr  io.Reader
	src bytes.Reader
	raw []byte
}

// freeList is a pool every goroutine sees whole: a sync.Pool keeps its
// last object private to one P, where a block run on another P missed
// it. It keeps at most one object per worker.
type freeList[T any] struct {
	mu    sync.Mutex
	items []*T
}

func (l *freeList[T]) get() (t *T) {
	l.mu.Lock()
	if n := len(l.items); n > 0 {
		t, l.items = l.items[n-1], l.items[:n-1]
	}
	l.mu.Unlock()
	return t
}

func (l *freeList[T]) put(t *T) {
	l.mu.Lock()
	if len(l.items) < parallel.Workers() {
		l.items = append(l.items, t)
	}
	l.mu.Unlock()
}

var deflaters freeList[deflater]
var inflaters freeList[inflater]

// EncodeBlock implements BlockCodec.
func (BlockedFlate) EncodeBlock(dst []byte, x []float64) ([]byte, error) {
	d := deflaters.get()
	if d == nil {
		d = new(deflater)
		d.zw, _ = flate.NewWriter(&d.out, flate.DefaultCompression) // errs only on a bad level
	} else {
		d.zw.Reset(&d.out)
	}
	defer deflaters.put(d)
	d.raw = slices.Grow(d.raw[:0], 8*len(x))[:8*len(x)]
	for i, v := range x {
		binary.LittleEndian.PutUint64(d.raw[8*i:], math.Float64bits(v))
	}
	d.out.b = binary.LittleEndian.AppendUint64(dst, uint64(len(x)))
	d.zw.Write(d.raw) // a flate.Writer's error is sticky: Close reports it
	err := d.zw.Close()
	dst, d.out.b = d.out.b, nil
	return dst, err
}

// DecodeBlockInto implements BlockCodec. The count is checked against
// dst before anything is inflated, and the stream is read for exactly
// dst's bytes and must end there, so a crafted block never inflates
// beyond its destination.
func (BlockedFlate) DecodeBlockInto(dst []float64, block []byte) error {
	if len(block) < 8 {
		return fmt.Errorf("flate: truncated block header")
	}
	if n := binary.LittleEndian.Uint64(block); n != uint64(len(dst)) {
		return fmt.Errorf("flate: block holds %d values, dst has %d", n, len(dst))
	}
	z := inflaters.get()
	if z == nil {
		z = new(inflater)
		z.zr = flate.NewReader(&z.src)
	}
	z.src.Reset(block[8:])
	z.zr.(flate.Resetter).Reset(&z.src, nil)
	defer func() {
		z.src.Reset(nil)
		inflaters.put(z)
	}()
	z.raw = slices.Grow(z.raw[:0], 8*len(dst))[:8*len(dst)]
	if _, err := io.ReadFull(z.zr, z.raw); err != nil {
		return fmt.Errorf("flate: inflate: %w", err)
	}
	var extra [1]byte
	if m, err := z.zr.Read(extra[:]); m != 0 || err != io.EOF {
		return fmt.Errorf("flate: stream does not end after %d values (%v)", len(dst), err)
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(z.raw[8*i:]))
	}
	return nil
}
