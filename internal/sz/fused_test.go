package sz

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"
	_ "unsafe" // go:linkname

	"repro/internal/parallel"
)

// vecUseAVX2 is internal/vec's dispatch flag, bound by name (vec
// exports no switch): the restore path's exp runs through it.
//
//go:linkname vecUseAVX2 repro/internal/vec.useAVX2
var vecUseAVX2 bool

// kernelPaths runs f as "kernel" — the one-pass grid encoder with its
// row kernel, and vec's four-lane exp on restore — where this
// machine has them, and as "portable": the two-pass encoder and the
// math.Exp loop, which are their oracles.
func kernelPaths(t *testing.T, f func(t *testing.T)) {
	haveSZ, haveVec := useKernels, vecUseAVX2
	for _, on := range []bool{true, false} {
		if on && !haveSZ {
			continue
		}
		name := map[bool]string{true: "kernel", false: "portable"}[on]
		t.Run(name, func(t *testing.T) {
			useKernels, vecUseAVX2 = on, on && haveVec
			defer func() { useKernels, vecUseAVX2 = haveSZ, haveVec }()
			f(t)
		})
	}
}

// gridBounds are FuzzGridEncode's bounds: loose, the benchmark's, tight
// and, below the fast log's cut-off, one the kernels never see.
var gridBounds = []float64{1e-1, 1e-4, 1e-7, 1e-13}

// gridEncodeInput decodes one FuzzGridEncode case: a smooth field on an
// nx×ny×nz grid (1…40 each, x fastest), shifted down by shift/64 so that
// a sign change can cross it, with raw bit patterns written over it —
// ten bytes a value: a little-endian uint16 position (mod n), then the
// float64's bits.
func gridEncodeInput(nx, ny, nz, shift uint8, data []byte) (x []float64, sten stencil) {
	gx, gy, gz := 1+int(nx)%40, 1+int(ny)%40, 1+int(nz)%40
	x = gridField(gx, gy, gz, float64(shift)/64)
	for ; len(data) >= 10; data = data[10:] {
		x[int(binary.LittleEndian.Uint16(data))%len(x)] = math.Float64frombits(binary.LittleEndian.Uint64(data[2:]))
	}
	return x, stencil{PredictorLorenzoND, gx, gx * gy}
}

// checkGridEncode is the differential check on one block: the one-pass
// encoder writes the bytes the two-pass path does, and predicts from
// what the decoder reconstructs (checkGridState). A block holding a NaN
// or an Inf is refused either way, and Compress names the first one.
func checkGridEncode(t *testing.T, x []float64, sten stencil, eb float64) {
	t.Helper()
	p := Params{Mode: PWRel, ErrorBound: eb, BlockSize: len(x)}
	blk := Blocks{p: p, eb: eb, sten: sten}
	bad := firstNaNOrInf(x)
	encode := func(on bool) []byte {
		t.Helper()
		prev := useKernels
		useKernels = on
		defer func() { useKernels = prev }()
		out, err := blk.EncodeBlock(nil, x)
		if bad >= 0 {
			if !errors.Is(err, errNonFinite) {
				t.Fatalf("%v, eb %g, kernels %v: a NaN or Inf at %d encoded to %d bytes, %v", sten, eb, on, bad, len(out), err)
			}
			if _, err := Compress(x, p); err == nil || err.Error() != fmt.Sprintf("sz: non-finite value at index %d", bad) {
				t.Fatalf("kernels %v: Compress returned %v, want the non-finite value at index %d", on, err, bad)
			}
		} else if err != nil {
			t.Fatalf("%v, eb %g, kernels %v: %v", sten, eb, on, err)
		}
		return out
	}
	if want, got := encode(false), encode(true); !bytes.Equal(got, want) {
		t.Fatalf("%v, eb %g, %d values: one pass writes %d bytes, two passes %d", sten, eb, len(x), len(got), len(want))
	}
	if lnb := math.Log1p(eb); lnb-fastLogErr > 0.5*lnb {
		checkGridState(t, x, sten.fit(len(x)), lnb-fastLogErr)
	}
}

// firstNaNOrInf is the reference for the index Compress names: a plain
// loop, -1 when every value is finite.
func firstNaNOrInf(x []float64) int {
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return i
		}
	}
	return -1
}

// checkGridState compares what the stream does not show: the
// reconstructions the encoder predicts from — equal bytes can hide an
// ulp a prediction rounded differently, which the decoder would not
// reproduce. The row kernel (gridLogs.encode) leaves the codes,
// the reconstructions and the signs bitmap the Go loop (gridLogs.row
// over every row) does, bit for bit; their reconstructions are the
// decoder's; the Go loop declines exactly the blocks holding a zero, a
// subnormal, a NaN or an Inf, and the kernel those and the grids it
// leaves to the two-pass path: rows of one element, or slabs of one row.
func checkGridState(t *testing.T, x []float64, sten stencil, eb float64) {
	t.Helper()
	if sten.pred != PredictorLorenzoND {
		return
	}
	n, half := len(x), quantBins/2
	run := func(rows bool) (*gridLogs, bool) {
		g := &gridLogs{x: x, r: make([]float64, n), codes: make([]int, n), signs: make([]byte, (n+7)/8),
			zero: make([]float64, 4*sten.s1), sten: sten,
			inv: 1 / (2 * eb), twoEB: 2 * eb, eb: eb, limit: float64(half - 1), half: half}
		if !rows {
			return g, g.encode()
		}
		for b := 0; b < n; b += sten.s1 {
			if !g.row(b) {
				return g, false
			}
		}
		return g, true
	}
	kernel, ok := run(false)
	loop, loopOK := run(true)
	clean := true
	for _, v := range x {
		e := math.Float64bits(v) << 1 >> 53 // the biased exponent
		clean = clean && e != 0 && e != 0x7FF
	}
	takes := sten.s1 >= 2 && (sten.s2 == 0 || sten.s2/sten.s1 >= 2)
	if ok != (clean && takes) || loopOK != clean {
		t.Fatalf("%v: kernel took the block: %v, Go loop: %v, free of zeros, subnormals, NaNs and Infs: %v", sten, ok, loopOK, clean)
	}
	if !ok {
		return
	}
	for i := range x {
		if kernel.codes[i] != loop.codes[i] || math.Float64bits(kernel.r[i]) != math.Float64bits(loop.r[i]) {
			t.Fatalf("%v, eb %g: element %d: kernel code %d, reconstruction %x; Go loop %d, %x", sten, eb, i,
				kernel.codes[i], math.Float64bits(kernel.r[i]), loop.codes[i], math.Float64bits(loop.r[i]))
		}
	}
	if !bytes.Equal(kernel.signs, loop.signs) || kernel.unpred != loop.unpred {
		t.Fatalf("%v: kernel signs %x (%d unpredictable), Go loop %x (%d)", sten, kernel.signs, kernel.unpred, loop.signs, loop.unpred)
	}
	var unpred []float64
	for i, c := range loop.codes {
		if c == 0 {
			unpred = append(unpred, loop.r[i])
		}
	}
	core, err := emitCore(nil, loop.codes, eb, sten, quantBins, unpred)
	if err != nil {
		t.Fatal(err)
	}
	decoded := make([]float64, n)
	if err := decodeCoreInto(core, decoded); err != nil {
		t.Fatal(err)
	}
	for i := range decoded {
		if math.Float64bits(decoded[i]) != math.Float64bits(loop.r[i]) {
			t.Fatalf("%v, eb %g: element %d: the encoder predicted from %x, the decoder reconstructs %x", sten, eb, i,
				math.Float64bits(loop.r[i]), math.Float64bits(decoded[i]))
		}
	}
}

// row is the row kernel's oracle: the one-pass encoder's loop over one
// row in Go. It encodes the row that starts at element b; false at a
// zero, a subnormal, a NaN or an Inf.
func (g *gridLogs) row(b int) bool {
	w := min(g.sten.s1, len(g.x)-b)
	up, back, ub := g.sten.rows(g.r, g.zero, b, w)
	r, codes := g.r[b:b+w], g.codes[b:b+w]
	var prev float64
	for j, xv := range g.x[b : b+w] {
		bits := math.Float64bits(xv)
		abs := bits &^ (1 << 63)
		if abs-1<<52 >= expMask-1<<52 { // zero, subnormal, NaN or Inf
			return false
		}
		if bits != abs {
			g.signs[(b+j)>>3] |= 1 << (uint(b+j) & 7)
		}
		v := fastLog(abs)
		code, rv := quantStep(v, predict(PredictorLorenzoND, prev, 0, up, back, ub, j), g.inv, g.twoEB, g.eb, g.limit, g.half)
		if code == 0 {
			g.unpred++
		}
		codes[j], r[j] = code, rv
		prev = rv
	}
	return true
}

// FuzzGridEncode: on any grid of 1…40 elements an axis (rows of one and
// two elements; row counts the kernel splits into groups of two to four
// unevenly; planes; slabs of one row), at every bound, and with any bit
// pattern anywhere, the one-pass encoder and its row kernel are
// the two-pass path byte for byte, or decline the block. The committed
// crafted-* inputs name the cases.
func FuzzGridEncode(f *testing.F) {
	f.Fuzz(func(t *testing.T, nx, ny, nz, bound, shift uint8, data []byte) {
		if !useKernels {
			t.Skip("no kernels on this machine: the two-pass path is the only one")
		}
		x, sten := gridEncodeInput(nx, ny, nz, shift, data)
		checkGridEncode(t, x, sten, gridBounds[int(bound)%len(gridBounds)])
	})
}

// TestDecompressIntoAllocatesNoScratch: a restore decodes into the
// solver's own vector and takes its scratch from the pools, so a call
// allocates a few hundred bytes of container bookkeeping with the
// four-lane exp as without — nothing that grows with the 110,592 values
// it writes.
func TestDecompressIntoAllocatesNoScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	x := gridField(48, 48, 48, 0)
	comp, err := Compress(x, Params{Mode: PWRel, ErrorBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, len(x))
	kernelPaths(t, func(t *testing.T) {
		defer parallel.SetWorkers(parallel.SetWorkers(1))
		// The least of a few calls: a collection may empty the pools
		// under any one of them.
		least := uint64(math.MaxUint64)
		for range 5 {
			least = min(least, allocatedBytes(func() {
				if err := DecompressInto(dst, comp); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if least > 1<<10 {
			t.Errorf("DecompressInto of %d values allocated %d bytes", len(x), least)
		}
	})
}

// TestGridEncodeMatchesTwoPass: the differential check on what the
// encoder is for — the checkpoints of the benchmark's three solvers on
// a 20×30×50 box, cut into whole-slab blocks as Compress cuts them — at
// every FuzzGridEncode bound, and the same through Compress, whose
// bytes the kernels must not move either.
func TestGridEncodeMatchesTwoPass(t *testing.T) {
	if !useKernels {
		t.Skip("no kernels on this machine: the two-pass path is the only one")
	}
	for _, method := range []string{"cg", "gmres", "jacobi"} {
		for k, x := range checkpointIterates(t, 20, 30, 50, method) {
			for _, eb := range gridBounds {
				checkGridEncode(t, x[:6*600], stencil{PredictorLorenzoND, 20, 600}, eb)
				p := Params{Mode: PWRel, ErrorBound: eb}
				compress := func(on bool) []byte {
					useKernels = on
					defer func() { useKernels = true }()
					comp, err := Compress(x, p)
					if err != nil {
						t.Fatal(err)
					}
					return comp
				}
				if !bytes.Equal(compress(true), compress(false)) {
					t.Fatalf("%s save %d at %g: Compress writes different bytes with the kernels", method, k, eb)
				}
			}
		}
	}
}

// BenchmarkGridBlockEncode is one PWRel block as a cg-lossy-sync save
// cuts it — the first 14 slabs of the 48³ IC(0)-PCG iterate at
// iteration 25, at 1e-4 — written by the one-pass encoder ("kernel":
// the row kernel) and by the two-pass path ("portable"), Huffman
// stage and framing included, on the calling goroutine.
func BenchmarkGridBlockEncode(b *testing.B) {
	x := checkpointIterates(b, 48, 48, 48, "cg")[4][:14*48*48]
	p, err := normalizeParams(Params{Mode: PWRel, ErrorBound: 1e-4})
	if err != nil {
		b.Fatal(err)
	}
	have := useKernels
	defer func() { useKernels = have }()
	for _, path := range []string{"kernel", "portable"} {
		b.Run(path, func(b *testing.B) {
			if useKernels = path == "kernel"; useKernels && !have {
				b.Skip("no kernels on this machine")
			}
			var dst []byte
			for i := 0; i < b.N; i++ {
				if dst, err = appendLogTransform(dst[:0], x, p, stencil{PredictorLorenzoND, 48, 48 * 48}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(x)), "ns/elem")
		})
	}
}
