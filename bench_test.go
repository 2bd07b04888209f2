// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per artifact, backed by the experiment
// registry), plus kernel benchmarks for the substrates and ablation
// benchmarks for the design choices called out in DESIGN.md §5.
package lossyckpt_test

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/abft"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/failure"
	"repro/internal/fti"
	"repro/internal/huffman"
	"repro/internal/lossless"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/precond"
	"repro/internal/quality"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/sz"
	"repro/internal/vec"
	"repro/internal/zfp"
)

// runExperiment executes one registry experiment in quick mode.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, experiments.Config{Quick: true, Seed: 1})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if err := res.WriteText(io.Discard); err != nil {
			b.Fatalf("%s render: %v", id, err)
		}
	}
}

// ---- One benchmark per paper artifact --------------------------------------

func BenchmarkFig1OverheadSurface(b *testing.B)         { runExperiment(b, "fig1") }
func BenchmarkFig2CGExtraIterations(b *testing.B)       { runExperiment(b, "fig2") }
func BenchmarkFig3KKTScaling(b *testing.B)              { runExperiment(b, "fig3") }
func BenchmarkTable3CheckpointSizes(b *testing.B)       { runExperiment(b, "table3") }
func BenchmarkFig4JacobiCkptTime(b *testing.B)          { runExperiment(b, "fig4") }
func BenchmarkFig5GMRESCkptTime(b *testing.B)           { runExperiment(b, "fig5") }
func BenchmarkFig6CGCkptTime(b *testing.B)              { runExperiment(b, "fig6") }
func BenchmarkFig7ExpectedOverhead(b *testing.B)        { runExperiment(b, "fig7") }
func BenchmarkFig8ConvergenceIterations(b *testing.B)   { runExperiment(b, "fig8") }
func BenchmarkFig9JacobiResidualTrace(b *testing.B)     { runExperiment(b, "fig9") }
func BenchmarkFig10FaultToleranceOverhead(b *testing.B) { runExperiment(b, "fig10") }

// ---- Kernel benchmarks -------------------------------------------------------

func solverState(n int) []float64 {
	x := sparse.SmoothField(n, 7)
	for i := range x {
		x[i] += 2.5
	}
	return x
}

func BenchmarkSZCompressPWRel(b *testing.B) {
	x := solverState(1 << 20)
	b.SetBytes(int64(8 * len(x)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sz.Compress(x, sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSZCompressAbs(b *testing.B) {
	x := solverState(1 << 20)
	b.SetBytes(int64(8 * len(x)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sz.Compress(x, sz.Params{Mode: sz.Abs, ErrorBound: 1e-4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSZDecompress(b *testing.B) {
	x := solverState(1 << 20)
	comp, err := sz.Compress(x, sz.Params{Mode: sz.Abs, ErrorBound: 1e-4})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * len(x)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sz.Decompress(comp); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- The save path on real solver state --------------------------------------
//
// solverState above is smooth in one dimension: its quantization codes
// fall in a few dozen bins and a block's Huffman table is tiny. A
// checkpoint compresses a Krylov iterate, a field on the solver's grid.
// These four run on what cg-lossy-sync saves — the 48³ IC(0)-PCG
// iterate at iteration 25 — the entropy stage on the recorded code
// histograms of its first block (internal/huffman/testdata): as the
// 1-D linear predictor left them (~1,200 distinct codes) and as the
// 3-D Lorenzo stencil over the inferred grid does (~130), which is
// what a checkpoint holds now.

func pcgIterate(b *testing.B) []float64 {
	a := sparse.Poisson3D(pcgGrid)
	m, err := precond.NewIC0(a)
	if err != nil {
		b.Fatal(err)
	}
	s := solver.NewCG(a, m, sparse.OnesRHS(a.Rows), nil, solver.SeqSpace{}, solver.Options{RTol: 1e-300})
	for i := 0; i < 25; i++ {
		s.Step()
	}
	return append([]float64(nil), s.X()...)
}

// entropyBlocks are the symbol streams the Huffman stage sees, by
// predictor: a recorded histogram expanded and shuffled (the coder is
// memoryless: table and bits depend on the counts alone).
func entropyBlocks(b *testing.B) map[string][]int {
	blocks := map[string][]int{}
	for name, file := range map[string]string{"linear1d": "pcg48_iter25_block0.hist", "lorenzo3d": "pcg48_iter25_grid_block0.hist"} {
		hist, err := os.ReadFile("internal/huffman/testdata/" + file)
		if err != nil {
			b.Fatal(err)
		}
		var symbols []int
		for _, line := range strings.Split(string(hist), "\n") {
			var sym, n int
			if _, err := fmt.Sscanf(line, "%d %d", &sym, &n); err != nil {
				continue // the comment line, the last newline
			}
			for ; n > 0; n-- {
				symbols = append(symbols, sym)
			}
		}
		rand.New(rand.NewSource(3)).Shuffle(len(symbols), func(i, j int) { symbols[i], symbols[j] = symbols[j], symbols[i] })
		blocks[name] = symbols
	}
	return blocks
}

const entropyAlphabet = 1 << 16

func reportPerElem(b *testing.B, elems int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/elem")
}

func BenchmarkHuffmanEncode(b *testing.B) {
	for name, symbols := range entropyBlocks(b) {
		b.Run(name, func(b *testing.B) {
			dst, err := huffman.AppendEncode(nil, symbols, entropyAlphabet)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(8 * len(symbols)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if dst, err = huffman.AppendEncode(dst[:0], symbols, entropyAlphabet); err != nil {
					b.Fatal(err)
				}
			}
			reportPerElem(b, len(symbols))
			b.ReportMetric(8*float64(len(dst))/float64(len(symbols)), "bits/elem")
		})
	}
}

func BenchmarkHuffmanDecode(b *testing.B) {
	for name, symbols := range entropyBlocks(b) {
		b.Run(name, func(b *testing.B) {
			enc, err := huffman.AppendEncode(nil, symbols, entropyAlphabet)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]int, 0, len(symbols))
			b.SetBytes(int64(8 * len(symbols)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if buf, err = huffman.DecodeInto(enc, buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
			reportPerElem(b, len(symbols))
		})
	}
}

// solverStateBounds are the bounds the save path is priced at: the
// benchmark workload's, and the one the N′ levers need (ROADMAP item 4).
var solverStateBounds = []float64{1e-4, 1e-6}

func BenchmarkSZCompressSolverState(b *testing.B) {
	x := pcgIterate(b)
	for _, eb := range solverStateBounds {
		b.Run(fmt.Sprint(eb), func(b *testing.B) {
			var comp []byte
			var err error
			b.SetBytes(int64(8 * len(x)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if comp, err = sz.Compress(x, sz.Params{Mode: sz.PWRel, ErrorBound: eb}); err != nil {
					b.Fatal(err)
				}
			}
			reportPerElem(b, len(x))
			b.ReportMetric(8*float64(len(comp))/float64(len(x)), "bits/elem")
		})
	}
}

func BenchmarkSZDecompressSolverState(b *testing.B) {
	x := pcgIterate(b)
	for _, eb := range solverStateBounds {
		b.Run(fmt.Sprint(eb), func(b *testing.B) {
			comp, err := sz.Compress(x, sz.Params{Mode: sz.PWRel, ErrorBound: eb})
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]float64, len(x))
			b.SetBytes(int64(8 * len(x)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sz.DecompressInto(dst, comp); err != nil {
					b.Fatal(err)
				}
			}
			reportPerElem(b, len(x))
		})
	}
}

// BenchmarkCodecThroughput is the per-codec, per-core throughput
// matrix on the 1M-element solver state: one compress and one
// decompress sub-benchmark per codec (SZ PWRel/Abs, ZFP and flate, all
// through the one BLK1 blocked container), all pinned to a single
// worker so the MB/s column is per-core. The decompress side decodes into a reused target (the DecompressInto
// path the streaming restore is built on). Acceptance bands are
// asserted in-bench (skipped under the race detector, whose
// instrumentation distorts both time and allocation counts):
//
//   - SZ PWRel compress must run at least 2× faster than the 46.7 ms
//     1M-element baseline recorded when the blocked container first
//     landed (PR 1), i.e. ≤ 23.35 ms/op;
//   - the blocked ZFP/flate compressors must allocate O(block)
//     amortized — strictly less than the 8 MB raw payload per op —
//     proving the per-block scratch is pooled, not reallocated.
func BenchmarkCodecThroughput(b *testing.B) {
	x := solverState(1 << 20)
	rawBytes := float64(8 * len(x))
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	type codecCase struct {
		name     string
		compress func([]float64) ([]byte, error)
		decInto  func([]float64, []byte) error
		// maxCompressNs is the per-op compress time band (0 = none).
		maxCompressNs float64
		// blockedAlloc asserts the O(block) allocation band on compress.
		blockedAlloc bool
	}
	cases := []codecCase{
		{
			name: "sz-pwrel",
			compress: func(v []float64) ([]byte, error) {
				return sz.Compress(v, sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4})
			},
			decInto:       sz.DecompressInto,
			maxCompressNs: 23.35e6,
		},
		{
			name: "sz-abs",
			compress: func(v []float64) ([]byte, error) {
				return sz.Compress(v, sz.Params{Mode: sz.Abs, ErrorBound: 1e-4})
			},
			decInto: sz.DecompressInto,
		},
	}
	for _, bc := range []codec.BlockCodec{codec.BlockedZFP{Bound: 1e-4}, codec.BlockedFlate{}} {
		cases = append(cases, codecCase{
			name:         map[codec.ID]string{codec.ZFP: "zfp", codec.Flate: "flate"}[bc.ID()],
			compress:     func(v []float64) ([]byte, error) { return codec.Compress(nil, v, bc, nil) },
			decInto:      func(dst []float64, data []byte) error { return codec.DecompressInto(dst, data, bc) },
			blockedAlloc: true,
		})
	}

	for _, c := range cases {
		comp, err := c.compress(x)
		if err != nil {
			b.Fatalf("%s: %v", c.name, err)
		}
		dst := make([]float64, len(x))
		if err := c.decInto(dst, comp); err != nil {
			b.Fatalf("%s: decode: %v", c.name, err)
		}
		for i := range dst {
			if math.IsNaN(dst[i]) || math.IsInf(dst[i], 0) {
				b.Fatalf("%s: non-finite reconstruction at %d", c.name, i)
			}
		}
		b.Run(c.name+"/compress", func(b *testing.B) {
			b.SetBytes(int64(rawBytes))
			// Pause GC, then warm the shared scratch pools and count:
			// sync.Pool contents are dropped at every cycle, so a
			// collection after the warm-up (the one forced here used to
			// follow it, and ran twice when a background cycle was
			// already under way) or inside the loop would bill the pool
			// re-warm (big block buffers, DEFLATE writers) to whichever
			// op it landed on and drown the steady-state figure the
			// band is about.
			prevGC := debug.SetGCPercent(-1)
			defer debug.SetGCPercent(prevGC)
			runtime.GC()
			if _, err := c.compress(x); err != nil {
				b.Fatal(err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.compress(x); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			per := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(b.N)
			b.ReportMetric(per/1e6, "MB-alloc/op")
			if raceEnabled {
				return
			}
			if c.blockedAlloc && per >= rawBytes {
				b.Fatalf("%s compress allocated %.1f MB/op — the blocked container must stay under the %.1f MB raw payload (pooled per-block scratch)",
					c.name, per/1e6, rawBytes/1e6)
			}
			if c.maxCompressNs > 0 {
				if perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N); perOp > c.maxCompressNs {
					b.Fatalf("%s compress %.1f ms/op exceeds the %.1f ms acceptance band (2x the 46.7 ms PR-1 baseline)",
						c.name, perOp/1e6, c.maxCompressNs/1e6)
				}
			}
		})
		b.Run(c.name+"/decompress", func(b *testing.B) {
			b.SetBytes(int64(rawBytes))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.decInto(dst, comp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSZCompressParallel measures the blocked SZ pipeline on a
// 1M-element solver state, serial (one worker) versus the full worker
// pool. The error bound is verified once post-decompression so the
// timed path is known to produce valid output.
func BenchmarkSZCompressParallel(b *testing.B) {
	x := solverState(1 << 20)
	p := sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4}
	comp, err := sz.Compress(x, p)
	if err != nil {
		b.Fatal(err)
	}
	got, err := sz.Decompress(comp)
	if err != nil {
		b.Fatal(err)
	}
	for i := range x {
		if d := math.Abs(x[i] - got[i]); d > 1e-4*math.Abs(x[i])*(1+1e-10) {
			b.Fatalf("index %d: error bound violated: %g", i, d)
		}
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			prev := parallel.SetWorkers(bc.workers)
			defer parallel.SetWorkers(prev)
			b.SetBytes(int64(8 * len(x)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sz.Compress(x, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSZDecompressParallel is the decode side of the blocked
// container on the same 1M-element state.
func BenchmarkSZDecompressParallel(b *testing.B) {
	x := solverState(1 << 20)
	comp, err := sz.Compress(x, sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			prev := parallel.SetWorkers(bc.workers)
			defer parallel.SetWorkers(prev)
			b.SetBytes(int64(8 * len(x)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sz.Decompress(comp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCSRMulVecParallel measures SpMV on the paper's 100³ Poisson
// operator (1M rows, ~6.9M nonzeros), serial versus the worker pool.
func BenchmarkCSRMulVecParallel(b *testing.B) {
	a := sparse.Poisson3D(100)
	x := make([]float64, a.Cols)
	dst := make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i%17) + 0.25
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			prev := parallel.SetWorkers(bc.workers)
			defer parallel.SetWorkers(prev)
			b.SetBytes(int64(12 * a.NNZ()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.MulVec(dst, x)
			}
		})
	}
}

func BenchmarkSparseMatVec(b *testing.B) {
	a := sparse.Poisson3D(32) // 32,768 rows, ~223k nnz
	x := make([]float64, a.Rows)
	dst := make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i % 17)
	}
	b.SetBytes(int64(12 * a.NNZ()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(dst, x)
	}
}

func BenchmarkCGStep(b *testing.B) {
	a := sparse.Poisson3D(24)
	rhs := sparse.OnesRHS(a.Rows)
	s := solver.NewCG(a, nil, rhs, nil, solver.SeqSpace{}, solver.Options{RTol: 1e-300})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// ---- Preconditioned-CG kernels at the bench/ harness size --------------------
//
// 48³ Poisson is the cg-lossy-sync / cg-trad-sync-shard system. Bytes
// are computed from the matrix, not measured: a CSR entry is 16 B,
// a vector 8 B per element per pass.

const pcgGrid = 48

// factorBytes is the CSR-layout IC(0)/ILU(0) factor of a: the sub- and
// superdiagonal and the reciprocal diagonal as dense vectors, every
// other off-diagonal entry at 12 B, two int32 row-pointer arrays.
func factorBytes(a *sparse.CSR) int {
	n := a.Rows
	entries := 0
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if d := a.ColIdx[k] - i; d < -1 || d > 1 {
				entries++
			}
		}
	}
	return 12*entries + 3*8*n + 8*(n+1)
}

// lowerDiagonals is the number of diagonals a's declared stencil puts
// below the main one: the vectors precond's "diag3" factor holds
// beside dinv.
func lowerDiagonals(a *sparse.CSR) int {
	off, _, _ := a.Stencil()
	return slices.Index(off, 0)
}

// applyBytes is one M⁻¹·r on the path kernel names (IC0.Kernel; "csr"
// for BlockILU0): r read, dst written by the forward sweep, read and
// rewritten by the backward sweep, and the factor — once in the CSR
// layout, whose triangles are separate arrays, and in the diagonal
// layout the lower diagonals once per sweep and dinv once.
func applyBytes(a *sparse.CSR, kernel string) int {
	if kernel == "diag3" {
		return (2*lowerDiagonals(a) + 1 + 4) * 8 * a.Rows
	}
	return factorBytes(a) + 4*8*a.Rows
}

// setupBytes is one NewIC0: the CSR path reads the matrix and writes
// its factor; the diagonal path reads the 2 B/row presence mask, writes
// its vectors, and reads and rewrites dinv in a last pass.
func setupBytes(a *sparse.CSR, kernel string) int {
	if kernel == "diag3" {
		return (2 + (lowerDiagonals(a)+1+2)*8) * a.Rows
	}
	return csrBytes(a) + factorBytes(a)
}

func csrBytes(a *sparse.CSR) int { return 16*a.NNZ() + 8*(a.Rows+1) }

func reportPerRow(b *testing.B, rows, bytesPerOp int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
	b.ReportMetric(float64(bytesPerOp), "computed-B/op")
}

func benchApply(b *testing.B, a *sparse.CSR, m precond.Interface, kernel string) {
	r := solverState(a.Rows)
	dst := make([]float64, a.Rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Apply(dst, r)
	}
	reportPerRow(b, a.Rows, applyBytes(a, kernel))
}

// csrTwin is a without its stencil summary (Serialize does not write
// one): NewIC0 of it is the CSR-layout factor of the same matrix.
func csrTwin(b *testing.B, a *sparse.CSR) *sparse.CSR {
	twin, err := sparse.Deserialize(a.Serialize())
	if err != nil {
		b.Fatal(err)
	}
	return twin
}

// runIC0Paths runs body on the generated 48³ matrix, as the
// sub-benchmark named after the path NewIC0 takes on it ("diag3" where
// the generator declares a stencil), and as "csr" on its twin.
func runIC0Paths(b *testing.B, body func(b *testing.B, a *sparse.CSR)) {
	a := sparse.Poisson3D(pcgGrid)
	m, err := precond.NewIC0(a)
	if err != nil {
		b.Fatal(err)
	}
	if m.Kernel() != "csr" {
		b.Run(m.Kernel(), func(b *testing.B) { body(b, a) })
	}
	twin := csrTwin(b, a)
	b.Run("csr", func(b *testing.B) { body(b, twin) })
}

func BenchmarkIC0Apply(b *testing.B) {
	runIC0Paths(b, func(b *testing.B, a *sparse.CSR) {
		m, err := precond.NewIC0(a)
		if err != nil {
			b.Fatal(err)
		}
		benchApply(b, a, m, m.Kernel())
	})
}

func BenchmarkILU0Apply(b *testing.B) {
	a := sparse.Poisson3D(pcgGrid)
	m, err := precond.NewBlockILU0(a, 1)
	if err != nil {
		b.Fatal(err)
	}
	benchApply(b, a, m, "csr")
}

func BenchmarkIC0Setup(b *testing.B) {
	runIC0Paths(b, func(b *testing.B, a *sparse.CSR) {
		var m *precond.IC0
		var err error
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if m, err = precond.NewIC0(a); err != nil {
				b.Fatal(err)
			}
		}
		reportPerRow(b, a.Rows, setupBytes(a, m.Kernel()))
	})
}

// BenchmarkPCGStep is one IC(0)-preconditioned CG iteration on the
// SeqSpace path. The solver restarts from zero every 40 steps, off the
// clock, so every timed step is a pre-convergence step (the solve
// takes 44 to rtol 1e-7).
func BenchmarkPCGStep(b *testing.B) {
	a := sparse.Poisson3D(pcgGrid)
	m, err := precond.NewIC0(a)
	if err != nil {
		b.Fatal(err)
	}
	n := a.Rows
	s := solver.NewCG(a, m, sparse.OnesRHS(n), nil, solver.SeqSpace{}, solver.Options{RTol: 1e-300})
	x0 := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%40 == 0 && i > 0 {
			b.StopTimer()
			s.Restart(x0)
			b.StartTimer()
		}
		s.Step()
	}
	// SpMV (matrix, p read, q written), Apply, and the BLAS-1 passes:
	// p·q, the x/r update (4 reads, 2 writes), r·z with ‖r‖, p ← z+βp.
	reportPerRow(b, n, csrBytes(a)+2*8*n+applyBytes(a, m.Kernel())+(2+6+2+3)*8*n)
}

// ---- Jacobi and GMRES kernels at the bench/ harness sizes --------------------
//
// 32³ is the jacobi-lossless-failstorm system, 36³ the
// gmres-lossy-async one, 48³ the CG workloads' (whose Restart and
// RestoreDynamic go through the same row kernel). Bytes are computed as
// above; x is counted once per multiply although it is gathered.

// BenchmarkCSRMulVecSub is the residual kernel b − A·x, serial, so the
// number is the kernel's and not the worker pool's: on the generated
// matrix (the stencil kernel where the machine has one) and on the same
// arrays hand-assembled, which carry no summary and take the row kernel
// on every row. Bytes are the CSR-equivalent ones on both.
func BenchmarkCSRMulVecSub(b *testing.B) {
	for _, grid := range []int{32, 36, pcgGrid} {
		gen := sparse.Poisson3D(grid)
		rows := &sparse.CSR{Rows: gen.Rows, Cols: gen.Cols, RowPtr: gen.RowPtr, ColIdx: gen.ColIdx, Val: gen.Val}
		n := gen.Rows
		x, rhs, dst := solverState(n), sparse.OnesRHS(n), make([]float64, n)
		for _, a := range []*sparse.CSR{rows, gen} {
			b.Run(fmt.Sprintf("%d/%s", grid, a.Kernel()), func(b *testing.B) {
				prev := parallel.SetWorkers(1)
				defer parallel.SetWorkers(prev)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a.MulVecSub(dst, rhs, x)
				}
				reportPerRow(b, n, csrBytes(a)+3*8*n)
			})
		}
	}
}

// BenchmarkGMRESStep is one unpreconditioned GMRES(30) step on the
// SeqSpace path. A step's cost grows with its index j in the cycle
// (j+1 projections), so b.N should be a multiple of 30 for ns/op to be
// the cycle mean that the computed bytes describe: SpMV (matrix, v_j
// read, t written), the identity preconditioner's copy, one Dot, j
// fused projections (w, v_i, v_i+1 read, w written), the last
// projection, ‖w‖ in two passes, the normalisation, and a thirtieth of
// the cycle's 30 correction axpys.
func BenchmarkGMRESStep(b *testing.B) {
	a := sparse.Poisson3D(36)
	n := a.Rows
	s := solver.NewGMRES(a, nil, sparse.OnesRHS(n), nil, 30, solver.SeqSpace{}, solver.Options{RTol: 1e-300})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	const meanJ = 14.5
	reportPerRow(b, n, csrBytes(a)+int((2+2+2+4*meanJ+3+2+2+3)*8*float64(n)))
}

// BenchmarkJacobiSweep is one Jacobi step: the update x += D⁻¹·r (x
// read and written, r and D⁻¹ read), the residual kernel and ‖r‖ in
// two passes.
func BenchmarkJacobiSweep(b *testing.B) {
	a := sparse.Poisson3D(32)
	n := a.Rows
	s, err := solver.NewStationary(solver.KindJacobi, a, sparse.OnesRHS(n), nil, 0, solver.Options{RTol: 1e-300})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
	reportPerRow(b, n, csrBytes(a)+(4+3+2)*8*n)
}

// ---- BLAS-1 kernels, Go loops against the AVX2 bodies ------------------------
//
// The same streams through both paths of internal/vec at the GMRES
// (36³) and CG (48³) harness sizes. GB/s is computed from the passes a
// kernel makes: 8 B per element read or written.

var vecSink float64

// BenchmarkVecKernels is one call of each kernel the Krylov steps spend
// their BLAS-1 time in.
func BenchmarkVecKernels(b *testing.B) {
	const a = 1e-9 // keeps the in-place updates O(1) at any b.N
	kernels := []struct {
		name   string
		passes int // vectors read plus vectors written
		run    func(x, y, z, w []float64)
	}{
		{"dot", 2, func(x, y, _, _ []float64) { vecSink = vec.Dot(x, y) }},
		{"norm2", 2, func(x, _, _, _ []float64) { vecSink = vec.Norm2(x) }}, // max|x_i|, then the scaled squares
		{"axpy", 3, func(x, y, _, _ []float64) { vec.Axpy(a, x, y) }},
		{"axpydot", 4, func(x, y, z, _ []float64) { vecSink = vec.AxpyDot(a, x, y, z) }},
		{"dotnorm2", 2, func(x, y, _, _ []float64) { vecSink, _ = vec.DotNorm2(x, y, 4) }},
		{"axpypair", 6, func(x, y, z, w []float64) { vecSink = vec.AxpyPairNormInf(a, x, y, z, w) }},
	}
	for _, grid := range []int{36, pcgGrid} {
		n := grid * grid * grid
		x, y, z, w := solverState(n), solverState(n), solverState(n), solverState(n)
		for _, k := range kernels {
			b.Run(fmt.Sprintf("%s/%d", k.name, grid), func(b *testing.B) {
				runGoAndAsm(b, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						k.run(x, y, z, w)
					}
					reportPerElem(b, n)
					b.ReportMetric(float64(8*k.passes*n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GB/s")
				})
			})
		}
	}
}

// BenchmarkMGSProjection is the Gram–Schmidt loop of GMRES(30)'s step
// j = 16 on its own: 16 fused projections w ← w − h·v_i, h ← w·v_i+1
// over a 31-vector 36³ basis (11.6 MB, so as in the solver the basis
// does not stay in cache from one step to the next).
func BenchmarkMGSProjection(b *testing.B) {
	const n = 36 * 36 * 36
	w := solverState(n)
	v := make([][]float64, 31)
	for i := range v {
		v[i] = solverState(n)
	}
	runGoAndAsm(b, func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			basis := v[i%2*14:]
			h := 1.0
			for j := 0; j < 16; j++ {
				h = vec.AxpyDot(-1e-9*h, basis[j], w, basis[j+1])
			}
			vecSink = h
		}
		reportPerElem(b, 16*n)
		b.ReportMetric(float64(16*4*8*n)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GB/s")
	})
}

func BenchmarkCheckpointLossy(b *testing.B) {
	x := solverState(1 << 18)
	ck := fti.New(fti.NewMemStorage(), fti.SZ{Params: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4}})
	ck.Protect("x", &x)
	b.SetBytes(int64(8 * len(x)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ck.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointStall measures the solver-visible stall of one
// checkpoint on the 1M-element PWRel workload: the full encode+write
// in sync mode versus the capture copy alone in async mode (the
// background encode+write runs between iterations and is drained
// outside the timed region, as it would overlap solver work). The
// async/sync ns/op ratio is the pipeline's critical-path win.
func BenchmarkCheckpointStall(b *testing.B) {
	x := solverState(1 << 20)
	params := sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4}
	snap := func(i int) *fti.Snapshot {
		return &fti.Snapshot{Iteration: i, Vectors: map[string][]float64{"x": x}}
	}
	b.Run("sync", func(b *testing.B) {
		ck := fti.New(fti.NewMemStorage(), fti.SZ{Params: params})
		b.SetBytes(int64(8 * len(x)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ck.Save(snap(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("async", func(b *testing.B) {
		ac := fti.NewAsync(fti.New(fti.NewMemStorage(), fti.SZ{Params: params}))
		b.SetBytes(int64(8 * len(x)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ac.SaveAsync(snap(i)); err != nil {
				b.Fatal(err)
			}
			// Solver iterations would run here; the drain stands in for
			// them and stays outside the timed stall.
			b.StopTimer()
			if _, err := ac.Flush(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}

// BenchmarkShardedWrite compares the storage stage of a checkpoint on
// the 1M-element PWRel workload: a monolithic single-object write
// versus the sharded manifest+shard layout (Shards=8, StorageWorkers=4,
// the ISSUE acceptance configuration). Storage is a real directory
// (DirStorage fsyncs before its atomic rename), so the sharded
// sub-benchmark measures genuinely concurrent file writes — on
// multicore CI the fan-out should meet or beat the monolithic write;
// on a 1-CPU container the two should tie. The encode cost is
// identical across sub-benchmarks, so the ns/op difference is the
// write stage alone.
func BenchmarkShardedWrite(b *testing.B) {
	x := solverState(1 << 20)
	params := sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4}
	run := func(b *testing.B, shards, workers int) {
		ck := fti.New(mustDirStorage(b), fti.SZ{Params: params})
		if err := ck.SetSharding(shards, workers); err != nil {
			b.Fatal(err)
		}
		if err := ck.SetKeep(1); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(8 * len(x)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ck.Save(&fti.Snapshot{Iteration: i, Vectors: map[string][]float64{"x": x}}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("monolithic", func(b *testing.B) { run(b, 1, 0) })
	b.Run("shards=8,workers=4", func(b *testing.B) { run(b, 8, 4) })
}

// BenchmarkRecoverStall measures the restart path on the 1M-element
// PWRel workload stored as 8 shards (4 storage workers) in a real
// directory store: the streaming shard-parallel restore (RestoreInto:
// per-shard read/CRC32C/block-decode straight into reusable targets).
// The allocation assertion enforces the zero-copy claim: a restore must
// allocate less than the raw payload (no reassembly buffer, no fresh
// output vectors).
func BenchmarkRecoverStall(b *testing.B) {
	x := solverState(1 << 20)
	rawBytes := float64(8 * len(x))
	params := sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4}
	ck := fti.New(mustDirStorage(b), fti.SZ{Params: params})
	if err := ck.SetSharding(8, 4); err != nil {
		b.Fatal(err)
	}
	if _, err := ck.Save(&fti.Snapshot{Iteration: 1, Vectors: map[string][]float64{"x": x}}); err != nil {
		b.Fatal(err)
	}
	b.Run("streaming", func(b *testing.B) {
		targets := map[string][]float64{"x": make([]float64, len(x))}
		b.SetBytes(int64(rawBytes))
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ck.RestoreInto(targets); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		// Heap bytes per op across all goroutines (the parallel decode
		// workers included).
		per := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(b.N)
		b.ReportMetric(per/1e6, "MB-alloc/op")
		// O(shard) transient memory: shard chunks (≈ encoded bytes,
		// released as they decode) plus skeleton bookkeeping — never
		// the raw payload, never a reassembly buffer. (Race builds
		// inflate allocation counts; the bound only holds unraced.)
		if !raceEnabled && per >= rawBytes {
			b.Fatalf("streaming restore allocated %.1f MB/op — expected less than the %.1f MB raw payload",
				per/1e6, rawBytes/1e6)
		}
	})
}

// BenchmarkObsOverhead bounds the cost of the observability layer on
// the checkpoint hot path: the 1M-element PWRel sync save is timed
// with instrumentation disabled (nil registry and tracer — every hook
// a no-op) and with a live registry+tracer attached, and the band
// sub-benchmark asserts the interleaved medians agree within 2%. The
// disabled/instrumented sub-benchmarks report the two ns/op figures;
// the A/B trials interleave so machine drift cancels. Race builds
// skip the assertion (the detector inflates the instrumented atomics
// far past anything a production build sees).
func BenchmarkObsOverhead(b *testing.B) {
	x := solverState(1 << 20)
	params := sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4}
	newCk := func(instrument bool) *fti.Checkpointer {
		ck := fti.New(fti.NewMemStorage(), fti.SZ{Params: params})
		if err := ck.SetKeep(1); err != nil {
			b.Fatal(err)
		}
		if instrument {
			ck.Instrument(obs.New(), obs.NewTracer())
		}
		return ck
	}
	save := func(ck *fti.Checkpointer, i int) float64 {
		start := time.Now()
		if _, err := ck.Save(&fti.Snapshot{Iteration: i, Vectors: map[string][]float64{"x": x}}); err != nil {
			b.Fatal(err)
		}
		return time.Since(start).Seconds()
	}
	b.Run("disabled", func(b *testing.B) {
		ck := newCk(false)
		b.SetBytes(int64(8 * len(x)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			save(ck, i)
		}
	})
	b.Run("instrumented", func(b *testing.B) {
		ck := newCk(true)
		b.SetBytes(int64(8 * len(x)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			save(ck, i)
		}
	})
	b.Run("band", func(b *testing.B) {
		const trials = 9
		plain, inst := newCk(false), newCk(true)
		save(plain, 0) // warm both paths (pool spin-up, buffer growth)
		save(inst, 0)
		plainT := make([]float64, 0, trials)
		instT := make([]float64, 0, trials)
		for t := 1; t <= trials; t++ {
			plainT = append(plainT, save(plain, t))
			instT = append(instT, save(inst, t))
		}
		sort.Float64s(plainT)
		sort.Float64s(instT)
		ratio := instT[trials/2] / plainT[trials/2]
		b.ReportMetric(100*(ratio-1), "overhead-%")
		if !raceEnabled && ratio > 1.02 {
			b.Fatalf("instrumented save median %.2f ms vs disabled %.2f ms: %.2f%% overhead exceeds the 2%% band",
				1e3*instT[trials/2], 1e3*plainT[trials/2], 100*(ratio-1))
		}
	})
}

// BenchmarkQualityTelemetry bounds the cost of the numerical-telemetry
// audit on the checkpoint hot path: the 1M-element PWRel sync save is
// timed uninstrumented and with a sampled (every-4th) audit attached
// — the production default, riding the encoder's own encode-path
// accumulators — and the band sub-benchmark asserts the interleaved
// medians agree within 2%. The exhaustive sub-benchmark additionally
// decode-verifies every save; its ratio is reported as a metric but
// not gated (a full audit decode per save is priced, not promised).
// Race builds skip the band (the detector inflates the audited path).
func BenchmarkQualityTelemetry(b *testing.B) {
	x := solverState(1 << 20)
	params := sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4}
	newCk := func(qa *quality.Auditor) *fti.Checkpointer {
		ck := fti.New(fti.NewMemStorage(), fti.SZ{Params: params})
		if err := ck.SetKeep(1); err != nil {
			b.Fatal(err)
		}
		ck.SetSaveAudit(qa) // nil leaves the hook a no-op
		return ck
	}
	newAuditor := func(exhaustive bool) *quality.Auditor {
		qa := quality.New(quality.Config{Exhaustive: exhaustive})
		qa.Instrument(obs.New(), nil)
		return qa
	}
	save := func(ck *fti.Checkpointer, i int) float64 {
		start := time.Now()
		if _, err := ck.Save(&fti.Snapshot{Iteration: i, Vectors: map[string][]float64{"x": x}}); err != nil {
			b.Fatal(err)
		}
		return time.Since(start).Seconds()
	}
	b.Run("disabled", func(b *testing.B) {
		ck := newCk(nil)
		b.SetBytes(int64(8 * len(x)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			save(ck, i)
		}
	})
	b.Run("sampled", func(b *testing.B) {
		ck := newCk(newAuditor(false))
		b.SetBytes(int64(8 * len(x)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			save(ck, i)
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		ck := newCk(newAuditor(true))
		b.SetBytes(int64(8 * len(x)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			save(ck, i)
		}
	})
	b.Run("band", func(b *testing.B) {
		const trials = 9
		plain, sampled, exhaustive := newCk(nil), newCk(newAuditor(false)), newCk(newAuditor(true))
		save(plain, 0) // warm all paths (pool spin-up, buffer growth)
		save(sampled, 0)
		save(exhaustive, 0)
		plainT := make([]float64, 0, trials)
		sampledT := make([]float64, 0, trials)
		exhaustT := make([]float64, 0, trials)
		for t := 1; t <= trials; t++ {
			plainT = append(plainT, save(plain, t))
			sampledT = append(sampledT, save(sampled, t))
			exhaustT = append(exhaustT, save(exhaustive, t))
		}
		sort.Float64s(plainT)
		sort.Float64s(sampledT)
		sort.Float64s(exhaustT)
		ratio := sampledT[trials/2] / plainT[trials/2]
		b.ReportMetric(100*(ratio-1), "sampled-overhead-%")
		b.ReportMetric(100*(exhaustT[trials/2]/plainT[trials/2]-1), "exhaustive-overhead-%")
		if !raceEnabled && ratio > 1.02 {
			b.Fatalf("sampled audit median %.2f ms vs disabled %.2f ms: %.2f%% overhead exceeds the 2%% band",
				1e3*sampledT[trials/2], 1e3*plainT[trials/2], 100*(ratio-1))
		}
	})
}

func mustDirStorage(b *testing.B) *fti.DirStorage {
	b.Helper()
	ds, err := fti.NewDirStorage(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func BenchmarkCheckpointTraditional(b *testing.B) {
	x := solverState(1 << 18)
	ck := fti.New(fti.NewMemStorage(), fti.Raw{})
	ck.Protect("x", &x)
	b.SetBytes(int64(8 * len(x)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ck.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactSaveRestore is the exact checkpoint path of
// cg-trad-sync-shard in isolation: CG on the 48³ system, x and p (1.77
// MB) stored raw in 8 shards by 2 workers on a real directory, through
// Manager.Checkpoint and Manager.Recover (which ends in CG's r = b − A·x).
// ns/op, B/op and allocs/op of each are the README's "Checkpoint path"
// rows; the fsyncs are in ns/op and vary with the disk, the bytes and
// objects allocated do not.
func BenchmarkExactSaveRestore(b *testing.B) {
	a := sparse.Poisson3D(pcgGrid)
	s := solver.NewCG(a, nil, sparse.OnesRHS(a.Rows), nil, solver.SeqSpace{}, solver.Options{})
	m, err := core.NewManager(core.Config{Scheme: core.Traditional, Shards: 8, StorageWorkers: 2}, mustDirStorage(b), s)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Step()
	}
	if _, err := m.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(2 * 8 * a.Rows))
		for i := 0; i < b.N; i++ {
			if _, err := m.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(2 * 8 * a.Rows))
		for i := 0; i < b.N; i++ {
			if _, err := m.Recover(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Ablation benchmarks (DESIGN.md §5) --------------------------------------

// BenchmarkAblationCGRestart compares the paper's restarted lossy
// recovery for CG (Algorithm 2) against naively restoring lossy
// (x, p, ρ) without a restart — the design choice §4.2 motivates with
// the broken-orthogonality argument. The reported metrics are the
// extra iterations per recovery for both strategies.
func BenchmarkAblationCGRestart(b *testing.B) {
	a := sparse.Poisson3D(12)
	rhs := sparse.OnesRHS(a.Rows)
	const rtol = 1e-9
	newCG := func() *solver.CG {
		return solver.NewCG(a, nil, rhs, nil, solver.SeqSpace{}, solver.Options{RTol: rtol})
	}
	base, err := solver.RunToConvergence(newCG(), solver.Options{MaxIter: 100000}, nil)
	if err != nil || !base.Converged {
		b.Fatalf("baseline: %v", err)
	}
	lossyVec := func(v []float64) []float64 {
		comp, err := sz.Compress(v, sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4})
		if err != nil {
			b.Fatal(err)
		}
		out, err := sz.Decompress(comp)
		if err != nil {
			b.Fatal(err)
		}
		return out
	}
	var restarted, naive float64
	for i := 0; i < b.N; i++ {
		t := base.Iterations / 2
		// Restarted recovery (the paper's scheme).
		s1 := newCG()
		for j := 0; j < t; j++ {
			s1.Step()
		}
		s1.Restart(lossyVec(s1.X()))
		r1, _ := solver.RunToConvergence(s1, solver.Options{MaxIter: 400000}, nil)
		restarted += float64(r1.Iterations - base.Iterations)

		// Naive recovery: lossy (x, p, ρ) without restart.
		s2 := newCG()
		for j := 0; j < t; j++ {
			s2.Step()
		}
		st := s2.DynamicView().Clone()
		st.Vectors["x"] = lossyVec(st.Vectors["x"])
		st.Vectors["p"] = lossyVec(st.Vectors["p"])
		if err := s2.RestoreDynamic(st); err != nil {
			b.Fatal(err)
		}
		r2, _ := solver.RunToConvergence(s2, solver.Options{MaxIter: 400000}, nil)
		naive += float64(r2.Iterations - base.Iterations)
	}
	b.ReportMetric(restarted/float64(b.N), "extra-its-restarted")
	b.ReportMetric(naive/float64(b.N), "extra-its-naive")
}

// BenchmarkAblationBoundModes reports the compression ratio of the
// three error-bound modes on the same solver state at eb = 1e-4.
func BenchmarkAblationBoundModes(b *testing.B) {
	x := solverState(1 << 19)
	modes := []struct {
		name string
		mode sz.Mode
	}{{"abs", sz.Abs}, {"relrange", sz.RelRange}, {"pwrel", sz.PWRel}}
	for i := 0; i < b.N; i++ {
		for _, m := range modes {
			comp, err := sz.Compress(x, sz.Params{Mode: m.mode, ErrorBound: 1e-4})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(ratio(len(x), comp), "ratio-"+m.name)
		}
	}
}

// BenchmarkAblationAdaptiveGMRESBound compares Theorem 3's adaptive
// bound against a fixed loose bound: extra iterations per recovery.
func BenchmarkAblationAdaptiveGMRESBound(b *testing.B) {
	a := sparse.Poisson3D(12)
	rhs := sparse.OnesRHS(a.Rows)
	bnorm := solver.SeqSpace{}.Norm2(rhs)
	const rtol = 1e-9
	newG := func() *solver.GMRES {
		return solver.NewGMRES(a, nil, rhs, nil, 10, solver.SeqSpace{}, solver.Options{RTol: rtol})
	}
	base, err := solver.RunToConvergence(newG(), solver.Options{MaxIter: 100000}, nil)
	if err != nil || !base.Converged {
		b.Fatalf("baseline: %v", err)
	}
	recoverWith := func(eb float64) int {
		s := newG()
		for j := 0; j < base.Iterations/2; j++ {
			s.Step()
		}
		comp, err := sz.Compress(s.CurrentX(), sz.Params{Mode: sz.PWRel, ErrorBound: eb})
		if err != nil {
			b.Fatal(err)
		}
		x, err := sz.Decompress(comp)
		if err != nil {
			b.Fatal(err)
		}
		s.Restart(x)
		r, _ := solver.RunToConvergence(s, solver.Options{MaxIter: 400000}, nil)
		return r.Iterations - base.Iterations
	}
	var adaptive, fixed float64
	for i := 0; i < b.N; i++ {
		s := newG()
		for j := 0; j < base.Iterations/2; j++ {
			s.Step()
		}
		ebAdaptive := model.GMRESAdaptiveBound(s.ResidualNorm(), bnorm, 1)
		adaptive += float64(recoverWith(ebAdaptive))
		fixed += float64(recoverWith(0.2)) // loose fixed bound
	}
	b.ReportMetric(adaptive/float64(b.N), "extra-its-adaptive")
	b.ReportMetric(fixed/float64(b.N), "extra-its-fixed0.2")
}

// BenchmarkAblationCompressorChoice reports ratio for SZ vs ZFP vs
// Gzip on identical solver state (the paper's §5.1 compressor choice).
func BenchmarkAblationCompressorChoice(b *testing.B) {
	x := solverState(1 << 19)
	for i := 0; i < b.N; i++ {
		szc, err := sz.Compress(x, sz.Params{Mode: sz.Abs, ErrorBound: 1e-4})
		if err != nil {
			b.Fatal(err)
		}
		zc, err := zfp.Compress(x, 1e-4)
		if err != nil {
			b.Fatal(err)
		}
		fc, err := (lossless.Flate{}).Compress(x)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ratio(len(x), szc), "ratio-sz")
		b.ReportMetric(ratio(len(x), zc), "ratio-zfp")
		b.ReportMetric(ratio(len(x), fc), "ratio-gzip")
	}
}

// BenchmarkAblationIntervalSensitivity measures the simulated FT
// overhead of lossy-checkpointed Jacobi at the Young-optimal interval
// and at half/double that interval.
func BenchmarkAblationIntervalSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, mult := range []float64{0.5, 1, 2} {
			pct, err := intervalOverheadPct(mult)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(pct, fmt.Sprintf("overhead%%-x%g", mult))
		}
	}
}

func intervalOverheadPct(mult float64) (float64, error) {
	a := sparse.Poisson3D(10)
	rhs := sparse.OnesRHS(a.Rows)
	s, err := solver.NewStationary(solver.KindJacobi, a, rhs, nil, 0, solver.Options{RTol: 1e-4})
	if err != nil {
		return 0, err
	}
	baseRes, err := solver.RunToConvergence(s, solver.Options{MaxIter: 200000}, nil)
	if err != nil || !baseRes.Converged {
		return 0, fmt.Errorf("baseline failed")
	}
	tit := 3000.0 / float64(baseRes.Iterations)
	const ckptCost = 25.0
	interval := mult * model.YoungInterval(3600, ckptCost)

	s2, err := solver.NewStationary(solver.KindJacobi, a, rhs, nil, 0, solver.Options{RTol: 1e-4})
	if err != nil {
		return 0, err
	}
	mgr, err := core.NewManager(core.Config{
		Scheme:   core.Lossy,
		SZParams: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4},
	}, fti.NewMemStorage(), s2)
	if err != nil {
		return 0, err
	}
	out, err := simRunJacobi(s2, mgr, a.Rows, tit, interval, ckptCost)
	if err != nil {
		return 0, err
	}
	return 100 * (out - 3000) / 3000, nil
}

// BenchmarkAdaptiveInterval runs the deterministic fixed-vs-adaptive
// sweep (the `adapt` experiment: shared failure traces, steady and
// ratio-drift cost regimes) and reports the simulated wall-clocks as
// metrics — the CI artifact tracking the controller's quality. The
// acceptance bands are asserted in-bench: adaptive within 10% of the
// best fixed interval under steady costs (the sim package's 12-seed
// test enforces the strict 5%), and strictly better than the stale
// probe-derived Young interval once the compression ratio drifts.
func BenchmarkAdaptiveInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run("adapt", experiments.Config{Quick: true, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		r := res.(*experiments.AdaptResult)
		steady, drift := r.Scenario("steady"), r.Scenario("ratio-drift")
		if steady == nil || drift == nil {
			b.Fatal("sweep scenarios missing")
		}
		b.ReportMetric(steady.AdaptiveSecs, "steady-adaptive-sim-s")
		b.ReportMetric(steady.BestSeconds, "steady-best-fixed-sim-s")
		b.ReportMetric(drift.AdaptiveSecs, "drift-adaptive-sim-s")
		b.ReportMetric(drift.ProbeSeconds, "drift-probe-fixed-sim-s")
		if steady.AdaptiveSecs > 1.10*steady.BestSeconds {
			b.Fatalf("adaptive %.1f s exceeds 1.10× best fixed %.1f s (steady)",
				steady.AdaptiveSecs, steady.BestSeconds)
		}
		if drift.AdaptiveSecs >= drift.ProbeSeconds {
			b.Fatalf("adaptive %.1f s does not beat the stale probe interval's %.1f s (drift)",
				drift.AdaptiveSecs, drift.ProbeSeconds)
		}
	}
}

// abftRig is one guarded lossy-checkpointed CG over the 1M-unknown
// Poisson operator, advanced a few retained iterations with committed
// checkpoints — the state every BenchmarkABFTRecovery sub-benchmark
// injects failures into.
type abftRig struct {
	st *fti.MemStorage
	cg *solver.CG
	g  *abft.Guard
	m  *core.Manager
	x0 []float64
}

func newABFTRig(b *testing.B, a *sparse.CSR, rhs []float64) *abftRig {
	b.Helper()
	cg := solver.NewCG(a, precond.NewJacobiFromMatrix(a), rhs, nil, solver.SeqSpace{},
		solver.Options{RTol: 1e-8})
	g, err := abft.NewGuard(a, rhs, cg, abft.Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	st := fti.NewMemStorage()
	m, err := core.NewManager(core.Config{
		Scheme:   core.Lossy,
		SZParams: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4},
		ABFT:     g,
	}, st, cg)
	if err != nil {
		b.Fatal(err)
	}
	r := &abftRig{st: st, cg: cg, g: g, m: m, x0: make([]float64, a.Rows)}
	// Two committed checkpoints (keep=2) with retained redundancy at the
	// head: every tier of the chain has something to offer.
	for i := 0; i < 4; i++ {
		cg.Step()
		g.Observe()
	}
	if _, err := m.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		cg.Step()
		g.Observe()
	}
	if _, err := m.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	return r
}

// corruptStoredCheckpoints flips a byte in every stored checkpoint
// object so the whole checkpoint chain fails its CRCs.
func (r *abftRig) corruptStoredCheckpoints(b *testing.B) {
	b.Helper()
	names, err := r.st.List()
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range names {
		if !strings.HasPrefix(name, "ckpt-") {
			continue
		}
		data, err := r.st.Read(name)
		if err != nil {
			b.Fatal(err)
		}
		mut := append([]byte(nil), data...)
		mut[len(mut)/2] ^= 0xFF
		if err := r.st.Write(name, mut); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkABFTRecovery times one full RecoverTiered chain on the
// 1M-element PWRel workload (Poisson 100³, Jacobi-preconditioned CG),
// one sub-benchmark per recovery tier. Each iteration re-arms the
// failure outside the timer — seeded rank loss for the ABFT tier, plus
// retained-state corruption to force the checkpoint tiers, a corrupted
// latest manifest for the previous-checkpoint tier, and a fully
// corrupted store for restart-zero — then times the chain end to end.
// The acceptance bands are asserted in-bench: every sub-benchmark must
// recover via exactly its expected tier, the ABFT tier must read zero
// bytes from the PFS (its cost is local-solve iterations, reported as
// the local-iters metric), the checkpoint tiers must pay PFS reads,
// and the recovered solver's residual stays finite throughout.
func BenchmarkABFTRecovery(b *testing.B) {
	a := sparse.Poisson3D(100)
	rhs := sparse.OnesRHS(a.Rows)

	checkResidual := func(b *testing.B, r *abftRig) {
		if rn := r.cg.ResidualNorm(); math.IsNaN(rn) || math.IsInf(rn, 0) {
			b.Fatalf("post-recovery residual %v", rn)
		}
	}

	b.Run("abft", func(b *testing.B) {
		r := newABFTRig(b, a, rhs)
		var localIters float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r.g.FailNextRank()
			b.StartTimer()
			rep, err := r.m.RecoverTiered(r.x0)
			if err != nil {
				b.Fatal(err)
			}
			if rep.Used != core.TierABFT || len(rep.Attempts) != 1 {
				b.Fatalf("used %v with %d attempts, want the abft tier alone", rep.Used, len(rep.Attempts))
			}
			if rep.ReadBytes() != 0 {
				b.Fatalf("abft recovery read %d bytes from the PFS, want 0", rep.ReadBytes())
			}
			if rep.Attempts[0].Iterations <= 0 {
				b.Fatal("exact-state reconstruction reported no local-solve iterations")
			}
			localIters += float64(rep.Attempts[0].Iterations)
			checkResidual(b, r)
		}
		b.ReportMetric(localIters/float64(b.N), "local-iters")
	})

	b.Run("checkpoint", func(b *testing.B) {
		r := newABFTRig(b, a, rhs)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r.g.CorruptRetained()
			r.g.FailNextRank()
			b.StartTimer()
			rep, err := r.m.RecoverTiered(r.x0)
			if err != nil {
				b.Fatal(err)
			}
			if rep.Used != core.TierCheckpoint {
				b.Fatalf("used %v, want the latest-checkpoint tier; attempts %+v", rep.Used, rep.Attempts)
			}
			if a0 := rep.Attempts[0]; a0.Tier != core.TierABFT || a0.Accepted {
				b.Fatalf("first attempt %+v, want a rejected abft try", a0)
			}
			if rep.ReadBytes() == 0 {
				b.Fatal("checkpoint recovery paid no PFS reads")
			}
			checkResidual(b, r)
		}
	})

	b.Run("previous-checkpoint", func(b *testing.B) {
		r := newABFTRig(b, a, rhs)
		if _, err := failure.CorruptLatestManifest(r.st); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r.g.CorruptRetained()
			r.g.FailNextRank()
			b.StartTimer()
			rep, err := r.m.RecoverTiered(r.x0)
			if err != nil {
				b.Fatal(err)
			}
			if rep.Used != core.TierPreviousCheckpoint {
				b.Fatalf("used %v, want the previous-checkpoint tier; attempts %+v", rep.Used, rep.Attempts)
			}
			if rep.ReadBytes() == 0 {
				b.Fatal("previous-checkpoint recovery paid no PFS reads")
			}
			checkResidual(b, r)
		}
	})

	b.Run("restart-zero", func(b *testing.B) {
		r := newABFTRig(b, a, rhs)
		r.corruptStoredCheckpoints(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			r.g.CorruptRetained()
			r.g.FailNextRank()
			b.StartTimer()
			rep, err := r.m.RecoverTiered(r.x0)
			if err != nil {
				b.Fatal(err)
			}
			if rep.Used != core.TierRestartZero {
				b.Fatalf("used %v, want restart-zero; attempts %+v", rep.Used, rep.Attempts)
			}
			if rep.Iteration != 0 {
				b.Fatalf("restart-zero left the solver at iteration %d", rep.Iteration)
			}
			checkResidual(b, r)
		}
	})
}

// BenchmarkStorageFaults bounds the cost of the fault-tolerant
// storage layer (PR 9). The fault-free band asserts the retry wrapper
// adds under 2% to a 1M-element sync save — it is a thin
// classify-and-dispatch shim when nothing fails — using the same
// interleaved-median A/B protocol as BenchmarkObsOverhead. The
// campaign sub-benchmark then drives a sharded checkpointer through a
// 1% transient-fault storage and asserts every save still commits:
// the retry layer absorbs the campaign with bounded extra work.
// Backoff sleeps are stubbed out so the benchmark measures the retry
// machinery, not the (configurable) delay schedule. Race builds skip
// the band assertion.
func BenchmarkStorageFaults(b *testing.B) {
	x := solverState(1 << 20)
	params := sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4}
	newCk := func(st fti.Storage) *fti.Checkpointer {
		ck := fti.New(st, fti.SZ{Params: params})
		if err := ck.SetKeep(1); err != nil {
			b.Fatal(err)
		}
		return ck
	}
	noSleep := func(time.Duration) {}
	save := func(ck *fti.Checkpointer, i int) float64 {
		start := time.Now()
		if _, err := ck.Save(&fti.Snapshot{Iteration: i, Vectors: map[string][]float64{"x": x}}); err != nil {
			b.Fatal(err)
		}
		return time.Since(start).Seconds()
	}
	b.Run("direct", func(b *testing.B) {
		ck := newCk(fti.NewMemStorage())
		b.SetBytes(int64(8 * len(x)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			save(ck, i)
		}
	})
	b.Run("resilient-fault-free", func(b *testing.B) {
		ck := newCk(fti.NewResilient(fti.NewMemStorage(), fti.FaultPolicy{Sleep: noSleep}))
		b.SetBytes(int64(8 * len(x)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			save(ck, i)
		}
	})
	b.Run("band", func(b *testing.B) {
		const trials = 15
		plain := newCk(fti.NewMemStorage())
		wrapped := newCk(fti.NewResilient(fti.NewMemStorage(), fti.FaultPolicy{Sleep: noSleep}))
		save(plain, 0) // warm both paths (pool spin-up, buffer growth)
		save(wrapped, 0)
		runtime.GC() // drain garbage from earlier sub-benchmarks off the trial window
		plainT := make([]float64, 0, trials)
		wrapT := make([]float64, 0, trials)
		for t := 1; t <= trials; t++ {
			plainT = append(plainT, save(plain, t))
			wrapT = append(wrapT, save(wrapped, t))
		}
		sort.Float64s(plainT)
		sort.Float64s(wrapT)
		ratio := wrapT[trials/2] / plainT[trials/2]
		b.ReportMetric(100*(ratio-1), "overhead-%")
		if !raceEnabled && ratio > 1.02 {
			b.Fatalf("resilient save median %.2f ms vs direct %.2f ms: %.2f%% overhead exceeds the 2%% band",
				1e3*wrapT[trials/2], 1e3*plainT[trials/2], 100*(ratio-1))
		}
	})
	b.Run("fault-campaign-1pct", func(b *testing.B) {
		inj := failure.NewStorageInjector(fti.NewMemStorage(), 7, failure.StorageProfile{Rate: 0.01})
		res := fti.NewResilient(inj, fti.FaultPolicy{Sleep: noSleep, Seed: 7})
		ck := newCk(res)
		if err := ck.SetSharding(8, 2); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(8 * len(x)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			save(ck, i)
		}
		b.StopTimer()
		st := res.Stats()
		if st.Exhausted != 0 || st.Permanent != 0 {
			b.Fatalf("campaign leaked solver-visible failures: %+v", st)
		}
		ist := inj.Stats()
		b.ReportMetric(float64(ist.WriteFaults+ist.ReadFaults)/float64(b.N), "faults/op")
		b.ReportMetric(float64(st.Retries)/float64(b.N), "retries/op")
	})
}
