package sz

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/parallel"
	"repro/internal/precond"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// gridField samples a smooth, strictly positive field on an nx×ny×nz
// grid, x fastest — the layout sparse's generators give a solver's
// iterate. shift moves it down: a positive shift puts a sign change
// through the grid, crossing rows and slabs obliquely.
func gridField(nx, ny, nz int, shift float64) []float64 {
	x := make([]float64, 0, nx*ny*nz)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				u, v, w := float64(i+1)/float64(nx+1), float64(j+1)/float64(ny+1), float64(k+1)/float64(nz+1)
				x = append(x, 1.5+math.Sin(3*u)*math.Cos(2*v+w)+0.3*math.Sin(5*w*u)-shift)
			}
		}
	}
	return x
}

// predictorsOf walks a stream to each block's core header and returns
// the stencils the blocks were written with.
func predictorsOf(t testing.TB, comp []byte) []stencil {
	t.Helper()
	var out []stencil
	for _, span := range layoutOf(t, comp).Blocks {
		p := comp[span.Start+1 : span.End]
		uvarint := func() uint64 {
			v, k := binary.Uvarint(p)
			if k <= 0 {
				t.Fatalf("truncated block")
			}
			p = p[k:]
			return v
		}
		if comp[span.Start] == kindLogTransform {
			nb := (uvarint() + 7) / 8
			presence := p[0]
			p = p[1:]
			for j := 0; j < 3; j++ {
				if presence&(1<<j) != 0 {
					p = p[nb:]
				}
			}
			p = p[8*uvarint():]
		}
		uvarint() // n
		s := stencil{pred: Predictor(p[8])}
		p = p[9:]
		if s.pred == PredictorLorenzoND {
			s.s1, s.s2 = int(uvarint()), int(uvarint())
		}
		out = append(out, s)
	}
	return out
}

type oracleInput struct {
	name string
	x    []float64
	grid bool // a smooth field: at a tight bound PredictorAuto must infer its grid
}

// oracleInputs are generated grids and the adversarial set: every side
// channel of the log transform, the magnitudes and ties the quantizer's
// arithmetic is most likely to slip on. All are long enough for
// inference to look at them, so every input meets every arm.
func oracleInputs() []oracleInput {
	rng := rand.New(rand.NewSource(23))
	in := []oracleInput{
		{"cube", gridField(12, 12, 12, 0), true},
		{"box", gridField(8, 12, 20, 0), true},
		{"plane", gridField(40, 50, 1, 0), true},
		{"prime", blockedInput(1031, 3), false},
		{"sign-change", gridField(12, 12, 12, 1.6), false},
	}
	add := func(name string, f func(i int, v float64) float64) {
		x := gridField(12, 12, 12, 0)
		for i, v := range x {
			x[i] = f(i, v)
		}
		in = append(in, oracleInput{name: name, x: x})
	}
	add("denormals", func(i int, v float64) float64 {
		if i%5 == 0 {
			return math.Copysign(5e-324*float64(1+i), float64(i%3)-1)
		}
		return v * 1e-300
	})
	add("signed-zeros", func(i int, v float64) float64 {
		switch i % 7 {
		case 0:
			return 0
		case 3:
			return math.Copysign(0, -1)
		}
		return v
	})
	add("constant-blocks", func(i int, v float64) float64 {
		if (i/144)%2 == 0 {
			return 2.5
		}
		return v
	})
	add("range-1e300", func(i int, v float64) float64 { return v * math.Pow(10, float64(i%601)-300) })
	add("noise", func(int, float64) float64 { return rng.NormFloat64() })
	// Values an odd number of half-bins apart: every prediction error
	// lands on a bin edge, where the magic-number rounding ties.
	for _, eb := range []float64{1e-3, 1e-6} {
		add(fmt.Sprintf("near-tie/%g", eb), func(i int, v float64) float64 { return 1 + eb*float64(2*(i%9)+1)*float64(1+i%4) })
	}
	// All eight presence bytes: zeros, negatives and subnormals, each
	// present or absent.
	for presence := 0; presence < 8; presence++ {
		add(fmt.Sprintf("presence-%03b", presence), func(i int, v float64) float64 {
			switch {
			case presence&1 != 0 && i%11 == 0:
				return 0
			case presence&4 != 0 && i%13 == 0:
				v = 5e-324 * float64(1+i%100)
			}
			if presence&2 != 0 && i%3 == 0 {
				return -v
			}
			return v
		})
	}
	return in
}

// TestErrorBoundOracle drives every mode and every predictor arm —
// forced through Params.Predictor and reached through inference — over
// the oracle inputs, in one block and in many, and judges every element
// against the stated bound. Decompress and DecompressInto agree bitwise
// and an audited save writes the bytes of an unaudited one.
func TestErrorBoundOracle(t *testing.T) {
	for _, in := range oracleInputs() {
		lo, hi := valueRange(in.x)
		for _, mode := range []Mode{Abs, RelRange, PWRel} {
			for _, eb := range []float64{1e-3, 1e-6} {
				sizes := map[Predictor]int{}
				for _, pred := range []Predictor{PredictorAuto, PredictorLorenzo, PredictorLinear, PredictorLorenzoND} {
					for _, blockSize := range []int{0, 300} {
						p := Params{Mode: mode, ErrorBound: eb, Predictor: pred, BlockSize: blockSize}
						name := fmt.Sprintf("%s/%v/%g/pred%d/block%d", in.name, mode, eb, pred, blockSize)
						comp, err := Compress(in.x, p)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						audited, st, err := compressWithStats(in.x, p)
						if err != nil || !bytes.Equal(comp, audited) {
							t.Fatalf("%s: audited save differs from the plain one (%v)", name, err)
						}
						got, err := Decompress(comp)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						into := make([]float64, len(in.x))
						if err := DecompressInto(into, comp); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						bound := eb
						if mode == RelRange {
							bound = eb * (hi - lo)
						}
						for i, v := range in.x {
							if math.Float64bits(got[i]) != math.Float64bits(into[i]) {
								t.Fatalf("%s: DecompressInto differs from Decompress at %d", name, i)
							}
							d := math.Abs(v - got[i])
							if mode == PWRel {
								// exp and log1p each round once; zeros and
								// subnormals are exact.
								if limit := eb * math.Abs(v) * (1 + 1e-10); d > limit || (math.Abs(v) < tinyThreshold && d != 0) {
									t.Fatalf("%s: element %d: |%g − %g| = %g > %g", name, i, v, got[i], d, limit)
								}
							} else if d > bound {
								t.Fatalf("%s: element %d: |%g − %g| = %g > %g", name, i, v, got[i], d, bound)
							}
						}
						if st.MaxErr > st.Bound {
							t.Fatalf("%s: audit saw %g over its bound %g", name, st.MaxErr, st.Bound)
						}
						if blockSize == 0 {
							sizes[pred] = len(comp)
						}
						if !in.grid || eb > 1e-6 {
							continue
						}
						// The grid arms are really taken on a grid: by
						// inference and by force, in every block.
						for b, s := range predictorsOf(t, comp) {
							if nd := pred == PredictorAuto || pred == PredictorLorenzoND; nd != (s.pred == PredictorLorenzoND) {
								t.Fatalf("%s: block %d written with predictor %d", name, b, s.pred)
							}
						}
					}
				}
				if in.grid && eb <= 1e-6 && sizes[PredictorAuto] >= min(sizes[PredictorLorenzo], sizes[PredictorLinear]) {
					t.Errorf("%s/%v/%g: %d bytes over the inferred grid, %d and %d without", in.name, mode, eb,
						sizes[PredictorAuto], sizes[PredictorLorenzo], sizes[PredictorLinear])
				}
			}
		}
	}
}

// checkpointIterates runs a solver of the Poisson system on an
// nx×ny×nz grid and returns the iterate at every checkpoint of the
// benchmark workloads' cadences: each fifth step of IC0-PCG, each tenth
// of GMRES(30), each twenty-fifth of Jacobi.
func checkpointIterates(t testing.TB, nx, ny, nz int, method string) [][]float64 {
	t.Helper()
	a := sparse.Poisson3DAniso(nx, ny, nz)
	b := sparse.OnesRHS(a.Rows)
	opts := solver.Options{RTol: 1e-300}
	var step func()
	var cur func() []float64
	every, saves := 5, 8
	switch method {
	case "cg":
		m, err := precond.NewIC0(a)
		if err != nil {
			t.Fatal(err)
		}
		s := solver.NewCG(a, m, b, nil, solver.SeqSpace{}, opts)
		step, cur = func() { s.Step() }, s.X
	case "gmres":
		s := solver.NewGMRES(a, nil, b, nil, 30, solver.SeqSpace{}, opts)
		step, cur, every, saves = func() { s.Step() }, s.CurrentX, 10, 6
	default:
		s, err := solver.NewStationary(solver.KindJacobi, a, b, nil, 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		step, cur, every, saves = func() { s.Step() }, s.X, 25, 8
	}
	var out [][]float64
	for len(out) < saves {
		for i := 0; i < every; i++ {
			step()
		}
		out = append(out, append([]float64(nil), cur()...))
	}
	return out
}

// TestStrideInference: on the checkpoints of the three solvers over
// cubes and boxes, inference recovers the generator's (nx, nx·ny) nine
// times in ten, under any GOMAXPROCS, and a miss — a multiple of the
// true stride, or two dimensions of three — still writes fewer bytes
// than either 1-D rule. It declines on what has no grid. -v prints the
// hit-rate and bits-per-element table README quotes.
func TestStrideInference(t *testing.T) {
	hits, total := 0, 0
	for _, g := range [][3]int{{48, 48, 48}, {36, 36, 36}, {40, 40, 40}, {20, 30, 50}, {64, 32, 16}} {
		for _, method := range []string{"cg", "gmres", "jacobi"} {
			iterates := checkpointIterates(t, g[0], g[1], g[2], method)
			for _, eb := range []float64{1e-4, 1e-5, 1e-6} {
				rowHits := 0
				var bitsND, bits1D float64
				for k, x := range iterates {
					p, err := normalizeParams(x, Params{Mode: PWRel, ErrorBound: eb})
					if err != nil {
						t.Fatal(err)
					}
					s1, s2 := inferStrides(x, p, eb)
					withGOMAXPROCS(t, 1+7*(k%2), func() {
						if a, b := inferStrides(x, p, eb); a != s1 || b != s2 {
							t.Fatalf("%v %s save %d: strides (%d, %d), then (%d, %d)", g, method, k, s1, s2, a, b)
						}
					})
					size := func(pred Predictor) int {
						comp, err := Compress(x, Params{Mode: PWRel, ErrorBound: eb, Predictor: pred})
						if err != nil {
							t.Fatal(err)
						}
						return len(comp)
					}
					auto, oneD := size(PredictorAuto), min(size(PredictorLorenzo), size(PredictorLinear))
					bitsND += 8 * float64(auto) / float64(len(x))
					bits1D += 8 * float64(oneD) / float64(len(x))
					if s1 == g[0] && s2 == g[0]*g[1] {
						rowHits++
					} else if t.Logf("  miss: %v %s save %d at %g: strides (%d, %d), %d bytes against %d", g, method, k+1, eb, s1, s2, auto, oneD); auto >= oneD {
						t.Errorf("%v %s save %d at %g: strides (%d, %d) write %d bytes, the 1-D rules %d", g, method, k+1, eb, s1, s2, auto, oneD)
					}
				}
				k := float64(len(iterates))
				t.Logf("%dx%dx%d %-6s %g: %d/%d hits, %.2f bits/elem (1-D %.2f)", g[0], g[1], g[2], method, eb, rowHits, len(iterates), bitsND/k, bits1D/k)
				hits, total = hits+rowHits, total+len(iterates)
			}
		}
	}
	if t.Logf("%d of %d checkpoints", hits, total); 10*hits < 9*total {
		t.Errorf("inference found the grid on %d of %d checkpoints, want nine in ten", hits, total)
	}

	rng := rand.New(rand.NewSource(9))
	walk, noise := make([]float64, 1<<16), make([]float64, 1<<16)
	for i := range walk {
		noise[i] = 3 + rng.Float64()
		walk[i] = 100 + rng.NormFloat64()
		if i > 0 {
			walk[i] += walk[i-1] - 100
		}
	}
	for name, x := range map[string][]float64{
		"random walk": walk, "white noise": noise, "smooth 1-D": blockedInput(1<<16, 5),
		"below the floor": gridField(10, 10, 10, 0),
	} {
		for _, p := range []Params{{Mode: PWRel, ErrorBound: 1e-4}, {Mode: Abs, ErrorBound: 1e-4}} {
			p, err := normalizeParams(x, p)
			if err != nil {
				t.Fatal(err)
			}
			if s1, s2 := inferStrides(x, p, p.ErrorBound); s1 != 0 || s2 != 0 {
				t.Errorf("%s, %v: inferred strides (%d, %d)", name, p.Mode, s1, s2)
			}
		}
	}
	// The forced arm takes the best grid there is, and none on a prime.
	p, _ := normalizeParams(nil, Params{Mode: Abs, ErrorBound: 1e-6, Predictor: PredictorLorenzoND})
	if s1, s2 := inferStrides(checkpointIterates(t, 10, 10, 10, "cg")[2], p, 1e-6); s1 != 10 || s2 != 100 {
		t.Errorf("forced inference below the floor: strides (%d, %d), want (10, 100)", s1, s2)
	}
	if s1, s2 := inferStrides(blockedInput(1031, 3), p, 1e-6); s1 != 0 || s2 != 0 {
		t.Errorf("forced inference on a prime length: strides (%d, %d)", s1, s2)
	}
}

// TestGridBlocksHoldWholeSlabs: over an inferred grid the container's
// blocks are cut on multiples of the outermost stride — as many slabs
// as fit Params.BlockSize — and codec.BlockRanges, which the sharded
// writer cuts along, reports them.
func TestGridBlocksHoldWholeSlabs(t *testing.T) {
	x := gridField(20, 30, 50, 0)
	comp, err := Compress(x, Params{Mode: PWRel, ErrorBound: 1e-4, BlockSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	lay := layoutOf(t, comp)
	if lay.BlockElems != 6*600 || len(lay.Blocks) != 9 {
		t.Fatalf("%d blocks of %d elements, want 9 of 3600 (six 600-element slabs)", len(lay.Blocks), lay.BlockElems)
	}
	for b, s := range predictorsOf(t, comp) {
		if s != (stencil{PredictorLorenzoND, 20, 600}) {
			t.Fatalf("block %d: stencil %+v", b, s)
		}
	}
	if spans, ok := codec.BlockRanges(comp); !ok || len(spans) != 9 {
		t.Fatalf("BlockRanges: %d spans, %v", len(spans), ok)
	}
}

// TestParentWrittenStreamsDecode: the 1-D rules went into the loop the
// grid stencil shares, and their streams did not move. Streams written
// by the commit before it (testdata/parent, forced Lorenzo and Linear,
// PWRel and Abs, three blocks each) decode to the reconstruction that
// commit produced, and this encoder still writes them byte for byte.
func TestParentWrittenStreamsDecode(t *testing.T) {
	cases := goldenCases()
	smooth, mixed := cases[0].x[:600], cases[5].x[:600]
	for _, c := range []struct {
		name string
		x    []float64
		p    Params
		hash uint64
	}{
		{"lorenzo_pwrel", mixed, Params{Mode: PWRel, ErrorBound: 1e-4, Predictor: PredictorLorenzo, BlockSize: 250}, 0x9edf6b5ff6d3b7ed},
		{"linear_pwrel", smooth, Params{Mode: PWRel, ErrorBound: 1e-6, Predictor: PredictorLinear, BlockSize: 250}, 0x930b65ad09acc5b1},
		{"lorenzo_abs", smooth, Params{Mode: Abs, ErrorBound: 1e-5, Predictor: PredictorLorenzo, BlockSize: 250}, 0xa15e5f51b7cb33f1},
		{"linear_abs", smooth, Params{Mode: Abs, ErrorBound: 1e-7, Predictor: PredictorLinear, BlockSize: 250}, 0x48d2f327654ff54b},
	} {
		stream, err := os.ReadFile("testdata/parent/parent_" + c.name + ".sz")
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decompress(stream)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := fnv.New64a()
		for _, v := range got {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
		if h.Sum64() != c.hash {
			t.Errorf("%s: reconstruction differs from the parent commit's", c.name)
		}
		if now, err := Compress(c.x, c.p); err != nil || !bytes.Equal(now, stream) {
			t.Errorf("%s: this encoder writes %d bytes (%v), the parent's stream is %d", c.name, len(now), err, len(stream))
		}
	}
}

// BenchmarkInferStrides is what the grid search costs a save of the
// 48³ IC(0)-PCG iterate at iteration 25 (cg-lossy-sync's fifth
// checkpoint, the root benchmarks' solver state): ns/op is one search,
// %call its share of the whole AppendCompress on one worker.
func BenchmarkInferStrides(b *testing.B) {
	x := checkpointIterates(b, 48, 48, 48, "cg")[4]
	p, err := normalizeParams(x, Params{Mode: PWRel, ErrorBound: 1e-4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s1, s2 := inferStrides(x, p, p.ErrorBound); s1 != 48 || s2 != 48*48 {
			b.Fatalf("strides (%d, %d)", s1, s2)
		}
	}
	b.StopTimer()
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	var dst []byte
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if dst, err = AppendCompress(dst[:0], x, p, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*b.Elapsed().Seconds()/time.Since(start).Seconds(), "%call")
}
