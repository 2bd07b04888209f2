package sz

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/codec"
	"repro/internal/parallel"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// layoutOf parses comp's container header.
func layoutOf(t testing.TB, comp []byte) codec.BlockLayout {
	t.Helper()
	lay, err := codec.ParseBlockLayout(codec.Whole(comp), len(comp))
	if err != nil {
		t.Fatalf("not a container: %v", err)
	}
	if lay.ID != codec.SZ {
		t.Fatalf("container of codec %v, want sz", lay.ID)
	}
	return lay
}

// withGOMAXPROCS runs f under the given GOMAXPROCS setting.
func withGOMAXPROCS(t *testing.T, n int, f func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	f()
}

func blockedInput(n int, seed int64) []float64 {
	x := sparse.SmoothField(n, seed)
	for i := range x {
		x[i] += 2.5
	}
	return x
}

// TestBlockedRoundTripAllModes: the blocked container must respect the
// pointwise error bound of every mode at one worker and at eight —
// identical guarantees regardless of parallelism.
func TestBlockedRoundTripAllModes(t *testing.T) {
	const n = 40000
	const eb = 1e-4
	x := blockedInput(n, 11)
	lo, hi := vec.Range(x)
	for _, procs := range []int{1, 8} {
		withGOMAXPROCS(t, procs, func() {
			for _, mode := range []Mode{Abs, RelRange, PWRel} {
				comp, err := Compress(x, Params{Mode: mode, ErrorBound: eb, BlockSize: 4096})
				if err != nil {
					t.Fatalf("procs=%d mode=%v: %v", procs, mode, err)
				}
				if lay := layoutOf(t, comp); len(lay.Blocks) != 10 || lay.BlockElems != 4096 {
					t.Fatalf("procs=%d mode=%v: %d blocks of %d, want 10 of 4096",
						procs, mode, len(lay.Blocks), lay.BlockElems)
				}
				got, err := Decompress(comp)
				if err != nil {
					t.Fatalf("procs=%d mode=%v decompress: %v", procs, mode, err)
				}
				if len(got) != n {
					t.Fatalf("procs=%d mode=%v: %d values, want %d", procs, mode, len(got), n)
				}
				for i := range x {
					var bound float64
					switch mode {
					case Abs:
						bound = eb
					case RelRange:
						bound = eb * (hi - lo)
					case PWRel:
						bound = eb * math.Abs(x[i])
					}
					if d := math.Abs(x[i] - got[i]); d > bound*(1+1e-10) {
						t.Fatalf("procs=%d mode=%v index %d: error %g > bound %g", procs, mode, i, d, bound)
					}
				}
			}
		})
	}
}

// TestBlockedDeterministicAcrossWorkers: the container bytes must not
// depend on the schedule — compression of the same input, a 1-D signal
// and a grid, at 1, 2, 7 and 8 workers is byte-identical. The blocks
// share the Huffman stage's pooled tables, so this is also that stage's
// purity check.
func TestBlockedDeterministicAcrossWorkers(t *testing.T) {
	kernelPaths(t, blockedDeterministicAcrossWorkers)
}

func blockedDeterministicAcrossWorkers(t *testing.T) {
	p := Params{Mode: PWRel, ErrorBound: 1e-4, BlockSize: 8192}
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	for _, x := range [][]float64{blockedInput(120000, 13), gridField(40, 40, 40, 0)} {
		parallel.SetWorkers(1)
		serial, err := Compress(x, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 7, 8} {
			parallel.SetWorkers(workers)
			for round := 0; round < 3; round++ {
				got, err := Compress(x, p)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(serial, got) {
					t.Fatalf("blocked compression must be schedule-independent, bytes differ at %d workers", workers)
				}
			}
		}
	}
}

// TestLegacySingleBlockStreams: there is one format. An input at most
// one block long is framed like any other — a container of one block —
// and a stream in a retired single-stream or blocked format is an error
// that names its magic, not a guess at its contents.
func TestLegacySingleBlockStreams(t *testing.T) {
	small := blockedInput(1000, 17)
	for _, mode := range []Mode{Abs, RelRange, PWRel} {
		comp, err := Compress(small, Params{Mode: mode, ErrorBound: 1e-4})
		if err != nil {
			t.Fatal(err)
		}
		lay := layoutOf(t, comp)
		if len(lay.Blocks) != 1 || lay.N != len(small) || lay.BlockElems != codec.DefaultBlockElems {
			t.Fatalf("mode %v: small input framed as %d blocks of %d for %d values", mode, len(lay.Blocks), lay.BlockElems, lay.N)
		}
		if got, err := Decompress(comp); err != nil || len(got) != len(small) {
			t.Fatalf("mode %v: %d values, %v", mode, len(got), err)
		}
		for _, old := range []string{"SZG1", "SZG2", "ZFG1"} {
			stale := append([]byte(old), comp[4:]...)
			_, err := Decompress(stale)
			if err == nil || !strings.Contains(err.Error(), old) {
				t.Fatalf("mode %v: %s stream: %v, want an error naming the magic", mode, old, err)
			}
			if err := DecompressInto(make([]float64, len(small)), stale); err == nil || !strings.Contains(err.Error(), old) {
				t.Fatalf("mode %v: %s stream into a destination: %v", mode, old, err)
			}
		}
	}
}

// TestBlockedRelRangeUsesGlobalRange: RelRange is defined against the
// global value range; a block-local range on this input (one flat
// block, one wide block) would differ by orders of magnitude.
func TestBlockedRelRangeUsesGlobalRange(t *testing.T) {
	const n = 8192
	x := make([]float64, n)
	for i := range x {
		if i < n/2 {
			x[i] = 1 + 1e-9*float64(i%7) // flat block: local range ~1e-8
		} else {
			x[i] = float64(i) // wide block: local range ~4096
		}
	}
	const eb = 1e-4
	comp, err := Compress(x, Params{Mode: RelRange, ErrorBound: eb, BlockSize: n / 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := vec.Range(x)
	bound := eb * (hi - lo)
	for i := range x {
		if d := math.Abs(x[i] - got[i]); d > bound*(1+1e-10) {
			t.Fatalf("index %d: error %g > global bound %g", i, d, bound)
		}
	}
}

// TestBlockedConstantVector: a globally constant vector collapses to
// the container's constant stream, whatever its length.
func TestBlockedConstantVector(t *testing.T) {
	x := make([]float64, 200000)
	for i := range x {
		x[i] = -7.75
	}
	comp, err := Compress(x, Params{Mode: RelRange, ErrorBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) > 64 {
		t.Fatalf("constant vector compressed to %d bytes, want a header", len(comp))
	}
	got, err := Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != -7.75 {
			t.Fatalf("index %d: %g, want -7.75 exactly", i, got[i])
		}
	}
}

// TestBlockedRejectsCorruption: truncated or inconsistent headers
// must error, never panic or return garbage.
func TestBlockedRejectsCorruption(t *testing.T) {
	x := blockedInput(100000, 23)
	comp, err := Compress(x, Params{Mode: Abs, ErrorBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if lay := layoutOf(t, comp); len(lay.Blocks) != 4 {
		t.Fatalf("expected 4 blocks, got %d", len(lay.Blocks))
	}
	for _, cut := range []int{5, 8, len(comp) / 2, len(comp) - 1} {
		if _, err := Decompress(comp[:cut]); err == nil {
			t.Fatalf("truncation at %d silently decoded", cut)
		}
	}
	bad := append([]byte(nil), comp...)
	bad[6] ^= 0xFF // corrupt the element-count varint
	if _, err := Decompress(bad); err == nil {
		t.Fatal("corrupt header silently decoded")
	}
}

// TestCraftedHeadersDoNotAllocate: headers claiming astronomical
// element or block counts must be rejected before sizing any
// allocation from them — a ~25-byte stream must not demand terabytes.
func TestCraftedHeadersDoNotAllocate(t *testing.T) {
	putUvarint := func(dst []byte, v uint64) []byte {
		var b [10]byte
		return append(dst, b[:binary.PutUvarint(b[:], v)]...)
	}
	// n = nBlocks = 2^50, blockElems = 1.
	crafted := append([]byte("BLK1"), byte(codec.SZ))
	crafted = putUvarint(crafted, 1<<50) // n
	crafted = putUvarint(crafted, 1)     // blockElems
	crafted = putUvarint(crafted, 1<<50) // nBlocks
	if _, err := Decompress(crafted); err == nil {
		t.Fatal("huge blocked header silently accepted")
	}
	// One huge block: n = blockElems = 2^50.
	crafted = append([]byte("BLK1"), byte(codec.SZ))
	crafted = putUvarint(crafted, 1<<50) // n
	crafted = putUvarint(crafted, 1<<50) // blockElems
	crafted = putUvarint(crafted, 1)     // nBlocks
	crafted = putUvarint(crafted, 4)     // block length
	crafted = append(crafted, kindCore, 0, 0, 0)
	if _, err := Decompress(crafted); err == nil {
		t.Fatal("huge single-block header silently accepted")
	}
	// An honest container around a core block with count 2^40 and a
	// tiny payload.
	core := putUvarint([]byte{kindCore}, 1<<40) // n
	core = binary.LittleEndian.AppendUint64(core, math.Float64bits(1e-3))
	core = append(core, byte(PredictorLorenzo))
	core = putUvarint(core, 16) // intervals
	core = putUvarint(core, 0)  // nUnpred
	core = putUvarint(core, 0)  // hlen
	if _, err := Decompress(blockedOf(4, core)); err == nil {
		t.Fatal("huge core header silently accepted")
	}
}

// TestBlockedInvalidParams: the new BlockSize knob validates.
func TestBlockedInvalidParams(t *testing.T) {
	if _, err := Compress([]float64{1, 2}, Params{Mode: Abs, ErrorBound: 1e-4, BlockSize: -1}); err == nil {
		t.Fatal("expected error for negative block size")
	}
}

// TestBlockedNonFiniteDetected: the blocks refuse a NaN or an Inf as
// they meet it, and the error names the smallest offending index.
func TestBlockedNonFiniteDetected(t *testing.T) {
	x := blockedInput(100000, 29)
	x[70000] = math.Inf(1)
	x[90000] = math.NaN()
	_, err := Compress(x, Params{Mode: Abs, ErrorBound: 1e-4})
	if err == nil {
		t.Fatal("expected error for non-finite input")
	}
	want := "sz: non-finite value at index 70000"
	if err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}

// TestNonFiniteRefusalMatrix: no block stores a NaN or an Inf as an
// unpredictable value. Each of NaN, ±Inf and a NaN with payload bits,
// put at the edges of blocks, in each row of a kernel call, beside a
// zero (the two-pass path), on the 1-D path and under Abs and RelRange
// — where a NaN can hide from the range ([5, NaN, 5]) — is refused
// with the smallest index, at 1, 2 and 7 workers, on either path. The
// grid is 20×30×16 in blocks of four slabs.
func TestNonFiniteRefusalMatrix(t *testing.T) { kernelPaths(t, nonFiniteRefusals) }

func nonFiniteRefusals(t *testing.T) {
	const nx, slab, blk = 20, 600, 4 * 600
	pwrel := Params{Mode: PWRel, ErrorBound: 1e-4, BlockSize: blk}
	cases := []struct {
		name  string
		p     Params
		at    []int // where the value goes; the smallest is reported
		zero  int   // where a zero goes, if > 0
		small []float64
	}{
		{name: "first of a block", p: pwrel, at: []int{0}},
		{name: "last of a block", p: pwrel, at: []int{blk - 1}},
		{name: "block boundary", p: pwrel, at: []int{2 * blk, 3*blk - 1}},
		{name: "later blocks too", p: pwrel, at: []int{3*blk + 5, blk + 7, 2*blk + 1}},
		{name: "kernel row 0", p: pwrel, at: []int{blk + slab + 9}},
		{name: "kernel row 1", p: pwrel, at: []int{blk + slab + nx + 9}},
		{name: "kernel row 2", p: pwrel, at: []int{blk + slab + 2*nx + 9}},
		{name: "kernel row 3", p: pwrel, at: []int{blk + slab + 3*nx + 9, blk + slab + 4*nx + 9}},
		{name: "beside a zero", p: pwrel, at: []int{2*blk + 100}, zero: 2*blk + 40},
		{name: "1-D", p: Params{Mode: PWRel, ErrorBound: 1e-4, BlockSize: blk, Predictor: PredictorLorenzo}, at: []int{blk + 3}},
		{name: "Abs", p: Params{Mode: Abs, ErrorBound: 1e-6, BlockSize: blk}, at: []int{3 * blk, blk + slab + nx}},
		{name: "RelRange", p: Params{Mode: RelRange, ErrorBound: 1e-4, BlockSize: blk}, at: []int{blk - 1, 2 * blk}},
		{name: "RelRange [5, v, 5]", p: Params{Mode: RelRange, ErrorBound: 1e-4}, at: []int{1}, small: []float64{5, 5, 5}},
		{name: "RelRange [v, 5, 5]", p: Params{Mode: RelRange, ErrorBound: 1e-4}, at: []int{0}, small: []float64{5, 5, 5}},
	}
	bads := map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1),
		"NaN payload": math.Float64frombits(0xfff0_0000_0000_0abc)}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	for _, c := range cases {
		for name, bad := range bads {
			x := append([]float64(nil), c.small...)
			if x == nil {
				x = gridField(nx, 30, 16, 0)
			}
			if c.zero > 0 {
				x[c.zero] = 0
			}
			for _, i := range c.at {
				x[i] = bad
			}
			want := fmt.Sprintf("sz: non-finite value at index %d", slices.Min(c.at))
			for _, workers := range []int{1, 2, 7} {
				parallel.SetWorkers(workers)
				if _, err := Compress(x, c.p); err == nil || err.Error() != want {
					t.Errorf("%s, %s, %d workers: Compress returned %v, want %q", c.name, name, workers, err, want)
				}
			}
		}
	}
}

// Property: compression reconstructs within the
// bound for random inputs, block sizes, and modes, at 1 and 8 procs.
func TestBlockedEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2000 + rng.Intn(30000)
		blockSize := 512 << rng.Intn(4) // 512..4096
		mode := []Mode{Abs, RelRange, PWRel}[rng.Intn(3)]
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Sin(float64(i)/30)*5 + rng.NormFloat64()*0.01 + 3
		}
		eb := math.Pow(10, -2-float64(rng.Intn(5)))
		p := Params{Mode: mode, ErrorBound: eb, BlockSize: blockSize}
		procs := 1 + 7*rng.Intn(2)
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)

		comp, err := Compress(x, p)
		if err != nil {
			t.Logf("seed %d: compress: %v", seed, err)
			return false
		}
		got, err := Decompress(comp)
		if err != nil || len(got) != n {
			t.Logf("seed %d: decompress: %v", seed, err)
			return false
		}
		lo, hi := vec.Range(x)
		for i := range x {
			var bound float64
			switch mode {
			case Abs:
				bound = eb
			case RelRange:
				bound = eb * (hi - lo)
			case PWRel:
				bound = eb * math.Abs(x[i])
			}
			if d := math.Abs(x[i] - got[i]); d > bound*(1+1e-10) {
				t.Logf("seed %d: index %d error %g > %g", seed, i, d, bound)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
