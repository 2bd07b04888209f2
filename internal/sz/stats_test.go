package sz

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/codec"
)

// compressWithStats is an audited compression: the bytes and the
// distortion accumulated while they were written.
func compressWithStats(x []float64, p Params) ([]byte, codec.Stats, error) {
	var st codec.Stats
	blob, err := AppendCompress(nil, x, p, &st)
	return blob, st, err
}

func statsWorkloads(n int) map[string][]float64 {
	rng := rand.New(rand.NewSource(7))
	smooth := make([]float64, n)
	for i := range smooth {
		smooth[i] = math.Sin(float64(i)/50) + 0.01*rng.Float64()
	}
	rough := make([]float64, n)
	for i := range rough {
		rough[i] = rng.NormFloat64() * math.Exp(10*rng.Float64()-5)
	}
	withZeros := make([]float64, n)
	copy(withZeros, smooth)
	for i := 0; i < n; i += 37 {
		withZeros[i] = 0
	}
	withZeros[n/2] = 5e-310 // subnormal: exact side channel
	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 3.25
	}
	return map[string][]float64{
		"smooth": smooth, "rough": rough, "zeros": withZeros, "constant": constant,
		"grid": gridField(20, 20, n/400, 0), // one-pass encoded over its inferred grid
	}
}

// TestCompressWithStatsIdenticalBytes is the audit path's core
// contract: an audited compression writes exactly the bytes an
// unaudited one would, across modes, block layouts, and predictors.
func TestCompressWithStatsIdenticalBytes(t *testing.T) {
	kernelPaths(t, compressWithStatsIdenticalBytes)
}

func compressWithStatsIdenticalBytes(t *testing.T) {
	for wname, x := range statsWorkloads(10000) {
		for _, p := range []Params{
			{Mode: Abs, ErrorBound: 1e-6},
			{Mode: Abs, ErrorBound: 1e-6, BlockSize: 1 << 10},
			{Mode: RelRange, ErrorBound: 1e-5},
			{Mode: PWRel, ErrorBound: 1e-4},
			{Mode: PWRel, ErrorBound: 1e-4, BlockSize: 1 << 10},
			{Mode: PWRel, ErrorBound: 1e-13}, // below the fast-log cutoff
			{Mode: Abs, ErrorBound: 1e-3, Predictor: PredictorLinear},
		} {
			want, err := Compress(x, p)
			if err != nil {
				t.Fatalf("%s %+v: Compress: %v", wname, p, err)
			}
			got, st, err := compressWithStats(x, p)
			if err != nil {
				t.Fatalf("%s %+v: audited Compress: %v", wname, p, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s %+v: stats path produced different bytes (%d vs %d)", wname, p, len(got), len(want))
			}
			if st.Elements != len(x) {
				t.Fatalf("%s %+v: audited %d of %d elements", wname, p, st.Elements, len(x))
			}
			if st.MaxErr > st.Bound {
				t.Fatalf("%s %+v: observed max error %g exceeds requested bound %g", wname, p, st.MaxErr, st.Bound)
			}
			if constant := wname == "constant" && p.Mode == RelRange; st.Relative != (p.Mode == PWRel) || !st.Lossy || (st.Bound == 0) != constant {
				t.Fatalf("%s %+v: contract Bound=%g Relative=%v Lossy=%v", wname, p, st.Bound, st.Relative, st.Lossy)
			}
		}
	}
}

// TestStatsBoundObservedError cross-checks the encode-path accumulators
// against a real decode: the claimed max error must bound the true
// pointwise reconstruction error in the bound's own metric.
func TestStatsBoundObservedError(t *testing.T) {
	for wname, x := range statsWorkloads(6000) {
		for _, p := range []Params{
			{Mode: Abs, ErrorBound: 1e-5},
			{Mode: PWRel, ErrorBound: 1e-4},
			{Mode: PWRel, ErrorBound: 1e-4, BlockSize: 1 << 10},
		} {
			blob, st, err := compressWithStats(x, p)
			if err != nil {
				t.Fatalf("%s: %v", wname, err)
			}
			dec, err := Decompress(blob)
			if err != nil {
				t.Fatalf("%s: decompress: %v", wname, err)
			}
			trueMax := 0.0
			for i := range x {
				e := math.Abs(x[i] - dec[i])
				if p.Mode == PWRel && x[i] != 0 {
					if math.Abs(x[i]) < tinyThreshold {
						e = 0 // exact side channel
					} else {
						e /= math.Abs(x[i])
					}
				}
				if e > trueMax {
					trueMax = e
				}
			}
			// The accumulator is a certified upper bound; allow a whisker
			// of float slack on the comparison direction only.
			if trueMax > st.MaxErr*(1+1e-12)+1e-300 {
				t.Fatalf("%s %+v: true max error %g exceeds claimed %g", wname, p, trueMax, st.MaxErr)
			}
			// Summation rounding can push the mean an ulp past the max
			// when every element carries the same error.
			if st.Elements > 0 && st.MeanErr() > st.MaxErr*(1+1e-12) {
				t.Fatalf("%s: mean %g > max %g", wname, st.MeanErr(), st.MaxErr)
			}
			if ps := st.PSNR(); ps != 0 && !math.IsInf(ps, 1) && ps < 0 {
				t.Fatalf("%s: negative PSNR %g", wname, ps)
			}
		}
	}
}

func TestStatsConstantAndMerge(t *testing.T) {
	x := make([]float64, 100)
	for i := range x {
		x[i] = -2.5
	}
	blob, st, err := compressWithStats(x, Params{Mode: RelRange, ErrorBound: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxErr != 0 || st.Elements != 100 || st.MaxAbsValue != 2.5 {
		t.Fatalf("constant stats: %+v", st)
	}
	dec, err := Decompress(blob)
	if err != nil || len(dec) != 100 || dec[0] != -2.5 {
		t.Fatalf("constant roundtrip: %v %v", dec, err)
	}

	a := codec.Stats{Elements: 2, MaxErr: 1, SumErr: 1.5, SumSqAbs: 2, MaxAbsValue: 3}
	b := codec.Stats{Elements: 3, MaxErr: 2, SumErr: 0.5, SumSqAbs: 1, MaxAbsValue: 1, Bound: 4, Relative: true, Lossy: true}
	a.Merge(b)
	if a.Elements != 5 || a.MaxErr != 2 || a.SumErr != 2 || a.SumSqAbs != 3 || a.MaxAbsValue != 3 {
		t.Fatalf("merge: %+v", a)
	}
	if a.Bound != 4 || !a.Relative || !a.Lossy {
		t.Fatalf("merge dropped the blocks' contract: %+v", a)
	}
}

// TestStatsMatchParent pins the in-loop accumulators against numbers
// they did not produce: the seven Stats fields, bit for bit, that the
// commit before this one computed with a second, hand-mirrored copy of
// the compress loops (since deleted), for every golden input under
// every mode.
func TestStatsMatchParent(t *testing.T) {
	parent := []struct {
		name                                      string
		mode                                      Mode
		elements                                  int
		maxErr, sumErr, sumSqAbs, maxAbs, bound64 uint64
		relative                                  bool
	}{
		{"smooth/pwrel", 0, 100000, 0x3f1a36cfc1a40000, 0x40140018e36eadaa, 0x3f35d5eee7c0dd8e, 0x401084e9e8bb4823, 0x3f1a36e2eb1c432d, false},
		{"smooth/pwrel", 1, 100000, 0x3f36ea5332ad2000, 0x40316d18c510d79c, 0x3f70984a0701f893, 0x401084e9e8bb4823, 0x3f36ea6832369fc3, false},
		{"smooth/pwrel", 2, 100000, 0x3f1a36d65693b9a6, 0x4013f008992eebd0, 0x3f639fb4252ad410, 0x401084e9e8bb4823, 0x3f1a36e2eb1c432d, true},
		{"smooth/pwrel/tight", 0, 100000, 0x3d3c200000000000, 0x3dfb5f5500000000, 0x3b3ffb1177000000, 0x401084e9e8bb4823, 0x3d3c25c268497682, false},
		{"smooth/pwrel/tight", 1, 100000, 0x3d58980000000000, 0x3e3f2ed4b0000000, 0x3b9ff51ec7a60000, 0x401084e9e8bb4823, 0x3d589b01ae909034, false},
		{"smooth/pwrel/tight", 2, 100000, 0x3d3c25000000018c, 0x3e163bf080000018, 0x3b8c4108ddef2edc, 0x401084e9e8bb4823, 0x3d3c25c268497682, true},
		{"smooth/abs", 0, 100000, 0x3f1a36cfc1a40000, 0x40140018e36eadaa, 0x3f35d5eee7c0dd8e, 0x401084e9e8bb4823, 0x3f1a36e2eb1c432d, false},
		{"smooth/abs", 1, 100000, 0x3f36ea5332ad2000, 0x40316d18c510d79c, 0x3f70984a0701f893, 0x401084e9e8bb4823, 0x3f36ea6832369fc3, false},
		{"smooth/abs", 2, 100000, 0x3f1a36d65693b9a6, 0x4013f008992eebd0, 0x3f639fb4252ad410, 0x401084e9e8bb4823, 0x3f1a36e2eb1c432d, true},
		{"smooth/relrange", 0, 100000, 0x3ee4f868199a0000, 0x3fdffcc29f82b3f2, 0x3ecbef67b8104fa2, 0x401084e9e8bb4823, 0x3ee4f8b588e368f1, false},
		{"smooth/relrange", 1, 100000, 0x3f02551217200000, 0x3ffbfb16d2e66fd5, 0x3f055ffece2d266a, 0x401084e9e8bb4823, 0x3f025520282bb302, false},
		{"smooth/relrange", 2, 100000, 0x3ee4f8b34922af8a, 0x3fdff3ee72360a4e, 0x3ef912c3d3970868, 0x401084e9e8bb4823, 0x3ee4f8b588e368f1, true},
		{"smooth/pwrel/legacy", 0, 20000, 0x3f506241f8376400, 0x4023e3018a7b98f0, 0x3f7b022b1ec166d1, 0x400971d069f13c93, 0x3f50624dd2f1a9fc, false},
		{"smooth/pwrel/legacy", 1, 20000, 0x3f5a086151bcc800, 0x402fb08400041378, 0x3f91289b23fa8fb2, 0x400971d069f13c93, 0x3f5a08d78590fd6c, false},
		{"smooth/pwrel/legacy", 2, 20000, 0x3f50618190b24ebf, 0x40241b2586c058bb, 0x3f9e60c8eeeb66f1, 0x400971d069f13c93, 0x3f50624dd2f1a9fc, true},
		{"mixed/pwrel", 0, 70000, 0x3f1a3668fb37e9a0, 0x3fb1f53a41121f21, 0x3ed38ede5ec7d951, 0x5ae49cee84db38bb, 0x3f1a36e2eb1c432d, false},
		{"mixed/pwrel", 1, 70000, 0x5a20dff59dba9400, 0x5ab03659c2b29452, 0x74d49e71f8d4fe42, 0x5ae49cee84db38bb, 0x5a20e2ce4718c96a, false},
		{"mixed/pwrel", 2, 70000, 0x3f1a36805f846b44, 0x4007df6087ef237a, 0x747587356a80a3be, 0x5ae49cee84db38bb, 0x3f1a36e2eb1c432d, true},
		{"mixed/pwrel/small-blocks", 0, 70000, 0x3f847addd79d0800, 0x401b1a9814531d8a, 0x3fa61f383cc99da0, 0x5ae49cee84db38bb, 0x3f847ae147ae147b, false},
		{"mixed/pwrel/small-blocks", 1, 70000, 0x5a8a37ee49a2e958, 0x5b0d1c844130523d, 0x759cfba099eeabd6, 0x5ae49cee84db38bb, 0x5a8a62624f16bab6, false},
		{"mixed/pwrel/small-blocks", 2, 70000, 0x3f847adea32b3181, 0x4072a4c4a353bd74, 0x75518e63a995179c, 0x5ae49cee84db38bb, 0x3f847ae147ae147b, true},
		{"negative/pwrel", 0, 40000, 0x3f1a369e0e918000, 0x4000048056806a14, 0x3f217b7b565581aa, 0x400971d069f13c93, 0x3f1a36e2eb1c432d, false},
		{"negative/pwrel", 1, 40000, 0x3f30b1ae415eb800, 0x40145514d4e0eda4, 0x3f4c35abd138f07a, 0x400971d069f13c93, 0x3f30b1df0ef881b2, false},
		{"negative/pwrel", 2, 40000, 0x3f1a36d65693b9a6, 0x3ffff853e371874a, 0x3f3b50c8d6ccf301, 0x400971d069f13c93, 0x3f1a36e2eb1c432d, true},
	}
	cases := map[string]goldenCase{}
	for _, c := range goldenCases() {
		cases[c.name] = c
	}
	for _, want := range parent {
		c := cases[want.name]
		p := c.p
		p.Mode = want.mode
		_, st, err := compressWithStats(c.x, p)
		if err != nil {
			t.Fatalf("%s/%v: %v", want.name, want.mode, err)
		}
		got := [...]uint64{uint64(st.Elements), math.Float64bits(st.MaxErr), math.Float64bits(st.SumErr),
			math.Float64bits(st.SumSqAbs), math.Float64bits(st.MaxAbsValue), math.Float64bits(st.Bound)}
		if got != [...]uint64{uint64(want.elements), want.maxErr, want.sumErr, want.sumSqAbs, want.maxAbs, want.bound64} || st.Relative != want.relative {
			t.Errorf("%s/%v: stats %+v differ from the parent commit's", want.name, want.mode, st)
		}
	}
}
