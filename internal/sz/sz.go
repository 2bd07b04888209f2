// Package sz implements a prediction-based, error-bounded lossy
// floating-point compressor modeled on SZ 1.4 (Di & Cappello, IPDPS'16;
// Tao et al., IPDPS'17), the compressor the paper integrates into its
// lossy checkpointing scheme. The pipeline is SZ's:
//
//  1. predict each value from previously *reconstructed* values: over
//     the grid the vector is a flattened field of — the Lorenzo stencil
//     of SZ 1.4, two- or three-dimensional, its strides inferred from
//     the data (inferStrides) — or, where the data shows no grid, along
//     the vector (order-1 Lorenzo or order-2 linear extrapolation),
//  2. quantize the prediction error into 2·eb-wide bins
//     (error-controlled quantization — this is what guarantees the
//     pointwise bound),
//  3. entropy-code the bin indices with a canonical Huffman coder,
//     storing unpredictable values verbatim.
//
// Three error-bound modes are supported: absolute (|x−x′| ≤ eb),
// value-range relative (|x−x′| ≤ eb·(max−min)), and pointwise relative
// (|x−x′| ≤ eb·|x|). The paper's analysis (Theorems 2 and 3) is stated
// in terms of the pointwise-relative bound, implemented here with the
// standard logarithmic-transform reduction to the absolute mode.
//
// Every stream is one blocked container (package codec, codec ID SZ):
// the vector is split into fixed-size blocks that are compressed and
// decompressed independently — each block carries its own predictor
// state and Huffman table, and over a grid holds whole rows or slabs, so
// that no stencil reaches into another block — so the whole pipeline
// parallelizes across blocks (see internal/parallel) with output bytes
// that depend only on the input and the parameters, while the pointwise
// error bound is preserved exactly. A block payload is a kind byte
// followed by the kind-specific encoding below (core or log-transform).
//
// Error-bound semantics do not depend on the blocking. Abs and PWRel
// bounds are pointwise. The RelRange bound is defined against the
// *global* value range, so the range is computed once over the whole
// vector and the derived absolute bound is shared by every block — a
// block-local range would silently tighten or loosen the guarantee. A
// vector with no range at all (RelRange on constant data) is stored as
// the container's constant stream.
package sz

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/codec"
	"repro/internal/huffman"
	"repro/internal/parallel"
)

// Mode selects how the error bound is interpreted.
type Mode byte

const (
	// Abs bounds the absolute error: |x_i − x′_i| ≤ eb.
	Abs Mode = iota
	// RelRange bounds error relative to the value range:
	// |x_i − x′_i| ≤ eb·(max_j x_j − min_j x_j).
	RelRange
	// PWRel bounds error relative to each value's magnitude:
	// |x_i − x′_i| ≤ eb·|x_i| — the bound used throughout the paper.
	PWRel
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Abs:
		return "ABS"
	case RelRange:
		return "REL(range)"
	case PWRel:
		return "REL(pointwise)"
	}
	return fmt.Sprintf("Mode(%d)", byte(m))
}

// Predictor selects the prediction rule.
type Predictor byte

const (
	// PredictorAuto infers the grid (see inferStrides) and predicts over
	// it when that is cheaper on a sample; otherwise each block picks
	// the cheaper of the two 1-D rules on a dry run of its head.
	PredictorAuto Predictor = iota
	// PredictorLorenzo predicts x_i ≈ x′_{i−1} (order-1 Lorenzo).
	PredictorLorenzo
	// PredictorLinear predicts x_i ≈ 2·x′_{i−1} − x′_{i−2}.
	PredictorLinear
	// PredictorLorenzoND predicts from the Lorenzo stencil over the
	// inferred grid whether or not the sample favours it; a vector with
	// no grid (a prime length) falls back to PredictorLorenzo.
	PredictorLorenzoND
)

// Params configure compression. Zero values select the defaults used
// in the paper's experiments (65,536 quantization intervals, automatic
// predictor selection, codec.DefaultBlockElems-element blocks).
type Params struct {
	Mode       Mode
	ErrorBound float64
	Intervals  int // quantization bins; default 65536
	Predictor  Predictor
	// BlockSize is the number of elements per independently compressed
	// block (default codec.DefaultBlockElems = 256 KiB). Smaller blocks
	// expose more parallelism but pay one Huffman table per block.
	BlockSize int
}

const (
	defaultIntervals = 65536
	kindCore         = 0 // Abs/RelRange payload
	// 1 framed a constant vector; that is the container's constant
	// stream now, and no block carries it.
	// 2 is retired, not free: it framed PWRel payloads with three
	// always-stored bitmaps, and reusing it would misread such a stream.
	kindLogTransform = 3 // PWRel payload, bitmaps stored when non-empty
)

// Compress encodes x under the given parameters. The input is not
// modified. An error is returned for non-finite inputs or invalid
// parameters, never for hard-to-compress data (which degrades to
// stored values).
func Compress(x []float64, p Params) ([]byte, error) {
	return AppendCompress(nil, x, p, nil)
}

// AppendCompress is Compress appending to dst, as append does. A
// non-nil st receives the distortion the compression introduced,
// accumulated in the quantizer's own loop (it already holds every
// reconstruction the decoder will see); the bytes are the same with
// and without it, so an audited save writes the checkpoint an
// unaudited one would.
func AppendCompress(dst []byte, x []float64, p Params, st *codec.Stats) ([]byte, error) {
	p, err := normalizeParams(x, p)
	if err != nil {
		return nil, err
	}
	bc := Blocks{p: p, eb: p.ErrorBound, sten: stencil{pred: p.Predictor}}
	if p.Mode == RelRange {
		lo, hi := valueRange(x)
		if bc.eb = p.ErrorBound * (hi - lo); bc.eb == 0 {
			// Constant (or empty) data has no range to be relative to: store
			// the constant, exactly.
			c := 0.0
			if len(x) > 0 {
				c = x[0]
			}
			if st != nil {
				st.AddExact(x)
				st.Lossy = true
			}
			return codec.AppendConstant(dst, bc, len(x), c), nil
		}
	}
	if s1, s2 := inferStrides(x, p, bc.eb); s1 > 0 {
		bc.sten = stencil{PredictorLorenzoND, s1, s2}
	}
	return codec.Compress(dst, x, bc, st)
}

// normalizeParams validates p against x and fills defaults.
func normalizeParams(x []float64, p Params) (Params, error) {
	if p.ErrorBound <= 0 || math.IsNaN(p.ErrorBound) || math.IsInf(p.ErrorBound, 0) {
		return p, fmt.Errorf("sz: error bound must be positive and finite, got %v", p.ErrorBound)
	}
	if p.Mode > PWRel {
		return p, fmt.Errorf("sz: unknown mode %d", p.Mode)
	}
	if p.Predictor > PredictorLorenzoND {
		return p, fmt.Errorf("sz: unknown predictor %d", p.Predictor)
	}
	if p.Intervals == 0 {
		p.Intervals = defaultIntervals
	}
	if p.Intervals < minIntervals || p.Intervals > maxIntervals {
		return p, fmt.Errorf("sz: intervals %d outside [%d, 2^24]", p.Intervals, minIntervals)
	}
	if p.BlockSize < 0 {
		return p, fmt.Errorf("sz: negative block size %d", p.BlockSize)
	}
	if p.BlockSize == 0 {
		p.BlockSize = codec.DefaultBlockElems
	}
	if p.Mode == PWRel && p.ErrorBound >= 1 {
		return p, fmt.Errorf("sz: pointwise-relative bound must be < 1, got %v", p.ErrorBound)
	}
	if i := firstNonFinite(x); i >= 0 {
		return p, fmt.Errorf("sz: non-finite value at index %d", i)
	}
	return p, nil
}

// The quantization-bin counts the encoder writes, and so the only ones
// a decoder accepts.
const (
	minIntervals = 4
	maxIntervals = 1 << 24
)

// firstNonFinite scans x concurrently and returns the smallest index
// holding a NaN or Inf, or -1 if all values are finite.
func firstNonFinite(x []float64) int {
	var first atomic.Int64
	first.Store(int64(len(x)))
	// NaN and ±Inf share an all-ones biased exponent, so one integer
	// mask-and-compare per element replaces the IsNaN/IsInf pair.
	const expMask = 0x7FF0000000000000
	parallel.For(len(x), parallel.Grain(len(x), 1<<14, 4), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if math.Float64bits(x[i])&expMask == expMask {
				// Keep the smallest offending index so the error
				// message is deterministic under any schedule.
				for {
					cur := first.Load()
					if int64(i) >= cur || first.CompareAndSwap(cur, int64(i)) {
						break
					}
				}
				return
			}
		}
	})
	if v := first.Load(); v < int64(len(x)) {
		return int(v)
	}
	return -1
}

// Decompress reverses Compress. The output slice is freshly allocated;
// a constant stream of more than codec.MaxConstantElems values is
// rejected (DecompressInto takes the count from its destination and has
// no ceiling).
func Decompress(data []byte) ([]float64, error) {
	return codec.Decompress(data, Blocks{})
}

// DecompressInto reverses Compress into a caller-provided slice: dst
// must have exactly the stream's element count, and no output
// allocation is performed — the restore path uses it to reconstruct
// checkpointed vectors straight into the solver's registered state.
// The reconstruction is bitwise identical to Decompress. Every element
// of dst is overwritten on success; on error dst's contents are
// unspecified.
func DecompressInto(dst []float64, data []byte) error {
	return codec.DecompressInto(dst, data, Blocks{})
}

// Blocks is SZ's block codec in the blocked container
// (codec.BlockCodec). The zero value decodes the blocks of any SZ
// stream; encoding goes through AppendCompress, which makes the
// whole-vector decisions (parameter defaults, RelRange's global range,
// the grid's strides) the blocks share.
type Blocks struct {
	p    Params  // normalized
	eb   float64 // the absolute bound of Abs/RelRange blocks
	sten stencil // p.Predictor, or the grid stencil with its inferred strides
}

// ID implements codec.BlockCodec.
func (Blocks) ID() codec.ID { return codec.SZ }

// BlockSize implements codec.BlockCodec. Over a grid, blocks hold whole
// rows (2-D) or slabs (3-D) — as many as fit Params.BlockSize, at least
// one — so no block's stencil reaches into another.
func (b Blocks) BlockSize() int {
	if outer := max(b.sten.s1, b.sten.s2); outer > 0 {
		return max(b.p.BlockSize/outer, 1) * outer
	}
	return b.p.BlockSize
}

// EncodeBlock implements codec.BlockCodec: a kind byte, then the core
// or log-transform payload of x.
func (b Blocks) EncodeBlock(dst []byte, x []float64, st *codec.Stats) ([]byte, error) {
	if b.p.Intervals == 0 {
		return nil, fmt.Errorf("sz: Blocks encodes through AppendCompress only")
	}
	if st != nil {
		st.Bound, st.Relative, st.Lossy = b.eb, b.p.Mode == PWRel, true
	}
	if b.p.Mode == PWRel {
		return appendLogTransform(append(dst, kindLogTransform), x, b.p, b.sten, st)
	}
	var a *audit
	if st != nil {
		a = &audit{st: st}
	}
	return appendCore(append(dst, kindCore), x, nil, b.eb, b.sten, b.p.Intervals, a)
}

// DecodeBlockInto implements codec.BlockCodec.
func (Blocks) DecodeBlockInto(dst []float64, blk []byte) error {
	if len(blk) < 1 {
		return fmt.Errorf("sz: empty block")
	}
	switch kind, payload := blk[0], blk[1:]; kind {
	case kindCore:
		return decodeCoreInto(payload, dst)
	case kindLogTransform:
		return decodeLogTransformInto(payload, dst)
	default:
		return fmt.Errorf("sz: unknown block payload kind %d", kind)
	}
}

func valueRange(x []float64) (lo, hi float64) {
	if len(x) == 0 {
		return 0, 0
	}
	lo, hi = x[0], x[0]
	for _, v := range x[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// roundMagic rounds a float64 to the nearest integer (ties to even) by
// pushing it past the mantissa's integer boundary: adding 1.5·2^52
// forces the fraction bits out in one rounding, and subtracting it
// back recovers the rounded value. Valid for |v| < 2^51 — quantization
// bins are bounded by intervals/2 ≤ 2^23, far inside. Two float adds
// replace a math.Round call in the hottest loop. Ties round to even
// where math.Round rounds away from zero; either neighbor bin
// reconstructs at exactly eb error on a tie, so the bound recheck in
// quantStep keeps the guarantee independent of tie direction.
const roundMagic = 6755399441055744.0 // 1.5 * 2^52

// quantStep quantizes one value against its prediction: the returned
// code is 0 (unpredictable — caller stores v verbatim) or half+bin,
// and the returned value is the reconstruction the decoder will see
// (v itself when unpredictable), which becomes the next prediction
// input. inv = 1/(2·eb), twoEB = 2·eb, limit = float64(half−1). The
// bound recheck makes the quantizer self-verifying: any rounding slip
// at a bin edge (including the inv-multiply replacing the old
// division) demotes the value to unpredictable instead of breaking
// the error bound.
func quantStep(v, p, inv, twoEB, eb, limit float64, half int) (int, float64) {
	binF := (v - p) * inv
	if binF < limit && binF > -limit { // false for NaN/Inf → unpredictable
		bin := binF + roundMagic - roundMagic
		r := p + twoEB*bin
		d := v - r
		if d <= eb && d >= -eb {
			return half + int(bin), r
		}
	}
	return 0, v
}

// binCost is the coded-magnitude proxy of a value d bins from its
// prediction (bits.Len of the bin magnitude — an integer stand-in for
// the log2 entropy proxy); an unpredictable value costs unpredCost.
func binCost(d uint64) int { return bits.Len64(2*d + 2) }

const unpredCost = 64 // the full value is stored

// choosePredictor dry-runs both 1-D predictors on the head of a block
// and picks the one with the lower total binCost.
func choosePredictor(x []float64, eb float64, intervals int) Predictor {
	half := intervals / 2
	inv := 1 / (2 * eb)
	twoEB := 2 * eb
	limit := float64(half - 1)
	cost := func(pred Predictor) int {
		c := 0
		var prev, prev2 float64
		for i, v := range x[:min(len(x), 4096)] {
			code, r := quantStep(v, predict(pred, prev, prev2, nil, nil, nil, i), inv, twoEB, eb, limit, half)
			if code == 0 {
				c += unpredCost
			} else {
				c += binCost(uint64(max(code-half, half-code)))
			}
			prev2, prev = prev, r
		}
		return c
	}
	if cost(PredictorLinear) < cost(PredictorLorenzo) {
		return PredictorLinear
	}
	return PredictorLorenzo
}

const (
	// inferSamples elements price a candidate grid, the first
	// inferScreen of them screen it, in sixteenths of a quantization bin
	// (inferSub); a vector shorter than inferFloor is not looked at (the
	// sample would be a quarter of it, and a Huffman table outweighs
	// what a grid that small can save).
	inferSamples = 256
	inferScreen  = 32
	inferSub     = 16
	inferFloor   = 1024
)

// sampler prices prediction stencils on a fixed sample of x.
type sampler struct {
	x     []float64
	at    [inferSamples]int
	inv   float64 // cost units per unit of residual
	limit float64 // units past which a value is unpredictable
	logs  bool    // PWRel: the residual is of ln|x|
}

// cost prices, on the first m samples, the stencil that adds the
// values plus[k] elements back and subtracts those minus[k] back: the
// total binCost — over that of a perfect prediction, so that prices
// compare by ratio — of the sampled elements, each predicted from the
// original values behind it. Under PWRel the quantizer will see
// logarithms, so sums become products and the residual ln(N/D) is taken
// to first order, 2(N−D)/(N+D): a sample has no logarithm to spare per
// candidate, and only small residuals tell candidates apart.
func (s *sampler) cost(plus, minus []int, m int) int {
	c := 0
	for _, i := range s.at[:m] {
		res := s.x[i]
		if s.logs {
			num := 1.0
			for _, o := range plus {
				num *= s.x[i-o]
			}
			for _, o := range minus {
				res *= s.x[i-o]
			}
			num, res = math.Abs(num), math.Abs(res)
			res = 2 * (num - res) / (num + res)
		} else {
			for _, o := range plus {
				res -= s.x[i-o]
			}
			for _, o := range minus {
				res += s.x[i-o]
			}
		}
		if d := math.Abs(res) * s.inv; d < s.limit { // false for NaN
			c += binCost(uint64(int64(d+0.5))) - binCost(0)
		} else {
			c += unpredCost
		}
	}
	return c
}

// lorenzo prices the Lorenzo stencil over strides (s1, s2), s2 == 0
// being the 2-D form.
func (s *sampler) lorenzo(s1, s2, m int) int {
	if s2 == 0 {
		return s.cost([]int{1, s1}, []int{s1 + 1}, m)
	}
	return s.cost([]int{1, s1, s2, s1 + s2 + 1}, []int{s1 + 1, s2 + 1, s1 + s2}, m)
}

// inferStrides finds the grid x is a flattened field of: the strides
// (s1, s2) of its rows and slabs, s2 == 0 for a 2-D grid, (0, 0) unless
// prediction over a grid prices a sixteenth below both 1-D rules on the
// sample (or p does not ask). A solver's iterate does not carry its
// shape through a checkpoint library, but it shows: candidates are the
// divisor chains s1 | s2 | len(x), searched greedily — the best single
// stride under the 2-D stencil, then the best second one comparable
// with it under the 3-D stencil, kept if it saves a sixteenth again and
// two slabs fit a block — with near-ties going to the smaller stride
// (on a cube the y and the z neighbour predict equally well, and so
// nearly do their multiples). A pure function of (x, p, eb): the bytes
// depend on no schedule and no history.
func inferStrides(x []float64, p Params, eb float64) (s1, s2 int) {
	n := len(x)
	forced := p.Predictor == PredictorLorenzoND
	if !forced && (p.Predictor != PredictorAuto || n < inferFloor) {
		return 0, 0
	}
	if p.Mode == PWRel {
		eb = math.Log1p(eb)
	}
	s := sampler{x: x, inv: inferSub / (2 * eb), limit: inferSub * float64(p.Intervals/2-1), logs: p.Mode == PWRel}
	// Samples come from the back half, so that every stencil reaching
	// at most reach elements back finds all its neighbours, at
	// golden-ratio steps, which line up with no grid and leave every
	// prefix of the sample as evenly spread as the whole.
	reach := n - n/2
	for k := range s.at {
		s.at[k] = n - 1 - int((uint64(k+1)*0x9E3779B97F4A7C15>>32)*uint64(n/2)>>32)
	}
	var divs, large []int // divisors of n with a row and an element more in reach
	for d := 2; d*d <= n && d < reach; d++ {
		if n%d == 0 {
			divs = append(divs, d)
			if q := n / d; q != d && q < reach {
				large = append(large, q)
			}
		}
	}
	slices.Reverse(large)
	divs = append(divs, large...)
	// pick screens the candidates on a prefix of the sample, prices on
	// all of it those within a quarter (and a unit a sample) of the
	// cheapest, and returns the smallest within a quarter of the
	// cheapest, with its price; 0 when none prices under ceiling.
	// Stencils the candidate has none of price at math.MaxInt.
	costs := make([]int, len(divs))
	pick := func(ceiling int, cost func(d, m int) int) (int, int) {
		screen := math.MaxInt
		for k, d := range divs {
			costs[k] = cost(d, inferScreen)
			screen = min(screen, costs[k])
		}
		best := ceiling
		for k, d := range divs {
			if costs[k] < math.MaxInt && costs[k] <= screen+screen/4+inferScreen {
				costs[k] = cost(d, inferSamples)
				best = min(best, costs[k])
			} else {
				costs[k] = math.MaxInt
			}
		}
		for k, c := range costs {
			if c < ceiling && c <= best+best/4 {
				return divs[k], c
			}
		}
		return 0, 0
	}
	ceiling := math.MaxInt / 2
	if !forced {
		oneD := min(s.cost([]int{1}, nil, inferSamples), s.cost([]int{1, 1}, []int{2}, inferSamples))
		ceiling = oneD - oneD/16
	}
	a, cost := pick(ceiling, func(d, m int) int { return s.lorenzo(d, 0, m) })
	if a == 0 {
		return 0, 0
	}
	b, _ := pick(cost-cost/16, func(d, m int) int {
		lo, hi := min(a, d), max(a, d)
		if lo == hi || hi%lo != 0 || lo+hi >= reach || 2*hi > p.BlockSize {
			return math.MaxInt
		}
		return s.lorenzo(lo, hi, m)
	})
	if b == 0 {
		return a, 0
	}
	return min(a, b), max(a, b)
}

// stencil is the prediction rule of one block: the predictor and, for
// PredictorLorenzoND, the strides of the grid it steps back over — one
// row (s1) and one slab (s2; 0 on a 2-D grid).
type stencil struct {
	pred   Predictor
	s1, s2 int
}

// predict is the one prediction both directions run, so their float
// operation order cannot diverge. It predicts element j of a row from
// prev and prev2, the reconstructions of elements j−1 and j−2 (0
// before the row starts), and — PredictorLorenzoND only — from the
// reconstructed rows one step back along each outer axis (stencil.rows):
//
//	x′(i−1) + x′(i−s1) − x′(i−s1−1) + x′(i−s2) − x′(i−s2−1) − x′(i−s2−s1) + x′(i−s2−s1−1)
//
// with every neighbour outside the block, the slab or the row reading
// as zero. The 1-D rules see a whole block as one row.
func predict(pred Predictor, prev, prev2 float64, up, back, ub []float64, j int) float64 {
	switch {
	case pred == PredictorLorenzoND && j > 0:
		return prev + ((up[j] - up[j-1]) + (back[j] - back[j-1]) - (ub[j] - ub[j-1]))
	case pred == PredictorLorenzoND:
		return up[0] + back[0] - ub[0]
	case pred == PredictorLinear && j > 1:
		return 2*prev - prev2
	}
	return prev
}

// rows returns what predict reads beside the w-element row that starts
// at element b of the block reconstructed in r: the row above it (up),
// the same row of the slab behind (back) and the row above that one
// (ub), each the all-zero row where the block or the slab has none.
func (s stencil) rows(r, zero []float64, b, w int) (up, back, ub []float64) {
	if s.pred != PredictorLorenzoND {
		return nil, nil, nil
	}
	up, back, ub = zero[:w], zero[:w], zero[:w]
	hasUp := b >= s.s1 && (s.s2 == 0 || b%s.s2 != 0)
	if hasUp {
		up = r[b-s.s1:][:w]
	}
	if s.s2 != 0 && b >= s.s2 {
		back = r[b-s.s2:][:w]
		if hasUp {
			ub = r[b-s.s2-s.s1:][:w]
		}
	}
	return up, back, ub
}

// rowLen is the run of elements predict treats as one row, and zeroRow
// the pooled all-zero row an absent neighbour reads as (nil for the 1-D
// rules); the caller returns it to the pool.
func (s stencil) rowLen(n int) (w int, zeroRow []float64) {
	if s.pred != PredictorLorenzoND {
		return n, nil
	}
	zeroRow = parallel.GetFloat64s(s.s1)[:s.s1]
	clear(zeroRow)
	return s.s1, zeroRow
}

// audit is the distortion accumulator of one block, fed by the
// quantizer loop behind a nil check: the reconstruction is in a
// register there, so an audited encode costs no decode pass and an
// unaudited one a predictable branch.
//
// mags is nil in the value domain (Abs/RelRange: the native and
// absolute errors coincide). On the PWRel path the quantizer sees
// logarithms, mags holds the corresponding |value| magnitudes and
// fcorr the fast-log accuracy margin: the per-element relative error
// is then bounded by expm1(|log error| + fcorr) and the absolute error
// by that times the magnitude.
type audit struct {
	st    *codec.Stats
	mags  []float64
	fcorr float64
}

// add folds element i: v as the quantizer saw it, r its reconstruction.
func (a *audit) add(i int, v, r float64) {
	d := math.Abs(v - r)
	if a.mags == nil {
		a.st.Add(math.Abs(v), d, d)
		return
	}
	rel := math.Expm1(d + a.fcorr)
	a.st.Add(a.mags[i], rel, rel*a.mags[i])
}

// appendCore runs the ABS-bound pipeline (predict → quantize →
// Huffman), appending the payload to dst. All large scratch state
// comes from the parallel package's pools, keeping the per-call
// allocation profile flat even when many blocks encode concurrently.
// One loop serves every predictor, row by row: the 1-D rules keep the
// reconstructed prefix in two registers, the N-D stencil also writes
// it to r — a pooled array when r is nil; the PWRel path passes x
// itself, each logarithm being read once and then overwritten.
// quantStep's multiply-and-magic-round replaces a divide and a
// math.Round. A non-nil a audits every element where it is quantized.
func appendCore(dst []byte, x, r []float64, eb float64, sten stencil, intervals int, a *audit) ([]byte, error) {
	n := len(x)
	if sten.pred == PredictorLorenzoND {
		// A block of one slab has none behind it, and one without a whole
		// row and an element more is no grid: the header says what the
		// decoder will find, and holds to what it validates.
		if sten.s1+sten.s2 >= n {
			sten.s2 = 0
		}
		if sten.s1 == 0 || sten.s1 >= n {
			sten = stencil{pred: PredictorLorenzo}
		}
	}
	if sten.pred == PredictorAuto {
		sten.pred = choosePredictor(x, eb, intervals)
	}
	rowLen, zero := sten.rowLen(n)
	if zero != nil {
		defer parallel.PutFloat64s(zero)
		if r == nil {
			r = parallel.GetFloat64s(n)[:n]
			defer parallel.PutFloat64s(r)
		}
	}
	half := intervals / 2
	codes := parallel.GetInts(n)[:n]
	defer parallel.PutInts(codes)
	unpred := parallel.GetFloat64s(0)
	defer func() { parallel.PutFloat64s(unpred) }()
	inv := 1 / (2 * eb)
	twoEB := 2 * eb
	limit := float64(half - 1)
	for b := 0; b < n; b += rowLen {
		w := min(rowLen, n-b)
		up, back, ub := sten.rows(r, zero, b, w)
		var prev, prev2 float64
		for j, v := range x[b : b+w] {
			code, rv := quantStep(v, predict(sten.pred, prev, prev2, up, back, ub, j), inv, twoEB, eb, limit, half)
			if code == 0 {
				unpred = append(unpred, v)
			}
			codes[b+j] = code
			if a != nil {
				a.add(b+j, v, rv)
			}
			if zero != nil {
				r[b+j] = rv
			}
			prev2, prev = prev, rv
		}
	}
	hstream := parallel.GetBytes(n)
	defer func() { parallel.PutBytes(hstream) }()
	hstream, err := huffman.AppendEncode(hstream, codes, intervals)
	if err != nil {
		return nil, err
	}
	return emitCore(dst, n, eb, sten, intervals, hstream, unpred), nil
}

// emitCore appends the core payload framing to dst:
//
//	uvarint n | float64 eb | predictor byte [| uvarint s1 | uvarint s2]
//	          | uvarint intervals | uvarint nUnpred | uvarint hlen
//	          | Huffman stream | nUnpred × float64
//
// The strides follow the predictor byte of PredictorLorenzoND only.
func emitCore(dst []byte, n int, eb float64, sten stencil, intervals int, hstream []byte, unpred []float64) []byte {
	out := binary.AppendUvarint(dst, uint64(n))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(eb))
	out = append(out, byte(sten.pred))
	if sten.pred == PredictorLorenzoND {
		out = binary.AppendUvarint(out, uint64(sten.s1))
		out = binary.AppendUvarint(out, uint64(sten.s2))
	}
	out = binary.AppendUvarint(out, uint64(intervals))
	out = binary.AppendUvarint(out, uint64(len(unpred)))
	out = binary.AppendUvarint(out, uint64(len(hstream)))
	out = append(out, hstream...)
	for _, v := range unpred {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// decodeCoreInto decodes a core payload into recon, whose length must
// match the stored element count (the container decodes each block
// straight into its slice of the output vector). Nothing is written to
// recon before the header and the Huffman stream have been accepted.
func decodeCoreInto(p []byte, recon []float64) error {
	off := 0
	getUvarint := func() (uint64, error) {
		v, k := binary.Uvarint(p[off:])
		if k <= 0 {
			return 0, fmt.Errorf("sz: truncated core header")
		}
		off += k
		return v, nil
	}
	n64, err := getUvarint()
	if err != nil {
		return err
	}
	if off+9 > len(p) {
		return fmt.Errorf("sz: truncated core header")
	}
	eb := math.Float64frombits(binary.LittleEndian.Uint64(p[off:]))
	off += 8
	sten := stencil{pred: Predictor(p[off])}
	off++
	// Only the rules the encoder writes: any other byte is a damaged or
	// a future stream, and guessing a rule for it reconstructs garbage
	// under no bound where an error falls back to the previous checkpoint.
	switch sten.pred {
	case PredictorLorenzo, PredictorLinear:
	case PredictorLorenzoND:
		s1, err := getUvarint()
		if err != nil {
			return err
		}
		s2, err := getUvarint()
		if err != nil {
			return err
		}
		// In uint64, before any index or pool request is derived from
		// them: a whole row, a whole slab and one element more fit the
		// block, and slabs are whole rows.
		if s1 == 0 || s1 >= n64 || s2 >= n64-s1 || s2%s1 != 0 {
			return fmt.Errorf("sz: corrupt core header (strides %d, %d over %d values)", s1, s2, n64)
		}
		sten.s1, sten.s2 = int(s1), int(s2)
	default:
		return fmt.Errorf("sz: unknown predictor %d", byte(sten.pred))
	}
	intervals64, err := getUvarint()
	if err != nil {
		return err
	}
	nUnpred, err := getUvarint()
	if err != nil {
		return err
	}
	hlen, err := getUvarint()
	if err != nil {
		return err
	}
	// Compare in uint64 against what is left: a crafted length converted
	// to int first can wrap negative and slip past the check.
	if rem := uint64(len(p) - off); hlen > rem || nUnpred > (rem-hlen)/8 {
		return fmt.Errorf("sz: truncated core payload")
	}
	// Only what the encoder can write: a NaN, infinite or non-positive
	// bound, or a bin count outside the encoder's range, reconstructs
	// NaN/Inf/garbage without an error — a silently divergent restart.
	if !(eb > 0) || math.IsInf(eb, 0) || intervals64 < minIntervals || intervals64 > maxIntervals {
		return fmt.Errorf("sz: corrupt core header (bound %v, %d intervals)", eb, intervals64)
	}
	// Every value costs at least one bit in the Huffman stream, so a
	// count beyond 8× the payload bytes is corrupt; checking before
	// allocating keeps crafted headers from demanding terabytes.
	if n64 > 8*uint64(len(p)) {
		return fmt.Errorf("sz: %d values exceed %d payload bytes", n64, len(p))
	}
	cbuf := parallel.GetInts(int(n64))
	codes, err := huffman.DecodeInto(p[off:off+int(hlen)], cbuf)
	if err != nil {
		parallel.PutInts(cbuf)
		return err
	}
	defer parallel.PutInts(codes)
	off += int(hlen)
	n := int(n64)
	if len(codes) != n {
		return fmt.Errorf("sz: decoded %d codes for %d values", len(codes), n)
	}
	if len(recon) != n {
		return fmt.Errorf("sz: core block holds %d values, expected %d", n, len(recon))
	}
	stored := p[off : off+8*int(nUnpred)]
	return sten.reconstruct(recon, codes, stored, 2*eb, int(intervals64)/2)
}

// reconstruct fills recon from a block's codes: the prediction plus
// 2·eb·bin or, where the code is 0, the next of the stored values. It
// mirrors the encoder's loop through the same predict, and the
// arithmetic is what every earlier encoder's quantStep computed, so
// their streams decode bitwise identically. Order-1 Lorenzo — what a
// vector with no grid mostly decodes through — keeps a loop of its own:
// three instructions an element, which predict's dispatch doubles.
func (s stencil) reconstruct(recon []float64, codes []int, stored []byte, twoEB float64, half int) error {
	overflow := func(i int) error { return fmt.Errorf("sz: unpredictable count overflow at %d", i) }
	if s.pred == PredictorLorenzo {
		prev := 0.0
		for i, c := range codes {
			if c != 0 {
				prev += twoEB * float64(c-half)
			} else if len(stored) >= 8 {
				prev, stored = math.Float64frombits(binary.LittleEndian.Uint64(stored)), stored[8:]
			} else {
				return overflow(i)
			}
			recon[i] = prev
		}
	} else {
		n := len(recon)
		rowLen, zero := s.rowLen(n)
		if zero != nil {
			defer parallel.PutFloat64s(zero)
		}
		for b := 0; b < n; b += rowLen {
			cur := recon[b:min(b+rowLen, n)]
			up, back, ub := s.rows(recon, zero, b, len(cur))
			var prev, prev2 float64
			for j, c := range codes[b:][:len(cur)] {
				v := predict(s.pred, prev, prev2, up, back, ub, j) + twoEB*float64(c-half)
				if c == 0 {
					if len(stored) < 8 {
						return overflow(b + j)
					}
					v, stored = math.Float64frombits(binary.LittleEndian.Uint64(stored)), stored[8:]
				}
				cur[j] = v
				prev2, prev = prev, v
			}
		}
	}
	if len(stored) != 0 {
		return fmt.Errorf("sz: %d unpredictable values stored and not consumed", len(stored)/8)
	}
	return nil
}

// tinyThreshold separates values that survive the log transform from
// deep subnormals: below the smallest normal float64, exp(ln|v|)
// cannot reproduce v within any relative bound (the ulp of a subnormal
// is comparable to the value itself), so such values are stored
// verbatim. Real SZ shares this limitation; storing them exactly is
// strictly safer.
const tinyThreshold = 2.2250738585072014e-308 // math.SmallestNormalFloat64

// appendLogTransform implements the pointwise-relative bound by
// compressing ln|x| under the absolute bound ln(1+eb), appending the
// payload to dst. Signs, exact zeros, and subnormal values travel in
// side channels; zeros and subnormals reconstruct exactly, trivially
// satisfying the bound — and an audit (st non-nil) counts them so,
// while the log-compressed elements carry their magnitudes into the
// quantizer loop for the relative→absolute conversion.
func appendLogTransform(dst []byte, x []float64, p Params, sten stencil, st *codec.Stats) ([]byte, error) {
	n := len(x)
	nb := (n + 7) / 8
	// One pooled buffer holds all three bitmaps back to back in stream
	// order (zeros | signs | tiny), as emitLogHeader takes them.
	bitmaps := parallel.GetBytes(3 * nb)[:3*nb]
	defer func() { parallel.PutBytes(bitmaps) }()
	for i := range bitmaps {
		bitmaps[i] = 0
	}
	zeros := bitmaps[:nb]
	signs := bitmaps[nb : 2*nb]
	tiny := bitmaps[2*nb : 3*nb]
	var exact []float64
	logs := parallel.GetFloat64s(n)
	defer func() { parallel.PutFloat64s(logs) }()

	// fastLog is accurate to fastLogErr, not correctly rounded, so the
	// encoder quantizes under a bound tightened by exactly that much:
	// reconstruction stays within ln(1+eb) of the true logarithm. The
	// tightened bound travels in the core sub-stream, so decoders are
	// oblivious. For bounds so tight the tightening would cost more
	// than half the budget (eb below ~2e-12), fall back to math.Log.
	lnb := math.Log1p(p.ErrorBound)
	lnbEnc := lnb - fastLogErr
	useFast := lnbEnc > 0.5*lnb
	if !useFast {
		lnbEnc = lnb
	}
	var a *audit
	if st != nil {
		a = &audit{st: st, mags: parallel.GetFloat64s(n)}
		defer func() { parallel.PutFloat64s(a.mags) }()
		if useFast {
			a.fcorr = fastLogErr
		}
	}

	// Classification works on the raw bits: sign, zero, and subnormal
	// tests are integer compares (tinyThreshold is the smallest normal,
	// so "below it" is exactly "biased exponent zero").
	for i, v := range x {
		b := math.Float64bits(v)
		abs := b &^ (1 << 63)
		bit := byte(1) << (uint(i) & 7)
		if abs == 0 {
			zeros[i>>3] |= bit
			if a != nil {
				st.Add(0, 0, 0)
			}
			continue
		}
		if b != abs {
			signs[i>>3] |= bit
		}
		if abs < 1<<52 { // biased exponent 0: subnormal
			tiny[i>>3] |= bit
			exact = append(exact, math.Float64frombits(abs))
			if a != nil {
				st.Add(math.Float64frombits(abs), 0, 0)
			}
			continue
		}
		if useFast {
			logs = append(logs, fastLog(abs))
		} else {
			logs = append(logs, math.Log(math.Float64frombits(abs)))
		}
		if a != nil {
			a.mags = append(a.mags, math.Float64frombits(abs))
		}
	}
	if len(logs) != n && sten.pred == PredictorLorenzoND {
		// Zeros and subnormals travel beside the logarithms, not among
		// them: what is left of the block is no longer the grid.
		sten = stencil{}
	}
	return appendCore(emitLogHeader(dst, n, bitmaps, exact), logs, logs, lnbEnc, sten, p.Intervals, a)
}

// emitLogHeader appends the log-transform framing that precedes the
// core sub-stream of the logarithms:
//
//	uvarint n | presence byte | stored bitmaps | uvarint nExact | nExact × float64
//
// bitmaps holds the zeros, signs and tiny bitmaps back to back, each
// ⌈n/8⌉ bytes. Bit j of the presence byte says that bitmap j has a bit
// set and is stored; an absent bitmap decodes as all-clear. A strictly
// positive vector of normal values — a converging solver's iterate —
// stores none, where three always-present bitmaps cost 3 bits per
// element.
func emitLogHeader(dst []byte, n int, bitmaps []byte, exact []float64) []byte {
	out := binary.AppendUvarint(dst, uint64(n))
	presenceAt := len(out)
	out = append(out, 0)
	nb := len(bitmaps) / 3
	for j := 0; j < 3; j++ {
		bm := bitmaps[j*nb : (j+1)*nb]
		var set byte
		for _, b := range bm {
			set |= b
		}
		if set != 0 {
			out[presenceAt] |= 1 << j
			out = append(out, bm...)
		}
	}
	out = binary.AppendUvarint(out, uint64(len(exact)))
	for _, v := range exact {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// bitSet reports bit i of a bitmap; an absent (nil) bitmap is all-clear.
func bitSet(bm []byte, i int) bool {
	return bm != nil && bm[i>>3]&(1<<(uint(i)&7)) != 0
}

// decodeLogTransformInto decodes a log-transform payload (the layout
// emitLogHeader documents, then the core sub-stream) into out, whose
// length must match the stored count.
func decodeLogTransformInto(p []byte, out []float64) error {
	n64, k := binary.Uvarint(p)
	if k <= 0 || k >= len(p) {
		return fmt.Errorf("sz: truncated log header")
	}
	// Every element costs at least one bit — in the zeros or tiny
	// bitmap, or in the core sub-stream's Huffman codes — so a count
	// beyond 8× the payload bytes is corrupt. All header arithmetic
	// stays in uint64 against the bytes that remain until it has passed
	// such a check: a crafted count converted or multiplied first wraps.
	if n64 > 8*uint64(len(p)) {
		return fmt.Errorf("sz: %d values exceed %d payload bytes", n64, len(p))
	}
	n := int(n64)
	nb := (n + 7) / 8
	presence := p[k]
	off := k + 1
	if presence > 7 {
		return fmt.Errorf("sz: invalid bitmap presence byte %#x", presence)
	}
	var maps [3][]byte // nil when absent: all-clear
	for j := range maps {
		if presence&(1<<j) == 0 {
			continue
		}
		if nb > len(p)-off {
			return fmt.Errorf("sz: truncated bitmaps")
		}
		maps[j] = p[off : off+nb]
		off += nb
	}
	zeros, signs, tiny := maps[0], maps[1], maps[2]
	nExact64, k := binary.Uvarint(p[off:])
	if k <= 0 {
		return fmt.Errorf("sz: truncated exact-list header")
	}
	off += k
	if nExact64 > uint64(len(p)-off)/8 {
		return fmt.Errorf("sz: truncated exact list")
	}
	nExact := int(nExact64)
	exact := p[off : off+8*nExact]
	off += 8 * nExact
	// The core sub-stream leads with its element count; peeking it lets
	// the log buffer come from the scratch pool instead of a fresh
	// allocation per block.
	nLogs64, k := binary.Uvarint(p[off:])
	if k <= 0 {
		return fmt.Errorf("sz: truncated core header")
	}
	if nLogs64 > uint64(n) {
		return fmt.Errorf("sz: %d logs for %d values", nLogs64, n)
	}
	lbuf := parallel.GetFloat64s(int(nLogs64))
	defer func() { parallel.PutFloat64s(lbuf) }()
	logs := lbuf[:nLogs64]
	if len(out) != n {
		return fmt.Errorf("sz: log block holds %d values, expected %d", n, len(out))
	}
	if err := decodeCoreInto(p[off:], logs); err != nil {
		return err
	}
	li, ei := 0, 0
	for i := 0; i < n; i++ {
		if bitSet(zeros, i) {
			out[i] = 0
			continue
		}
		var v float64
		if bitSet(tiny, i) {
			if ei >= nExact {
				return fmt.Errorf("sz: exact list underflow at %d", i)
			}
			v = math.Float64frombits(binary.LittleEndian.Uint64(exact[8*ei:]))
			ei++
		} else {
			if li >= len(logs) {
				return fmt.Errorf("sz: log stream underflow at %d", i)
			}
			v = math.Exp(logs[li])
			li++
		}
		if bitSet(signs, i) {
			v = -v
		}
		out[i] = v
	}
	if li != len(logs) || ei != nExact {
		return fmt.Errorf("sz: stored %d logs/%d exact, consumed %d/%d", len(logs), nExact, li, ei)
	}
	return nil
}
