package sz

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/huffman"
	"repro/internal/parallel"
)

// Stats summarizes the pointwise distortion a compression introduced,
// accumulated on the encode path: the quantizer already computes the
// reconstruction the decoder will see (quantStep returns it as the
// next prediction input), so the error of every element is available
// for free — no decode pass is needed to audit a checkpoint.
//
// Errors are reported in the bound's native metric: absolute error for
// Abs and RelRange streams, relative error for PWRel streams
// (Relative tells them apart). For PWRel the per-element relative
// error is a certified upper bound — expm1 of the log-domain
// quantization error plus the fast-log accuracy margin — so
// MaxErr ≤ Bound is guaranteed whenever the compression succeeded,
// matching the decoder's actual reconstruction guarantee. Absolute
// errors additionally feed SumSqAbs so RMSE/PSNR are always in the
// value domain regardless of mode.
type Stats struct {
	// Elements is the number of values audited (= len(x)).
	Elements int
	// MaxErr and SumErr are the max and sum of per-element errors in
	// the bound's native metric (absolute, or relative when Relative).
	MaxErr float64
	SumErr float64
	// SumSqAbs is the sum of squared *absolute* errors (value domain),
	// for RMSE and PSNR.
	SumSqAbs float64
	// MaxAbsValue is max |x_i|, the PSNR peak.
	MaxAbsValue float64
	// Bound is the requested error bound in the same metric as MaxErr:
	// the absolute bound for Abs, the range-derived absolute bound for
	// RelRange, the relative bound for PWRel.
	Bound float64
	// Relative reports whether MaxErr/SumErr/Bound are relative
	// (PWRel) rather than absolute errors.
	Relative bool
}

// addElem folds one element: absV = |x_i|, nativeErr the error in the
// bound's metric, absErr the absolute (value-domain) error.
func (s *Stats) addElem(absV, nativeErr, absErr float64) {
	s.Elements++
	if absV > s.MaxAbsValue {
		s.MaxAbsValue = absV
	}
	if nativeErr > s.MaxErr {
		s.MaxErr = nativeErr
	}
	s.SumErr += nativeErr
	s.SumSqAbs += absErr * absErr
}

// Merge folds another block's stats into s (Bound/Relative must
// agree, which per-block encoding of one stream guarantees).
func (s *Stats) Merge(o Stats) {
	s.Elements += o.Elements
	if o.MaxErr > s.MaxErr {
		s.MaxErr = o.MaxErr
	}
	s.SumErr += o.SumErr
	s.SumSqAbs += o.SumSqAbs
	if o.MaxAbsValue > s.MaxAbsValue {
		s.MaxAbsValue = o.MaxAbsValue
	}
}

// MeanErr returns the mean per-element error in the bound's metric.
func (s Stats) MeanErr() float64 {
	if s.Elements == 0 {
		return 0
	}
	return s.SumErr / float64(s.Elements)
}

// RMSE returns the root-mean-square absolute error.
func (s Stats) RMSE() float64 {
	if s.Elements == 0 {
		return 0
	}
	return math.Sqrt(s.SumSqAbs / float64(s.Elements))
}

// PSNR returns the peak signal-to-noise ratio in dB
// (20·log10(peak/RMSE)); +Inf for exact reconstructions and 0 for an
// all-zero input.
func (s Stats) PSNR() float64 {
	rmse := s.RMSE()
	if rmse == 0 {
		if s.MaxAbsValue == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return 20 * math.Log10(s.MaxAbsValue/rmse)
}

// BoundRatio returns MaxErr/Bound — ≤ 1 means the observed distortion
// stayed inside the requested bound. Zero-bound (exact) streams return 0.
func (s Stats) BoundRatio() float64 {
	if s.Bound == 0 {
		return 0
	}
	return s.MaxErr / s.Bound
}

// CompressWithStats is Compress plus encode-path distortion
// accounting. The output bytes are bitwise identical to Compress on
// the same input and parameters — the stats loops make exactly the
// same predictor and quantizer decisions and emit through the same
// framing code — so an audited save writes the same checkpoint an
// unaudited one would.
func CompressWithStats(x []float64, p Params) ([]byte, Stats, error) {
	p, err := normalizeParams(x, p)
	if err != nil {
		return nil, Stats{}, err
	}
	if len(x) <= p.BlockSize {
		return compressLegacyStats(x, p)
	}
	return compressBlockedStats(x, p)
}

// compressLegacyStats mirrors compressLegacy with accumulation.
func compressLegacyStats(x []float64, p Params) ([]byte, Stats, error) {
	out := []byte(magic)
	out = append(out, byte(p.Mode))
	var st Stats

	switch p.Mode {
	case Abs, RelRange:
		eb := p.ErrorBound
		if p.Mode == RelRange {
			lo, hi := valueRange(x)
			eb = p.ErrorBound * (hi - lo)
			if eb == 0 {
				// Constant data stores the constant exactly: zero error.
				st.Elements = len(x)
				if len(x) > 0 {
					st.MaxAbsValue = math.Abs(x[0])
				}
				return appendConstant(out, x), st, nil
			}
		}
		st.Bound = eb
		out = append(out, kindCore)
		out, err := appendCoreStats(out, x, eb, p.Predictor, p.Intervals, nil, 0, &st)
		return out, st, err

	case PWRel:
		st.Bound = p.ErrorBound
		st.Relative = true
		out = append(out, kindLogTransform)
		out, err := appendLogTransformStats(out, x, p, &st)
		return out, st, err
	}
	return nil, Stats{}, fmt.Errorf("sz: unknown mode %d", p.Mode)
}

// compressBlockedStats mirrors compressBlocked: per-block stats are
// accumulated alongside each block's independent compression and
// merged in block order, so the result is schedule-independent.
func compressBlockedStats(x []float64, p Params) ([]byte, Stats, error) {
	n := len(x)
	blockElems := p.BlockSize
	nBlocks := (n + blockElems - 1) / blockElems

	var total Stats
	ebAbs := p.ErrorBound
	if p.Mode == RelRange {
		lo, hi := valueRange(x)
		ebAbs = p.ErrorBound * (hi - lo)
		if ebAbs == 0 {
			out := []byte(magic)
			out = append(out, byte(p.Mode))
			total.Elements = n
			if n > 0 {
				total.MaxAbsValue = math.Abs(x[0])
			}
			return appendConstant(out, x), total, nil
		}
	}
	if p.Mode == PWRel {
		total.Bound = p.ErrorBound
		total.Relative = true
	} else {
		total.Bound = ebAbs
	}

	blocks := make([][]byte, nBlocks)
	errs := make([]error, nBlocks)
	stats := make([]Stats, nBlocks)
	parallel.For(nBlocks, 1, func(lo, hi int) {
		for b := lo; b < hi; b++ {
			start := b * blockElems
			end := start + blockElems
			if end > n {
				end = n
			}
			chunk := x[start:end]
			buf := parallel.GetBytes(len(chunk) + 64)
			var err error
			switch p.Mode {
			case Abs, RelRange:
				buf = append(buf, kindCore)
				buf, err = appendCoreStats(buf, chunk, ebAbs, p.Predictor, p.Intervals, nil, 0, &stats[b])
			case PWRel:
				buf = append(buf, kindLogTransform)
				buf, err = appendLogTransformStats(buf, chunk, p, &stats[b])
			default:
				err = fmt.Errorf("sz: unknown mode %d", p.Mode)
			}
			blocks[b], errs[b] = buf, err
		}
	})
	for b, err := range errs {
		if err != nil {
			return nil, Stats{}, fmt.Errorf("sz: block %d: %w", b, err)
		}
	}
	for _, st := range stats {
		total.Merge(st)
	}

	totalBytes := 0
	for _, blk := range blocks {
		totalBytes += len(blk)
	}
	out := make([]byte, 0, totalBytes+16+binary.MaxVarintLen64*(nBlocks+3))
	out = append(out, magicBlocked...)
	out = append(out, byte(p.Mode))
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		k := binary.PutUvarint(scratch[:], v)
		out = append(out, scratch[:k]...)
	}
	putUvarint(uint64(n))
	putUvarint(uint64(blockElems))
	putUvarint(uint64(nBlocks))
	for _, blk := range blocks {
		putUvarint(uint64(len(blk)))
	}
	for b, blk := range blocks {
		out = append(out, blk...)
		parallel.PutBytes(blk)
		blocks[b] = nil
	}
	return out, total, nil
}

// appendCoreStats is appendCore with per-element error accumulation.
// The quantization decisions are identical (same quantStep, same
// PredictorAuto resolution) and the payload is emitted through the
// shared emitCore, so the bytes match appendCore exactly; the loop is
// the generic-predictor form rather than the specialized hot loops,
// which only audited saves pay for.
//
// mags is nil on the Abs/RelRange path (x is the value domain; the
// native and absolute errors coincide). On the PWRel path x holds the
// log-domain values, mags the corresponding |value| magnitudes, and
// fcorr the fast-log accuracy margin: the per-element relative error
// is then bounded by expm1(|log error| + fcorr) and the absolute
// error by that times the magnitude.
func appendCoreStats(dst []byte, x []float64, eb float64, pred Predictor, intervals int, mags []float64, fcorr float64, st *Stats) ([]byte, error) {
	if pred == PredictorAuto {
		pred = choosePredictor(x, eb, intervals)
	}
	n := len(x)
	half := intervals / 2
	codes := parallel.GetInts(n)[:n]
	defer parallel.PutInts(codes)
	unpred := parallel.GetFloat64s(0)
	defer func() { parallel.PutFloat64s(unpred) }()
	inv := 1 / (2 * eb)
	twoEB := 2 * eb
	limit := float64(half - 1)
	var prev, prev2 float64
	for i, v := range x {
		p := 2*prev - prev2
		if pred == PredictorLorenzo {
			p = prev
		}
		if i == 0 {
			p = 0
		} else if i == 1 {
			p = prev
		}
		code, r := quantStep(v, p, inv, twoEB, eb, limit, half)
		if code == 0 {
			unpred = append(unpred, v)
		}
		codes[i] = code
		d := v - r
		if d < 0 {
			d = -d
		}
		if mags == nil {
			absV := v
			if absV < 0 {
				absV = -absV
			}
			st.addElem(absV, d, d)
		} else {
			rel := math.Expm1(d + fcorr)
			st.addElem(mags[i], rel, rel*mags[i])
		}
		prev2 = prev
		prev = r
	}
	hstream := parallel.GetBytes(n)
	defer func() { parallel.PutBytes(hstream) }()
	hstream, err := huffman.AppendEncode(hstream, codes, intervals)
	if err != nil {
		return nil, err
	}
	return emitCore(dst, n, eb, pred, intervals, hstream, unpred), nil
}

// appendLogTransformStats is appendLogTransform with accumulation:
// zeros and subnormals reconstruct exactly (zero error), and the
// log-compressed elements carry their magnitudes into the core stats
// loop for the relative→absolute conversion.
func appendLogTransformStats(dst []byte, x []float64, p Params, st *Stats) ([]byte, error) {
	n := len(x)
	nb := (n + 7) / 8
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
	mags := parallel.GetFloat64s(n)
	defer func() { parallel.PutFloat64s(mags) }()

	lnb := math.Log1p(p.ErrorBound)
	lnbEnc := lnb - fastLogErr
	useFast := lnbEnc > 0.5*lnb
	fcorr := fastLogErr
	if !useFast {
		lnbEnc = lnb
		fcorr = 0
	}

	for i, v := range x {
		b := math.Float64bits(v)
		abs := b &^ (1 << 63)
		bit := byte(1) << (uint(i) & 7)
		if abs == 0 {
			zeros[i>>3] |= bit
			st.addElem(0, 0, 0)
			continue
		}
		if b != abs {
			signs[i>>3] |= bit
		}
		if abs < 1<<52 { // biased exponent 0: subnormal, stored exactly
			tiny[i>>3] |= bit
			av := math.Float64frombits(abs)
			exact = append(exact, av)
			st.addElem(av, 0, 0)
			continue
		}
		if useFast {
			logs = append(logs, fastLog(abs))
		} else {
			logs = append(logs, math.Log(math.Float64frombits(abs)))
		}
		mags = append(mags, math.Float64frombits(abs))
	}
	return appendCoreStats(emitLogHeader(dst, n, bitmaps, exact), logs, lnbEnc, p.Predictor, p.Intervals, mags, fcorr, st)
}
