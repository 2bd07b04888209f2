package codec

import "math"

// Stats summarizes the pointwise distortion one vector's encoding
// introduced, accumulated on the encode path: the SZ quantizer already
// computes the reconstruction the decoder will see (it is the next
// prediction input), ZFP decodes each block while it is cache-hot, and
// the exact codecs only scan for the PSNR peak — no decode pass over
// the checkpoint is needed to audit it.
//
// Errors are reported in the bound's native metric: absolute error for
// absolute bounds, relative error for pointwise-relative ones
// (Relative tells them apart). For SZ's PWRel mode the per-element
// relative error is a certified upper bound — expm1 of the log-domain
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
	// Bound is the error bound the encoding was held to, in the same
	// metric as MaxErr: the absolute bound, the range-derived absolute
	// bound for SZ's RelRange mode, the relative bound for PWRel; 0 for
	// an exact encoding.
	Bound float64
	// Relative reports whether MaxErr/SumErr/Bound are relative rather
	// than absolute errors.
	Relative bool
	// Lossy reports whether the encoder can distort at all.
	Lossy bool
}

// Add folds one element: absV = |x_i|, nativeErr the error in the
// bound's metric, absErr the absolute (value-domain) error.
func (s *Stats) Add(absV, nativeErr, absErr float64) {
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

// AddExact folds values that reconstruct exactly: zero error, and only
// the PSNR peak to scan for.
func (s *Stats) AddExact(x []float64) {
	s.Elements += len(x)
	for _, v := range x {
		if v < 0 {
			v = -v
		}
		if v > s.MaxAbsValue {
			s.MaxAbsValue = v
		}
	}
}

// Merge folds another block's stats into s. The blocks of one stream
// are held to one bound, so o's contract becomes s's.
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
	s.Bound, s.Relative, s.Lossy = o.Bound, o.Relative, o.Lossy
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
