//go:build !amd64

package vec

// useAVX2 is never set off amd64: every kernel runs its Go loop and the
// functions below are not reached.
var useAVX2 = false

func dotAVX2(x, y []float64) (s0, s1, s2, s3 float64) { panic("vec: no AVX2 kernel") }

func sumSquaresAVX2(x []float64, inv float64) (s0, s1, s2, s3 float64) {
	panic("vec: no AVX2 kernel")
}

func normInfAVX2(x []float64) (m0, m1, m2, m3 float64) { panic("vec: no AVX2 kernel") }

func dotNorm2AVX2(x, y []float64, inv float64) (s0, s1, s2, s3, n0, n1, n2, n3 float64) {
	panic("vec: no AVX2 kernel")
}

func axpyAVX2(a float64, x, y []float64) { panic("vec: no AVX2 kernel") }

func axpyDotAVX2(a float64, x, y, z []float64) (s0, s1, s2, s3 float64) {
	panic("vec: no AVX2 kernel")
}

func axpyPairNormInfAVX2(a float64, x, p, r, q []float64) (m0, m1, m2, m3 float64) {
	panic("vec: no AVX2 kernel")
}

func aypxAVX2(a float64, x, y []float64) { panic("vec: no AVX2 kernel") }

func subAVX2(dst, x, y []float64) { panic("vec: no AVX2 kernel") }

func scaleToAVX2(dst []float64, a float64, x []float64) { panic("vec: no AVX2 kernel") }

func stencilAVX2(dst, b, x []float64, off []int, coef []float64, mask []uint16, lo, hi int) {
	panic("vec: no AVX2 kernel")
}
