package vec

// useAVX2 selects the assembly kernels of kernels_amd64.s over the Go
// loops in vec.go. It is set once, here; only the differential tests
// ever flip it.
var useAVX2 = cpuHasAVX2()

// hasFMA with useAVX2 is where math.Exp takes its FMA path, which
// expAVX2 copies.
var hasFMA = cpuHasFMA()

func cpuHasAVX2() bool

func cpuHasFMA() bool

// Each kernel covers the leading len&^3 elements of its (equal-length)
// slices and returns its four lanes; see kernels_amd64.s.

//go:noescape
func dotAVX2(x, y []float64) (s0, s1, s2, s3 float64)

//go:noescape
func sumSquaresAVX2(x []float64, inv float64) (s0, s1, s2, s3 float64)

//go:noescape
func normInfAVX2(x []float64) (m0, m1, m2, m3 float64)

//go:noescape
func dotNorm2AVX2(x, y []float64, inv float64) (s0, s1, s2, s3, n0, n1, n2, n3 float64)

//go:noescape
func axpyAVX2(a float64, x, y []float64)

//go:noescape
func axpyDotAVX2(a float64, x, y, z []float64) (s0, s1, s2, s3 float64)

//go:noescape
func axpyPairNormInfAVX2(a float64, x, p, r, q []float64) (m0, m1, m2, m3 float64)

//go:noescape
func aypxAVX2(a float64, x, y []float64)

//go:noescape
func subAVX2(dst, x, y []float64)

//go:noescape
func scaleToAVX2(dst []float64, a float64, x []float64)

// expAVX2 is Exp's body: it returns how many leading elements it wrote.
//
//go:noescape
func expAVX2(dst, x []float64) int

// stencilAVX2 is StencilMulVec's body on checked, front-padded arguments.
//
//go:noescape
func stencilAVX2(dst, b, x []float64, off *[7]int, coef *[7]float64, mask []uint16, lo, hi, pad int)
