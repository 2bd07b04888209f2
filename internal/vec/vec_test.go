package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDot(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, -5, 6}
	if got := Dot(x, y); got != 1*4-2*5+3*6 {
		t.Fatalf("Dot = %v, want 12", got)
	}
}

func TestDotEmpty(t *testing.T) {
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestNorm2(t *testing.T) {
	x := []float64{3, 4}
	if got := Norm2(x); !almostEqual(got, 5, 1e-15) {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
}

func TestNorm2Overflow(t *testing.T) {
	// Naive sum-of-squares would overflow; scaled algorithm must not.
	x := []float64{1e200, 1e200}
	want := 1e200 * math.Sqrt2
	if got := Norm2(x); !almostEqual(got, want, 1e-14) {
		t.Fatalf("Norm2 = %v, want %v", got, want)
	}
}

func TestNorm2Zero(t *testing.T) {
	if got := Norm2([]float64{0, 0, 0}); got != 0 {
		t.Fatalf("Norm2(zeros) = %v, want 0", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil) = %v, want 0", got)
	}
}

func TestNormInf(t *testing.T) {
	if got := NormInf([]float64{1, -7, 3}); got != 7 {
		t.Fatalf("NormInf = %v, want 7", got)
	}
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1}
	Axpy(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy result %v, want [7 9]", y)
	}
}

func TestAypx(t *testing.T) {
	y := []float64{1, 2}
	Aypx(3, []float64{10, 20}, y) // y = x + 3y
	if y[0] != 13 || y[1] != 26 {
		t.Fatalf("Aypx result %v, want [13 26]", y)
	}
}

func TestScale(t *testing.T) {
	x := []float64{1, -2}
	Scale(-3, x)
	if x[0] != -3 || x[1] != 6 {
		t.Fatalf("Scale result %v", x)
	}
}

func TestSubAddPointwise(t *testing.T) {
	x := []float64{5, 7}
	y := []float64{2, 3}
	d := make([]float64, 2)
	Sub(d, x, y)
	if d[0] != 3 || d[1] != 4 {
		t.Fatalf("Sub = %v", d)
	}
	Add(d, x, y)
	if d[0] != 7 || d[1] != 10 {
		t.Fatalf("Add = %v", d)
	}
	PointwiseMult(d, x, y)
	if d[0] != 10 || d[1] != 21 {
		t.Fatalf("PointwiseMult = %v", d)
	}
}

func TestSubAliasing(t *testing.T) {
	x := []float64{5, 7}
	Sub(x, x, []float64{1, 2})
	if x[0] != 4 || x[1] != 5 {
		t.Fatalf("aliased Sub = %v", x)
	}
}

func TestCloneIndependence(t *testing.T) {
	x := []float64{1, 2}
	y := Clone(x)
	y[0] = 99
	if x[0] != 1 {
		t.Fatal("Clone must not share backing storage")
	}
}

func TestZeroFill(t *testing.T) {
	x := []float64{1, 2, 3}
	Fill(x, 4)
	for _, v := range x {
		if v != 4 {
			t.Fatalf("Fill result %v", x)
		}
	}
	Zero(x)
	for _, v := range x {
		if v != 0 {
			t.Fatalf("Zero result %v", x)
		}
	}
}

func TestMaxAbsDiff(t *testing.T) {
	if got := MaxAbsDiff([]float64{1, 2}, []float64{1.5, 1}); got != 1 {
		t.Fatalf("MaxAbsDiff = %v, want 1", got)
	}
}

func TestMaxRelDiffSkipsZeros(t *testing.T) {
	got := MaxRelDiff([]float64{0, 2}, []float64{5, 1})
	if got != 0.5 {
		t.Fatalf("MaxRelDiff = %v, want 0.5", got)
	}
}

func TestRange(t *testing.T) {
	lo, hi := Range([]float64{3, -1, 7})
	if lo != -1 || hi != 7 {
		t.Fatalf("Range = (%v,%v), want (-1,7)", lo, hi)
	}
	lo, hi = Range(nil)
	if lo != 0 || hi != 0 {
		t.Fatalf("Range(nil) = (%v,%v)", lo, hi)
	}
}

// TestUnrolledKernelsMatchNaive: the 4-way unrolled Dot/Norm2/NormInf
// must agree with a naive reference at every length around the unroll
// boundary (remainder handling is where unrolled loops break).
func TestUnrolledKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for n := 0; n <= 33; n++ {
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 10
			y[i] = rng.NormFloat64() * 10
		}
		var dotRef, ssqRef, infRef float64
		for i := range x {
			dotRef += x[i] * y[i]
			ssqRef += x[i] * x[i]
			if a := math.Abs(x[i]); a > infRef {
				infRef = a
			}
		}
		if got := Dot(x, y); !almostEqual(got, dotRef, 1e-13) {
			t.Fatalf("n=%d: Dot = %v, naive %v", n, got, dotRef)
		}
		if got := Norm2(x); !almostEqual(got, math.Sqrt(ssqRef), 1e-13) {
			t.Fatalf("n=%d: Norm2 = %v, naive %v", n, got, math.Sqrt(ssqRef))
		}
		if got := NormInf(x); got != infRef {
			t.Fatalf("n=%d: NormInf = %v, naive %v", n, got, infRef)
		}
	}
}

// TestFusedKernelsBitEqual: DotNorm2 and AxpyPairNormInf must return
// the very bits of the Dot, Norm2, NormInf and update loops they
// replace in CG.Step, at every length around the unroll boundary and
// through each of Norm2's special cases (zero, infinite, subnormal
// scale, a NaN component).
func TestFusedKernelsBitEqual(t *testing.T) {
	bitEq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	rng := rand.New(rand.NewSource(62))
	check := func(name string, x, y []float64) {
		t.Helper()
		dot, norm := DotNorm2(x, y, NormInf(x))
		if want := Dot(x, y); !bitEq(dot, want) {
			t.Errorf("%s n=%d: dot %v, Dot %v", name, len(x), dot, want)
		}
		if want := Norm2(x); !bitEq(norm, want) {
			t.Errorf("%s n=%d: norm %v, Norm2 %v", name, len(x), norm, want)
		}
	}
	for n := 0; n <= 33; n++ {
		x, p, r, q := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range x {
			x[i], p[i] = rng.NormFloat64(), rng.NormFloat64()
			r[i], q[i] = rng.NormFloat64()*1e-3, rng.NormFloat64()
		}
		check("random", r, q)

		const a = 0.37
		xRef, rRef := Clone(x), Clone(r)
		for i := range xRef {
			xRef[i] += a * p[i]
			rRef[i] -= a * q[i]
		}
		rmax := AxpyPairNormInf(a, x, p, r, q)
		if !bitEq(rmax, NormInf(rRef)) {
			t.Errorf("n=%d: AxpyPairNormInf returned %v, NormInf %v", n, rmax, NormInf(rRef))
		}
		for i := range x {
			if !bitEq(x[i], xRef[i]) || !bitEq(r[i], rRef[i]) {
				t.Fatalf("n=%d: update differs at %d", n, i)
			}
		}
	}
	y := []float64{1, -2, 3, -4, 5}
	check("zero", make([]float64, 5), y)
	check("inf", []float64{1, math.Inf(-1), 2, 3, 4}, y)
	check("subnormal", []float64{5e-324, 0, -1e-323, 5e-324, 0}, y)
	check("huge", []float64{1e300, -1e300, 3e299, 1e-300, 0}, y)
	// NaN ≠ NaN bitwise only if the payloads differ; both paths
	// produce theirs from the same operations.
	check("nan", []float64{1, math.NaN(), 2, 3, 4}, y)
}

// TestAxpyDotBitEqual: AxpyDot must leave in y, and return, the very
// bits of Axpy followed by Dot — GMRES's fused Gram–Schmidt pass is
// only allowed because of it — at every length around the unroll
// boundary and with zero, subnormal, infinite and NaN inputs.
func TestAxpyDotBitEqual(t *testing.T) {
	bitEq := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	check := func(name string, a float64, x, y, z []float64) {
		t.Helper()
		yRef := Clone(y)
		Axpy(a, x, yRef)
		want := Dot(yRef, z)
		got := AxpyDot(a, x, y, z)
		if !bitEq(got, want) {
			t.Errorf("%s n=%d: AxpyDot returned %v, Axpy+Dot %v", name, len(x), got, want)
		}
		for i := range y {
			if !bitEq(y[i], yRef[i]) {
				t.Fatalf("%s n=%d: y[%d] = %v, Axpy %v", name, len(x), i, y[i], yRef[i])
			}
		}
	}
	rng := rand.New(rand.NewSource(63))
	random := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1000} {
		check("random", -0.37, random(n), random(n), random(n))
		check("zero a", 0, random(n), random(n), random(n))
	}
	special := map[string][]float64{
		"zero":      make([]float64, 7),
		"subnormal": {5e-324, 0, -1e-323, 5e-324, 0, 1e-310, -5e-324},
		"inf":       {1, math.Inf(-1), 2, 3, math.Inf(1), 4, 5},
		"nan":       {1, 2, math.NaN(), 3, 4, 5, math.NaN()},
	}
	for name, v := range special {
		check(name+" x", 1.5, v, random(7), random(7))
		check(name+" y", 1.5, random(7), Clone(v), random(7))
		check(name+" z", 1.5, random(7), random(7), v)
	}
	check("inf a", math.Inf(1), random(7), random(7), random(7))
	check("nan a", math.NaN(), random(7), random(7), random(7))

	for _, lens := range [][3]int{{3, 4, 4}, {4, 4, 3}, {4, 3, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AxpyDot with lengths %v did not panic", lens)
				}
			}()
			AxpyDot(1, make([]float64, lens[0]), make([]float64, lens[1]), make([]float64, lens[2]))
		}()
	}
}

// TestNorm2Infinite: an infinite component must yield +Inf, not NaN
// (diverging solver residuals should record the direction of blow-up).
func TestNorm2Infinite(t *testing.T) {
	if got := Norm2([]float64{1, math.Inf(1), 2}); !math.IsInf(got, 1) {
		t.Fatalf("Norm2 with +Inf component = %v, want +Inf", got)
	}
	if got := Norm2([]float64{math.Inf(-1)}); !math.IsInf(got, 1) {
		t.Fatalf("Norm2 with -Inf component = %v, want +Inf", got)
	}
}

// TestNorm2NaN: a NaN component makes the norm NaN whatever the other
// components are. NormInf skips NaN, so a vector of NaN and zeros has
// scale 0 and used to take the zero vector's exit — an all-NaN residual
// read as converged — and the fused CG reductions inherited it.
func TestNorm2NaN(t *testing.T) {
	nan := math.NaN()
	for name, x := range map[string][]float64{
		"all NaN":         {nan, nan, nan},
		"NaN and zeros":   {nan, 0, 0, 0, 0},
		"NaN in the tail": {0, 0, 0, 0, math.Copysign(0, -1), nan},
		"NaN and finite":  {1, nan, -2, 3, 4},
	} {
		if got := Norm2(x); !math.IsNaN(got) {
			t.Errorf("%s: Norm2 = %v, want NaN", name, got)
		}
		y := make([]float64, len(x))
		if _, got := DotNorm2(x, y, NormInf(x)); !math.IsNaN(got) {
			t.Errorf("%s: DotNorm2 norm = %v, want NaN", name, got)
		}
		// CG's residual update with a NaN step length, then its fused
		// reductions: r ← r − NaN·q is NaN wherever q is not skipped.
		r, q, p, z := Clone(x), make([]float64, len(x)), make([]float64, len(x)), make([]float64, len(x))
		Fill(q, 1)
		rmax := AxpyPairNormInf(nan, z, p, r, q)
		if _, got := DotNorm2(r, q, rmax); !math.IsNaN(got) {
			t.Errorf("%s: norm after a NaN update = %v, want NaN", name, got)
		}
	}
}

// TestNorm2SubnormalScale: a vector whose largest magnitude is
// subnormal must not produce Inf or 0 from the reciprocal-scaling
// fast path.
func TestNorm2SubnormalScale(t *testing.T) {
	x := []float64{5e-324, 0, -5e-324}
	got := Norm2(x)
	want := 5e-324 * math.Sqrt2
	if math.IsInf(got, 0) || got == 0 {
		t.Fatalf("Norm2 of subnormal vector = %v", got)
	}
	if !almostEqual(got, want, 1e-10) {
		t.Fatalf("Norm2 = %g, want about %g", got, want)
	}
}

// Property: Dot is symmetric and bilinear within floating-point
// tolerance, and Norm2(x)^2 ≈ Dot(x,x).
func TestDotNormProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		if !almostEqual(Dot(x, y), Dot(y, x), 1e-12) {
			return false
		}
		n2 := Norm2(x)
		return almostEqual(n2*n2, Dot(x, x), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Axpy followed by Axpy with negated coefficient restores y.
func TestAxpyInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
			y[i] = rng.Float64()
		}
		orig := Clone(y)
		a := rng.Float64()
		Axpy(a, x, y)
		Axpy(-a, x, y)
		return MaxAbsDiff(orig, y) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality for Norm2.
func TestNormTriangleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		x := make([]float64, n)
		y := make([]float64, n)
		s := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() * 100
			y[i] = rng.NormFloat64() * 100
		}
		Add(s, x, y)
		return Norm2(s) <= Norm2(x)+Norm2(y)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
