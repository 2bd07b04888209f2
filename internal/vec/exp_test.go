package vec

import (
	"encoding/binary"
	"math"
	"testing"
)

// needExpKernel skips a test whose four-lane half cannot run here.
func needExpKernel(t testing.TB) {
	if !useAVX2 || !hasFMA {
		t.Skip("no AVX2 and FMA on this machine: math.Exp is the only path")
	}
}

// checkExp runs Exp on x placed off elements into a guarded backing
// array and holds every element to math.Exp's bits (any NaN for a NaN)
// and every write to [0, len(x)).
func checkExp(t testing.TB, x []float64, off int) {
	t.Helper()
	dst, backing := guarded(make([]float64, len(x)), off)
	Exp(dst, x)
	for i, v := range x {
		if want := math.Exp(v); !sameBits(dst[i], want) {
			t.Fatalf("Exp(%v) (%#x) at %d of %d: %v (%#x), math.Exp %v (%#x)", v, math.Float64bits(v), i, len(x),
				dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
		}
	}
	if !guardsIntact(dst, backing, off) {
		t.Fatalf("Exp of %d values wrote outside dst", len(x))
	}
}

// expSweep covers [−746, 710] at an irrational step, and 64 ulps on
// each side of every edge: ±708, where the four-lane body hands over to
// math.Exp; math.Exp's overflow threshold; ln of the smallest normal,
// below which results are subnormal; ln of half the smallest subnormal,
// below which they are zero; and 0. Then ±0, the smallest subnormals,
// ±Inf and NaNs.
func expSweep() []float64 {
	var xs []float64
	for x := -746.0; x <= 710; x += 0.3711 {
		xs = append(xs, x)
	}
	for _, edge := range []float64{-708, 708, 7.09782712893384e+02, math.Log(0x1p-1022), math.Log(0x1p-1075), 0} {
		up, down := edge, edge
		for k := 0; k < 64; k++ {
			xs = append(xs, up, down)
			up, down = math.Nextafter(up, math.Inf(1)), math.Nextafter(down, math.Inf(-1))
		}
	}
	return append(xs, 0, math.Copysign(0, -1), 5e-324, -5e-324, math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(0xfff8000000000001))
}

// TestExpSweep: the sweep, rotated so that every value meets every
// lane, against math.Exp, bit for bit.
func TestExpSweep(t *testing.T) {
	needExpKernel(t)
	xs := expSweep()
	for rot := 0; rot < 4; rot++ {
		checkExp(t, xs[rot:], rot)
	}
}

// FuzzExp: four-lane Exp ≡ math.Exp on arbitrary bit patterns, lengths
// and offsets. The input is an offset byte, then eight bytes a value.
func FuzzExp(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		needExpKernel(t)
		if len(data) == 0 {
			return
		}
		off := int(data[0]) & 3
		var x []float64
		for data = data[1:]; len(data) >= 8; data = data[8:] {
			x = append(x, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		checkExp(t, x, off)
	})
}
