//go:build !amd64.v3

package sz

import (
	"math"

	"repro/internal/vec"
)

// useKernels selects appendGridLogs, and with it the row-pair kernel,
// for the blocks they can write. The kernel is AVX2, so it runs where
// vec's do, and it rounds every product before it adds, as Go code does
// below GOAMD64=v3 (from v3 on the compiler may fuse them, and the
// two-pass path, which the decoder matches, runs instead). It is set
// once, here; only the differential tests ever clear it.
var useKernels = vec.Accelerated()

// pair encodes the row that starts at element b and the one after it,
// in the same slab, through gridPairAVX2; false at a zero or a
// subnormal. g.zero is two rows long, so that A's absent back row is
// B's as well.
func (g *gridLogs) pair(b int) bool {
	w := g.sten.s1
	x := g.x[b : b+2*w]
	up, back, ub := g.sten.rows(g.r, g.zero, b, w)
	unpred, signed, ok := gridPairAVX2(x, g.r[b:b+2*w], g.codes[b:b+2*w], up, back, ub,
		g.inv, g.twoEB, g.eb, g.limit, g.half)
	for j := 0; signed && j < len(x); j++ {
		if math.Signbit(x[j]) {
			g.signs[(b+j)>>3] |= 1 << (uint(b+j) & 7)
		}
	}
	g.unpred += unpred
	return ok
}

// gridPairAVX2 is pair's body (fused_amd64.s): rows of w ≥ 2
// elements, its first loop taking four at a time; back must reach 2w.
//
//go:noescape
func gridPairAVX2(x, r []float64, codes []int, up, back, ub []float64,
	inv, twoEB, eb, limit float64, half int) (unpred int, signed, ok bool)
