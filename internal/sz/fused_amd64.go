//go:build !amd64.v3

package sz

import (
	"math"

	"repro/internal/vec"
)

// useKernels selects appendGridLogs, with its row-pair kernel, for the
// blocks they can write, and gridRunAVX2 to rebuild grid rows. The
// kernels are AVX2, so they run where vec's do, and round every product
// before they add, as Go code does below GOAMD64=v3 (from v3 on the
// compiler may fuse them, and the Go loops run instead). It is set
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

// gridRunAVX2 is rebuild over a grid row (rebuild_amd64.s).
//
//go:noescape
func gridRunAVX2(out, up, back, ub []float64, codes []int32, stored []byte, twoEB float64, half, j int) (done int, rest []byte)
