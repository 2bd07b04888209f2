//go:build !amd64.v3

package sz

import (
	"math"

	"repro/internal/vec"
)

// useKernels selects appendGridLogs, with its row kernel, for the
// blocks they can write, and gridRunAVX2 to rebuild grid rows. The
// kernels are AVX2, so they run where vec's do, and round every product
// before they add, as Go code does below GOAMD64=v3 (from v3 on the
// compiler may fuse them, and the Go loops run instead). It is set
// once, here; only the differential tests ever clear it.
var useKernels = vec.Accelerated()

// rows encodes the k ≥ 2 rows of one slab from element b through
// gridRowsAVX2; false at a zero, a subnormal, a NaN or an Inf. g.zero
// is four rows long: the first row's absent back row is the others'.
func (g *gridLogs) rows(b, k int) bool {
	w := g.sten.s1
	x := g.x[b : b+k*w]
	up, back, ub := g.sten.rows(g.r, g.zero, b, w)
	unpred, signed, ok := gridRowsAVX2(x, g.r[b:b+k*w], g.codes[b:b+k*w], up, back, ub,
		g.inv, g.twoEB, g.eb, g.limit, g.half)
	for j := 0; signed && j < len(x); j++ {
		if math.Signbit(x[j]) {
			g.signs[(b+j)>>3] |= 1 << (uint(b+j) & 7)
		}
	}
	g.unpred += unpred
	return ok
}

// gridRowsAVX2 is rows' body (fused_amd64.s): rows of w = len(up) ≥ 2
// elements; back must reach len(x).
//
//go:noescape
func gridRowsAVX2(x, r []float64, codes []int, up, back, ub []float64,
	inv, twoEB, eb, limit float64, half int) (unpred int, signed, ok bool)

// gridRunAVX2 is rebuild over a grid row (rebuild_amd64.s).
//
//go:noescape
func gridRunAVX2(out, up, back, ub []float64, codes []int32, stored []byte, twoEB float64, half, j int) (done int, rest []byte)
