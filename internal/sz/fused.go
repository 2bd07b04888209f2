package sz

import (
	"math"

	"repro/internal/parallel"
)

// appendGridLogs is appendLogTransform in one pass, for the block a
// checkpoint of a solver's iterate nearly always is: predicted over its
// grid (sten, already fitted to the block) under the fast log, with no
// zero and no subnormal. Each element is classified, its logarithm
// taken, predicted from its reconstructed neighbours and quantized in
// one loop, with no array of logarithms between the steps; the steps
// are appendLogTransform's and appendCore's in their order, so the
// bytes are theirs. Rows go two at a time through pair where they can.
// signs is the block's signs bitmap inside bitmaps, all clear.
//
// At a zero or a subnormal the pass stops: ok is false, nothing is
// appended, and signs must be cleared again for the two-pass path,
// which writes such a block.
func appendGridLogs(dst []byte, x []float64, signs, bitmaps []byte, eb float64, sten stencil, intervals int) (out []byte, ok bool, err error) {
	n, w := len(x), sten.s1
	g := gridLogs{x: x, r: parallel.GetFloat64s(n)[:n], codes: parallel.GetInts(n)[:n], signs: signs,
		zero: parallel.GetFloat64s(2 * w)[:2*w], sten: sten,
		inv: 1 / (2 * eb), twoEB: 2 * eb, eb: eb, limit: float64(intervals/2 - 1), half: intervals / 2}
	unpred := parallel.GetFloat64s(0)
	defer func() {
		parallel.PutFloat64s(g.r)
		parallel.PutInts(g.codes)
		parallel.PutFloat64s(g.zero)
		parallel.PutFloat64s(unpred)
	}()
	clear(g.zero)
	if !g.encode() {
		return nil, false, nil
	}
	for i := 0; g.unpred > 0 && i < n; i++ {
		if g.codes[i] == 0 { // an unpredictable value is its own reconstruction
			unpred = append(unpred, g.r[i])
		}
	}
	out, err = emitCore(emitLogHeader(dst, n, bitmaps, nil), g.codes, eb, sten, intervals, unpred)
	return out, true, err
}

// gridLogs is one block on its way through appendGridLogs: the values,
// the reconstructed logarithms, the codes, the signs bitmap, two rows'
// worth of zeros (what an absent neighbour row reads as), quantStep's
// constants (half among them) and how many codes are 0.
type gridLogs struct {
	x, r                  []float64
	codes                 []int
	signs                 []byte
	zero                  []float64
	sten                  stencil
	inv, twoEB, eb, limit float64
	half, unpred          int
}

// encode runs the block's rows in order, two at a time where the
// second reads the first as its row above (not across a slab
// boundary) and rows are at least two long; false at a zero or a
// subnormal.
func (g *gridLogs) encode() bool {
	n, s1, s2 := len(g.x), g.sten.s1, g.sten.s2
	for b := 0; b < n; b += s1 {
		if s1 > 1 && b+2*s1 <= n && (s2 == 0 || (b+s1)%s2 != 0) {
			if !g.pair(b) {
				return false
			}
			b += s1
		} else if !g.row(b) {
			return false
		}
	}
	return true
}

// row encodes the row that starts at element b; false at a zero or a
// subnormal.
func (g *gridLogs) row(b int) bool {
	w := min(g.sten.s1, len(g.x)-b)
	up, back, ub := g.sten.rows(g.r, g.zero, b, w)
	r, codes := g.r[b:b+w], g.codes[b:b+w]
	var prev float64
	for j, xv := range g.x[b : b+w] {
		bits := math.Float64bits(xv)
		abs := bits &^ (1 << 63)
		if abs < 1<<52 { // zero or subnormal
			return false
		}
		if bits != abs {
			g.signs[(b+j)>>3] |= 1 << (uint(b+j) & 7)
		}
		v := fastLog(abs)
		code, rv := quantStep(v, predict(PredictorLorenzoND, prev, 0, up, back, ub, j), g.inv, g.twoEB, g.eb, g.limit, g.half)
		if code == 0 {
			g.unpred++
		}
		codes[j], r[j] = code, rv
		prev = rv
	}
	return true
}
