package sz

import "repro/internal/parallel"

// appendGridLogs is appendLogTransform in one pass, for the block a
// checkpoint of a solver's iterate nearly always is: predicted over its
// grid (sten, already fitted to the block) under the fast log, with no
// zero and no subnormal. Each element is classified, its logarithm
// taken, predicted from its reconstructed neighbours and quantized in
// one loop, with no array of logarithms between the steps; the steps
// are appendLogTransform's and appendCore's in their order, so the
// bytes are theirs. Rows go up to four at a time through rows where
// they can. signs is the block's signs bitmap inside bitmaps, all clear.
//
// At a zero, a subnormal, a NaN or an Inf the pass stops: ok is false,
// nothing is appended, and signs must be cleared again for the two-pass
// path, which writes such a block or refuses it.
func appendGridLogs(dst []byte, x []float64, signs, bitmaps []byte, eb float64, sten stencil) (out []byte, ok bool, err error) {
	n, w := len(x), sten.s1
	g := gridLogs{x: x, r: parallel.GetFloat64s(n)[:n], codes: parallel.GetInts(n)[:n], signs: signs,
		zero: parallel.GetFloat64s(4 * w)[:4*w], sten: sten,
		inv: 1 / (2 * eb), twoEB: 2 * eb, eb: eb, limit: float64(quantBins/2 - 1), half: quantBins / 2}
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
	out, err = emitCore(emitLogHeader(dst, n, bitmaps, nil), g.codes, eb, sten, quantBins, unpred)
	return out, true, err
}

// gridLogs is one block on its way through appendGridLogs: the values,
// the reconstructed logarithms, the codes, the signs bitmap, four rows'
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

// encode runs the block's rows in order, two to four of a slab at a
// time, each reading the one before as its row above; false at a zero,
// a subnormal, a NaN or an Inf, and where the kernel takes no rows:
// rows of one element, or slabs of one row.
func (g *gridLogs) encode() bool {
	n, s1, s2 := len(g.x), g.sten.s1, g.sten.s2
	for b := 0; b < n; {
		left := (n - b) / s1 // whole rows left in the block
		if s2 != 0 {
			left = min(left, (s2-b%s2)/s1) // and in the slab
		}
		k := min(4, left)
		if left == 5 { // 3 + 2, not 4 + 1
			k = 3
		}
		if s1 < 2 || k < 2 || !g.rows(b, k) {
			return false
		}
		b += k * s1
	}
	return true
}
