package sz

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/codec"
	"repro/internal/huffman"
	"repro/internal/parallel"
	"repro/internal/vec"
)

// The block decoder reconstruct's row loops replaced, kept as their
// reference: every code of a block decoded into a buffer first (in one
// Read; huffman's own tests hold the Reader to the one-code decoder it
// replaced), then a second pass through predict's per-element switch,
// then the exponentials and a separate sign loop.
// The differential tests and FuzzDecompressInto hold the decoder to it,
// bit for bit and verdict for verdict.

// refBlocks is Blocks decoding through the reference.
type refBlocks struct{ Blocks }

func (refBlocks) DecodeBlockInto(dst []float64, blk []byte) error {
	if len(blk) < 1 {
		return fmt.Errorf("sz: empty block")
	}
	switch kind, payload := blk[0], blk[1:]; kind {
	case kindCore:
		return refDecodeCoreInto(payload, dst)
	case kindLogTransform:
		return refDecodeLogTransformInto(payload, dst)
	default:
		return fmt.Errorf("sz: unknown block payload kind %d", kind)
	}
}

// refDecompressInto is DecompressInto through the reference.
func refDecompressInto(dst []float64, data []byte) error {
	return codec.DecompressInto(dst, data, refBlocks{})
}

func refDecodeCoreInto(p []byte, recon []float64) error {
	off := 0
	getUvarint := func() (uint64, error) {
		v, k := binary.Uvarint(p[off:])
		if k <= 0 {
			return 0, fmt.Errorf("sz: truncated core header")
		}
		off += k
		return v, nil
	}
	n64, err := getUvarint()
	if err != nil {
		return err
	}
	if off+9 > len(p) {
		return fmt.Errorf("sz: truncated core header")
	}
	eb := math.Float64frombits(binary.LittleEndian.Uint64(p[off:]))
	off += 8
	sten := stencil{pred: Predictor(p[off])}
	off++
	switch sten.pred {
	case PredictorLorenzo, PredictorLinear:
	case PredictorLorenzoND:
		s1, err := getUvarint()
		if err != nil {
			return err
		}
		s2, err := getUvarint()
		if err != nil {
			return err
		}
		if s1 == 0 || s1 >= n64 || s2 >= n64-s1 || s2%s1 != 0 {
			return fmt.Errorf("sz: corrupt core header (strides %d, %d over %d values)", s1, s2, n64)
		}
		sten.s1, sten.s2 = int(s1), int(s2)
	default:
		return fmt.Errorf("sz: unknown predictor %d", byte(sten.pred))
	}
	intervals64, err := getUvarint()
	if err != nil {
		return err
	}
	nUnpred, err := getUvarint()
	if err != nil {
		return err
	}
	hlen, err := getUvarint()
	if err != nil {
		return err
	}
	if rem := uint64(len(p) - off); hlen > rem || nUnpred > (rem-hlen)/8 {
		return fmt.Errorf("sz: truncated core payload")
	}
	if !(eb > 0) || math.IsInf(eb, 0) || intervals64 < minIntervals || intervals64 > maxIntervals {
		return fmt.Errorf("sz: corrupt core header (bound %v, %d intervals)", eb, intervals64)
	}
	if n64 > 8*uint64(len(p)) {
		return fmt.Errorf("sz: %d values exceed %d payload bytes", n64, len(p))
	}
	hr, err := huffman.NewReader(p[off : off+int(hlen)])
	if err != nil {
		return err
	}
	defer hr.Close()
	codes32 := make([]int32, hr.Len())
	if err := hr.Read(codes32); err != nil {
		return err
	}
	codes := make([]int, len(codes32))
	for i, c := range codes32 {
		codes[i] = int(c)
	}
	off += int(hlen)
	n := int(n64)
	if len(codes) != n {
		return fmt.Errorf("sz: decoded %d codes for %d values", len(codes), n)
	}
	if len(recon) != n {
		return fmt.Errorf("sz: core block holds %d values, expected %d", n, len(recon))
	}
	stored := p[off : off+8*int(nUnpred)]
	return sten.refReconstruct(recon, codes, stored, 2*eb, int(intervals64)/2)
}

func (s stencil) refReconstruct(recon []float64, codes []int, stored []byte, twoEB float64, half int) error {
	overflow := func(i int) error { return fmt.Errorf("sz: unpredictable count overflow at %d", i) }
	if s.pred == PredictorLorenzo {
		prev := 0.0
		for i, c := range codes {
			if c != 0 {
				prev += twoEB * float64(c-half)
			} else if len(stored) >= 8 {
				prev, stored = math.Float64frombits(binary.LittleEndian.Uint64(stored)), stored[8:]
			} else {
				return overflow(i)
			}
			recon[i] = prev
		}
	} else {
		n := len(recon)
		rowLen, zero := s.rowLen(n)
		if zero != nil {
			defer parallel.PutFloat64s(zero)
		}
		for b := 0; b < n; b += rowLen {
			cur := recon[b:min(b+rowLen, n)]
			up, back, ub := s.rows(recon, zero, b, len(cur))
			var prev, prev2 float64
			for j, c := range codes[b:][:len(cur)] {
				v := predict(s.pred, prev, prev2, up, back, ub, j) + twoEB*float64(c-half)
				if c == 0 {
					if len(stored) < 8 {
						return overflow(b + j)
					}
					v, stored = math.Float64frombits(binary.LittleEndian.Uint64(stored)), stored[8:]
				}
				cur[j] = v
				prev2, prev = prev, v
			}
		}
	}
	if len(stored) != 0 {
		return fmt.Errorf("sz: %d unpredictable values stored and not consumed", len(stored)/8)
	}
	return nil
}

func refDecodeLogTransformInto(p []byte, out []float64) error {
	n64, k := binary.Uvarint(p)
	if k <= 0 || k >= len(p) {
		return fmt.Errorf("sz: truncated log header")
	}
	if n64 > 8*uint64(len(p)) {
		return fmt.Errorf("sz: %d values exceed %d payload bytes", n64, len(p))
	}
	n := int(n64)
	nb := (n + 7) / 8
	presence := p[k]
	off := k + 1
	if presence > 7 {
		return fmt.Errorf("sz: invalid bitmap presence byte %#x", presence)
	}
	var maps [3][]byte
	for j := range maps {
		if presence&(1<<j) == 0 {
			continue
		}
		if nb > len(p)-off {
			return fmt.Errorf("sz: truncated bitmaps")
		}
		maps[j] = p[off : off+nb]
		off += nb
	}
	zeros, signs, tiny := maps[0], maps[1], maps[2]
	nExact64, k := binary.Uvarint(p[off:])
	if k <= 0 {
		return fmt.Errorf("sz: truncated exact-list header")
	}
	off += k
	if nExact64 > uint64(len(p)-off)/8 {
		return fmt.Errorf("sz: truncated exact list")
	}
	nExact := int(nExact64)
	exact := p[off : off+8*nExact]
	off += 8 * nExact
	nLogs64, k := binary.Uvarint(p[off:])
	if k <= 0 {
		return fmt.Errorf("sz: truncated core header")
	}
	if nLogs64 > uint64(n) {
		return fmt.Errorf("sz: %d logs for %d values", nLogs64, n)
	}
	lbuf := parallel.GetFloat64s(int(nLogs64))
	defer func() { parallel.PutFloat64s(lbuf) }()
	logs := lbuf[:nLogs64]
	if len(out) != n {
		return fmt.Errorf("sz: log block holds %d values, expected %d", n, len(out))
	}
	if err := refDecodeCoreInto(p[off:], logs); err != nil {
		return err
	}
	if zeros == nil && tiny == nil && nExact == 0 && len(logs) == n {
		vec.Exp(out, logs)
		for i := 0; signs != nil && i < n; i++ {
			if bitSet(signs, i) {
				out[i] = -out[i]
			}
		}
		return nil
	}
	vec.Exp(logs, logs)
	li, ei := 0, 0
	for i := 0; i < n; i++ {
		if bitSet(zeros, i) { // the signs bitmap carries a zero's sign too
			out[i] = 0
			if bitSet(signs, i) {
				out[i] = math.Copysign(0, -1)
			}
			continue
		}
		var v float64
		if bitSet(tiny, i) {
			if ei >= nExact {
				return fmt.Errorf("sz: exact list underflow at %d", i)
			}
			v = math.Float64frombits(binary.LittleEndian.Uint64(exact[8*ei:]))
			ei++
		} else {
			if li >= len(logs) {
				return fmt.Errorf("sz: log stream underflow at %d", i)
			}
			v = logs[li]
			li++
		}
		if bitSet(signs, i) {
			v = -v
		}
		out[i] = v
	}
	if li != len(logs) || ei != nExact {
		return fmt.Errorf("sz: stored %d logs/%d exact, consumed %d/%d", len(logs), nExact, li, ei)
	}
	return nil
}

// sameBits fails t unless the decoder and the reference decode comp to
// the same verdict and, accepted, the same bits.
func sameBits(t testing.TB, name string, comp []byte, n int) {
	t.Helper()
	got, want := make([]float64, n), make([]float64, n)
	err, werr := DecompressInto(got, comp), refDecompressInto(want, comp)
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: decoder %v, reference %v", name, err, werr)
	}
	for i := 0; err == nil && i < n; i++ {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d: decoder %x, reference %x", name, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestDecoderMatchesReference: the decoder rebuilds, bit for bit, what
// the loops it replaced rebuild — on every oracle input family under
// every mode, predictor and bound, in one block and in many; on the
// streams the parent commit wrote (testdata/parent); and on the
// checkpoints of CG 48³ and GMRES 36³ at bounds 1e-2 … 1e-6 — on the
// kernels and on the portable loops.
func TestDecoderMatchesReference(t *testing.T) { kernelPaths(t, decoderMatchesReference) }

func decoderMatchesReference(t *testing.T) {
	for _, in := range oracleInputs() {
		for _, mode := range []Mode{Abs, RelRange, PWRel} {
			for _, eb := range []float64{1e-3, 1e-6} {
				for _, pred := range []Predictor{PredictorAuto, PredictorLorenzo, PredictorLinear, PredictorLorenzoND} {
					for _, blockSize := range []int{0, 300} {
						comp, err := Compress(in.x, Params{Mode: mode, ErrorBound: eb, Predictor: pred, BlockSize: blockSize})
						if err != nil {
							t.Fatal(err)
						}
						sameBits(t, fmt.Sprintf("%s/%v/%g/pred%d/block%d", in.name, mode, eb, pred, blockSize), comp, len(in.x))
					}
				}
			}
		}
	}
	for _, name := range []string{"lorenzo_pwrel", "linear_pwrel", "lorenzo_abs", "linear_abs"} {
		stream, err := os.ReadFile("testdata/parent/parent_" + name + ".sz")
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, name, stream, 600)
	}
	if testing.Short() {
		return
	}
	for _, c := range []struct {
		method string
		nx     int
	}{{"cg", 48}, {"gmres", 36}} {
		for k, x := range checkpointIterates(t, c.nx, c.nx, c.nx, c.method) {
			if k%2 != 0 {
				continue
			}
			for _, eb := range []float64{1e-2, 1e-3, 1e-4, 1e-5, 1e-6} {
				comp, err := Compress(x, Params{Mode: PWRel, ErrorBound: eb})
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("%s%d/save%d/%g", c.method, c.nx, k, eb), comp, len(x))
			}
		}
	}
}
