package huffman

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// The decoder Reader replaced, kept as its reference: one code per
// lookup of a table of at most oneCodeTableBits bits, every symbol written to
// the output slice. Reader must accept exactly the streams it accepts
// and return the same symbols; FuzzDecodeInto and checkDecode hold it to
// that.

// oneCodeDecoder is the per-stream decode state, pooled. Table rows
// everywhere are sym<<6 | len.
type oneCodeDecoder struct {
	// table maps the next oneCodeTableBits bits of the stream (fewer when the
	// longest code is shorter) to the code they start with; a zero row
	// is a prefix of a longer code, or of none.
	table [1 << oneCodeTableBits]uint32
	// rows holds the stream's code table twice: in stream order, then
	// in canonical (length, symbol) order.
	rows []uint32
	// Canonical layout per code length: first code value, index of its
	// symbol in the canonical order, and number of codes.
	firstCode [maxCodeLen + 1]uint64
	firstIdx  [maxCodeLen + 1]int
	countAt   [maxCodeLen + 1]int
}

// oneCodeTableBits is the one-code decoder's table index width.
const oneCodeTableBits = 12

var oneCodePool = sync.Pool{New: func() any { return new(oneCodeDecoder) }}

// oneCodeDecodeInto is DecodeInto as the one-code decoder ran it.
func oneCodeDecodeInto(data []byte, buf []int) ([]int, error) {
	off := 0
	getUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, fmt.Errorf("huffman: truncated header at offset %d", off)
		}
		off += n
		return v, nil
	}
	count, err := getUvarint()
	if err != nil {
		return nil, err
	}
	alphabet, err := getUvarint()
	if err != nil {
		return nil, err
	}
	present, err := getUvarint()
	if err != nil {
		return nil, err
	}
	if alphabet > 1<<symBits {
		return nil, fmt.Errorf("huffman: alphabet %d exceeds 2^%d", alphabet, symBits)
	}
	if count > 8*uint64(len(data)) {
		return nil, fmt.Errorf("huffman: %d symbols exceed %d stream bytes", count, len(data))
	}
	if present > alphabet || present > uint64(len(data)-off)/2 {
		return nil, fmt.Errorf("huffman: table of %d entries cannot fit", present)
	}
	d := oneCodePool.Get().(*oneCodeDecoder)
	defer oneCodePool.Put(d)
	np := int(present)
	d.rows = slices.Grow(d.rows[:0], 2*np)[:2*np]
	rows, canon := d.rows[:np], d.rows[np:]
	d.countAt = [maxCodeLen + 1]int{}
	maxLen := 0
	for i, prev := 0, -1; i < np; i++ {
		sym, err := getUvarint()
		if err != nil {
			return nil, err
		}
		if off >= len(data) {
			return nil, fmt.Errorf("huffman: truncated table")
		}
		if sym >= alphabet {
			return nil, fmt.Errorf("huffman: table symbol %d outside alphabet", sym)
		}
		if int(sym) <= prev {
			return nil, fmt.Errorf("huffman: table symbol %d out of order", sym)
		}
		prev = int(sym)
		l := int(data[off])
		off++
		if l < 1 || l > maxCodeLen {
			return nil, fmt.Errorf("huffman: invalid code length %d for symbol %d", l, sym)
		}
		rows[i] = uint32(sym)<<6 | uint32(l)
		d.countAt[l]++
		maxLen = max(maxLen, l)
	}
	if count == 0 {
		if buf != nil {
			return buf[:0], nil
		}
		return []int{}, nil
	}
	if np == 0 {
		return nil, fmt.Errorf("huffman: no code table for %d symbols", count)
	}
	var code uint64
	idx := 0
	for l := 1; l <= maxLen; l++ {
		code <<= 1
		d.firstCode[l], d.firstIdx[l] = code, idx
		code += uint64(d.countAt[l])
		idx += d.countAt[l]
		if code > 1<<uint(l) {
			return nil, fmt.Errorf("huffman: code table oversubscribed at length %d", l)
		}
	}
	place := d.firstIdx
	for _, r := range rows {
		canon[place[r&63]] = r
		place[r&63]++
	}
	tb := uint(min(maxLen, oneCodeTableBits))
	table := d.table[:1<<tb]
	pos := 0
	for _, r := range canon {
		l := uint(r & 63)
		if l > tb {
			break
		}
		span := table[pos : pos+1<<(tb-l)]
		for i := range span {
			span[i] = r
		}
		pos += len(span)
	}
	clear(table[pos:])

	out := buf[:0]
	if uint64(cap(out)) < count {
		out = make([]int, count)
	}
	out = out[:count]
	var acc uint64
	var nbits uint
	for i := range out {
		if nbits < 32 {
			if off+8 <= len(data) {
				acc |= binary.BigEndian.Uint64(data[off:]) >> (nbits & 63)
				k := (64 - nbits) >> 3
				off += int(k)
				nbits += 8 * k
			} else {
				for ; nbits <= 56 && off < len(data); off++ {
					acc |= uint64(data[off]) << (56 - nbits)
					nbits += 8
				}
			}
		}
		r := table[acc>>(64-tb)]
		l := uint(r & 63)
		if l == 0 {
			if r, l, off, acc, nbits = d.longCode(data, off, acc, nbits, tb, maxLen); l == 0 {
				return nil, fmt.Errorf("huffman: corrupt bitstream at symbol %d", i)
			}
		} else if l > nbits {
			return nil, fmt.Errorf("huffman: corrupt bitstream at symbol %d", i)
		} else {
			acc <<= l
			nbits -= l
		}
		out[i] = int(r >> 6)
	}
	return out, nil
}

// longCode is the one-code decoder's search for a code longer than tb.
func (d *oneCodeDecoder) longCode(data []byte, off int, acc uint64, nbits uint, tb uint, maxLen int) (r uint32, l uint, _ int, _ uint64, _ uint) {
	for ; nbits <= 56 && off < len(data); off++ {
		acc |= uint64(data[off]) << (56 - nbits)
		nbits += 8
	}
	peek, avail := acc, nbits
	if off < len(data) {
		peek |= uint64(data[off]) >> (nbits - 56)
		avail = 64
	}
	for l = tb + 1; l <= uint(maxLen) && l <= avail; l++ {
		rel := peek>>(64-l) - d.firstCode[l]
		if rel >= uint64(d.countAt[l]) {
			continue
		}
		r = d.rows[len(d.rows)/2+d.firstIdx[l]+int(rel)]
		if l <= nbits {
			return r, l, off, acc << l, nbits - l
		}
		return r, l, off + 1, uint64(data[off]) << (56 + l - nbits), 8 - (l - nbits)
	}
	return 0, 0, off, acc, nbits
}

// Encode is AppendEncode into a new slice.
func Encode(symbols []int, alphabet int) ([]byte, error) {
	return AppendEncode(nil, symbols, alphabet)
}

// decodeInto decodes a whole stream through a Reader into buf's backing
// array when its capacity suffices (buf may be nil or a recycled
// zero-length slice).
func decodeInto(data []byte, buf []int) ([]int, error) {
	r, err := NewReader(data)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	out := buf[:0]
	if out == nil || cap(out) < r.Len() {
		out = make([]int, r.Len())
	}
	out = out[:r.Len()]
	var run [512]int32
	for k := 0; k < len(out); k += len(run) {
		syms := run[:min(len(run), len(out)-k)]
		if err := r.Read(syms); err != nil {
			return nil, err
		}
		for i, s := range syms {
			out[k+i] = int(s)
		}
	}
	return out, nil
}

// readInPieces decodes data through a Reader in reads of 1, 2, …, step
// symbols, cycling, as package sz reads a block row by row.
func readInPieces(data []byte, step int) ([]int, error) {
	r, err := NewReader(data)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	out := make([]int, r.Len())
	for k, m := 0, 1; k < len(out); k, m = k+m, m%step+1 {
		m = min(m, len(out)-k)
		// A guard symbol behind the piece: no row of the table may
		// write it.
		piece := make([]int32, m+1)
		piece[m] = -1
		if err := r.Read(piece[:m]); err != nil {
			return nil, err
		}
		if piece[m] != -1 {
			return nil, fmt.Errorf("a read of %d symbols wrote past them", m)
		}
		for i, s := range piece[:m] {
			out[k+i] = int(s)
		}
	}
	return out, nil
}

// checkAgainstOneCode requires a Reader, read whole and in pieces
// of every size up to step, to agree with the one-code decoder on data:
// the same verdict, and on acceptance the same symbols.
func checkAgainstOneCode(t testing.TB, data []byte, step int) {
	t.Helper()
	want, werr := oneCodeDecodeInto(data, nil)
	got, err := decodeInto(data, nil)
	if (err == nil) != (werr == nil) || !slices.Equal(got, want) {
		t.Fatalf("decodeInto: %d symbols (%v); the one-code decoder: %d (%v)", len(got), err, len(want), werr)
	}
	for s := 1; s <= step; s++ {
		if got, err := readInPieces(data, s); (err == nil) != (werr == nil) || (err == nil && !slices.Equal(got, want)) {
			t.Fatalf("reads of up to %d: %d symbols (%v); the one-code decoder: %d (%v)", s, len(got), err, len(want), werr)
		}
	}
}

// TestReaderReadsPastNothing: a read never asks the stream for more
// than Len, and reads of every size from 1 to 9 decode the real blocks'
// streams, and every stream cut short, as the one-code decoder does.
func TestReaderReadsPastNothing(t *testing.T) {
	enc, err := Encode([]int{1, 2, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Read(make([]int32, 4)); err == nil {
		t.Fatal("read 4 symbols of a 3-symbol stream")
	}
	r.Close()
	for _, name := range realBlocks {
		enc, err := Encode(realBlock(t, name), 65536)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOneCode(t, enc, 9)
		for cut := len(enc) - 1; cut > len(enc)-40; cut-- {
			checkAgainstOneCode(t, enc[:cut], 3)
		}
	}
}

// The histogram loop and emitBits the encode kernels (encode_amd64.s)
// replaced, kept as their reference: AppendEncode must count the same
// freq and distinct set and write the same bits on either path.

// refHistogram is the one-chain histogram: freq spans the alphabet and
// is all-zero on entry; the distinct symbols come back unordered.
func refHistogram(symbols []int, freq []uint64) (distinct []int) {
	for _, s := range symbols {
		if freq[s] == 0 {
			distinct = append(distinct, s)
		}
		freq[s]++
	}
	return distinct
}

// refEmitBits is emitBits one code at a time through one accumulator.
func refEmitBits(buf []byte, symbols []int, packed []uint64) int {
	var acc uint64
	var nbits uint
	idx := 0
	for _, s := range symbols {
		e := packed[s]
		l := uint(e & 63)
		if nbits+l > 64 {
			binary.BigEndian.PutUint64(buf[idx:], acc<<((64-nbits)&63))
			idx += int(nbits >> 3)
			nbits &= 7
		}
		acc = acc<<(l&63) | e>>6
		nbits += l
	}
	binary.BigEndian.PutUint64(buf[idx:], acc<<((64-nbits)&63))
	return idx + int((nbits+7)>>3)
}

// refAppendEncode is AppendEncode through the reference loops.
func refAppendEncode(symbols []int, alphabet int) []byte {
	freq, packed := make([]uint64, alphabet), make([]uint64, alphabet)
	distinct := refHistogram(symbols, freq)
	slices.Sort(distinct)
	n := len(distinct)
	counts := codeLengths(freq, distinct, make([]int, 2*n), packed)
	out := binary.AppendUvarint(nil, uint64(len(symbols)))
	out = binary.AppendUvarint(out, uint64(alphabet))
	out = binary.AppendUvarint(out, uint64(n))
	totalBits := uint64(0)
	for _, sym := range distinct {
		out = binary.AppendUvarint(out, uint64(sym))
		out = append(out, byte(packed[sym]))
		totalBits += freq[sym] * packed[sym]
	}
	canonicalCodes(distinct, &counts, packed)
	start := len(out)
	out = append(out, make([]byte, (totalBits+7)/8+8)...)
	return out[:start+refEmitBits(out[start:], symbols, packed)]
}

// encodePaths runs f on the kernels, where this machine has them, and on
// the Go loops.
func encodePaths(t *testing.T, f func(t *testing.T)) {
	have := useKernels
	defer func() { useKernels = have }()
	for _, on := range []bool{true, false} {
		if on && !have {
			continue
		}
		useKernels = on
		t.Run(map[bool]string{true: "kernel", false: "portable"}[on], f)
	}
}

// TestEncodeMatchesReference: AppendEncode's histogram (the kernel's
// freq and sorted distinct set) and stream are the reference loops',
// byte for byte, on the recorded SZ histograms, in and out of stream order; on
// random alphabets from 1 to 2^20 symbols, uniform, crowded around the
// middle (the count kernel's window) and crowded with a sixteenth and
// with a half of outliers; on one-symbol streams; and on streams of
// every length 0…9, which end the kernels' four- and two-symbol steps
// at every offset.
func TestEncodeMatchesReference(t *testing.T) {
	type stream struct {
		name     string
		symbols  []int
		alphabet int
	}
	var streams []stream
	for _, name := range realBlocks {
		s := realBlock(t, name)
		streams = append(streams, stream{name, s, 65536})
		sorted := slices.Clone(s)
		slices.Sort(sorted)
		streams = append(streams, stream{name + "/sorted", sorted, 65536})
	}
	rng := rand.New(rand.NewSource(7))
	for _, alphabet := range []int{1, 2, 3, 7, 100, 511, 512, 513, 1000, 65536, 1 << 20} {
		for _, out := range []float64{0, 1.0 / 16, 0.5, 1} {
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1000, 33333} {
				s := make([]int, n)
				for i := range s {
					if rng.Float64() < out {
						s[i] = rng.Intn(alphabet)
					} else {
						s[i] = min(max(alphabet/2+int(rng.NormFloat64()*20), 0), alphabet-1)
					}
				}
				streams = append(streams, stream{fmt.Sprintf("alphabet %d, outliers %g, %d symbols", alphabet, out, n), s, alphabet})
			}
		}
		for _, sym := range []int{0, alphabet / 2, alphabet - 1} {
			streams = append(streams, stream{fmt.Sprintf("alphabet %d, one symbol %d", alphabet, sym), []int{sym}, alphabet},
				stream{fmt.Sprintf("alphabet %d, symbol %d × 1000", alphabet, sym), slices.Repeat([]int{sym}, 1000), alphabet})
		}
	}
	encodePaths(t, func(t *testing.T) {
		for _, s := range streams {
			// AppendEncode's call, with room for every symbol and with room
			// for eight beside the window's 512: the kernel counts what the
			// reference does up to where it stops, which with room is the
			// end or where the symbols outside the window got dense.
			for _, room := range []int{len(s.symbols) + 512, 520} {
				if !useKernels {
					break
				}
				freq, ref, got := make([]uint64, s.alphabet), make([]uint64, s.alphabet), make([]int, room)
				nd, stop := countKernel(s.symbols, freq, got)
				want := refHistogram(s.symbols[:stop], ref)
				got = got[:nd]
				slices.Sort(got)
				slices.Sort(want)
				if (room > 520 && stop != denseFrom(s.symbols, s.alphabet)) || !slices.Equal(got, want) || !slices.Equal(freq, ref) {
					t.Fatalf("%s, room %d: the kernel counted %d distinct symbols to %d, the reference %d, or another histogram", s.name, room, nd, stop, len(want))
				}
			}
			if out, err := AppendEncode(nil, s.symbols, s.alphabet); err != nil || !bytes.Equal(out, refAppendEncode(s.symbols, s.alphabet)) {
				t.Fatalf("%s: AppendEncode wrote %d bytes (%v), not the reference stream", s.name, len(out), err)
			}
		}
	})
}

// denseFrom is where countKernel, given room, hands a stream of symbols
// in the alphabet to the Go loop: the first multiple of 1,024 with four
// symbols behind it where more than 64 of the 1,024 before it fell
// outside the window, or the end.
func denseFrom(symbols []int, alphabet int) int {
	lo := max(alphabet/2-256, 0)
	w := min(512, alphabet-lo)
	for at := 1024; at+4 <= len(symbols); at += 1024 {
		outside := 0
		for _, s := range symbols[at-1024 : at] {
			if s < lo || s >= lo+w {
				outside++
			}
		}
		if outside > 64 {
			return at
		}
	}
	return len(symbols)
}

// TestEmitBitsMatchesReference: emitBits writes the reference's bytes
// for codes of every length up to encMaxCodeLen, long ones side by side
// (a pair longer than encMaxCodeLen enters the accumulator as its two
// codes) and among short ones, at every bit alignment.
func TestEmitBitsMatchesReference(t *testing.T) {
	packed := make([]uint64, encMaxCodeLen+1)
	for l := 1; l <= encMaxCodeLen; l++ {
		// Any l-bit value will do for the bits; the top and bottom bits set
		// show a misplaced shift.
		packed[l] = (1<<(l-1)|1|uint64(l)*0x9E3779B97F4A7C15>>(64-l))<<6 | uint64(l)
	}
	rng := rand.New(rand.NewSource(11))
	encodePaths(t, func(t *testing.T) {
		for round := 0; round < 2000; round++ {
			symbols := make([]int, rng.Intn(40))
			for i := range symbols {
				if rng.Intn(3) == 0 {
					symbols[i] = encMaxCodeLen - rng.Intn(8)
				} else {
					symbols[i] = 1 + rng.Intn(encMaxCodeLen)
				}
			}
			want := make([]byte, 8*len(symbols)+8)
			got := make([]byte, 8*len(symbols)+8)
			n, m := refEmitBits(want, symbols, packed), emitBits(got, symbols, packed)
			if n != m || !bytes.Equal(got[:m], want[:n]) {
				t.Fatalf("codes of lengths %v: emitBits wrote\n%x, want\n%x", symbols, got[:m], want[:n])
			}
		}
	})
}
