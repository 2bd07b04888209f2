// Package huffman implements a canonical Huffman coder for the
// bounded-alphabet integer streams produced by error-controlled
// quantization (package sz). SZ's speed and ratio on solver state come
// from most quantization codes landing in a handful of bins around
// zero-difference; Huffman coding turns that skew into sub-bit-per-
// symbol output.
//
// The coder is tuned for SZ's shape: a huge nominal alphabet (65,536
// bins by default) of which only a small part occurs per block — a few
// dozen symbols on smooth fields, 700–1,200 on a 32,768-element block
// of a Krylov iterate. Every per-alphabet cost — table clears, table
// walks, header emission — is charged per *distinct symbol* instead, by
// tracking the distinct set during frequency counting and keeping the
// pooled alphabet-sized tables all-zero between uses (only the dirtied
// entries are cleared on release). With a thousand symbols per block
// the code construction is as hot as the bit loops, so it is linear
// after one integer sort and allocates nothing: lengths come from the
// in-place Moffat–Katajainen pass over the sorted frequencies, codes
// from per-length counters. The bitstream is emitted into an
// exactly-sized buffer computed from the frequency histogram, so the
// emission loop performs no capacity checks, and is decoded through a
// 12-bit prefix table.
package huffman

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

const (
	// maxCodeLen is the longest code DecodeInto accepts.
	maxCodeLen = 58
	// encMaxCodeLen is the longest code AppendEncode emits: emitBits
	// keeps at most 7 bits pending after a drain, and pending bits plus
	// the next code must fit its 64-bit accumulator. A deeper tree needs
	// more than 10¹¹ symbols.
	encMaxCodeLen = 57
	// symBits bounds the alphabet at 2^24 symbols (package sz's cap on
	// quantization intervals): a symbol shares a word with its frequency
	// in the sort key and with its code length in the decode table.
	symBits = 24
	// maxSymbols keeps frequency<<symBits inside a non-negative int.
	maxSymbols = 1 << (63 - symBits)
	// tableBits is the decode table's index width: every code of at
	// most tableBits bits resolves in one lookup.
	tableBits = 12
)

// codeLengths computes an optimal prefix code over the symbols in
// distinct, storing every symbol's code length in packed and returning
// the number of symbols per length. freq spans the alphabet and is
// nonzero at every distinct symbol; scratch holds 2·len(distinct) ints.
//
// The symbols are sorted by (frequency, symbol) as one integer key
// each, which fixes the code as a function of the histogram alone; a
// frequency must leave the key's low bits.Len(alphabet−1) bits to the
// symbol, and the frequencies' sum must fit an int. Lengths never exceed
// encMaxCodeLen: if the optimal tree is deeper, frequencies are halved
// (floored at 1) and the tree rebuilt — a standard, lossless fallback
// that no realistic input reaches.
func codeLengths(freq []uint64, distinct, scratch []int, packed []uint64) (counts [encMaxCodeLen + 1]int) {
	n := len(distinct)
	if n == 0 {
		return counts
	}
	if n == 1 {
		packed[distinct[0]] = 1
		counts[1] = 1
		return counts
	}
	keys, a := scratch[:n], scratch[n:2*n]
	symWidth := bits.Len(uint(len(freq) - 1))
	for shift := uint(0); ; shift++ {
		for i, sym := range distinct {
			keys[i] = int(max(freq[sym]>>shift, 1))<<symWidth | sym
		}
		slices.Sort(keys)
		for i, k := range keys {
			a[i] = k >> symWidth
		}
		moffatKatajainen(a)
		if a[0] <= encMaxCodeLen {
			break
		}
	}
	for i, k := range keys {
		packed[k&(1<<symWidth-1)] = uint64(a[i])
		counts[a[i]]++
	}
	return counts
}

// moffatKatajainen replaces a, at least two frequencies in ascending
// order, with the corresponding optimal code lengths (non-increasing),
// in place and in linear time (Moffat & Katajainen, "In-place
// calculation of minimum-redundancy codes", WADS'95). Phase 1 merges
// the two cheapest of {unmerged leaves, finished internal nodes},
// storing each internal node's weight and then its parent's index in
// the slots leaves have vacated; phase 2 turns parent indices into
// internal-node depths; phase 3 counts the leaves each depth leaves
// room for. Ties take the leaf, which minimizes the longest code.
func moffatKatajainen(a []int) {
	n := len(a)
	a[0] += a[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		if leaf >= n || a[root] < a[leaf] {
			a[next] = a[root]
			a[root] = next
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || (root < next && a[root] < a[leaf]) {
			a[next] += a[root]
			a[root] = next
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	avail, used, depth := 1, 0, 0
	root, next := n-2, n-1
	for avail > 0 {
		for root >= 0 && a[root] == depth {
			used++
			root--
		}
		for avail > used {
			a[next] = depth
			next--
			avail--
		}
		avail, used = 2*used, 0
		depth++
	}
}

// canonicalCodes turns the code lengths in packed into canonical codes
// — symbols ordered by (length, symbol) receive consecutive values —
// stored as code<<6 | length, so the emission loop loads one table
// entry per symbol. distinct must be ascending: walking it hands out
// each length's codes in symbol order without sorting by length.
func canonicalCodes(distinct []int, counts *[encMaxCodeLen + 1]int, packed []uint64) {
	var next [encMaxCodeLen + 1]uint64
	var code uint64
	for l := 1; l <= encMaxCodeLen; l++ {
		code <<= 1
		next[l] = code
		code += uint64(counts[l])
	}
	for _, sym := range distinct {
		l := packed[sym]
		packed[sym] = next[l]<<6 | l
		next[l]++
	}
}

// encoder is the per-stream encode scratch, pooled so steady-state
// encoding allocates nothing.
type encoder struct {
	// freq and packed span the alphabet: with the default SZ alphabet
	// of 65,536 bins a fresh pair is a 1 MiB allocation per encoded
	// block. Invariant: both are all-zero between uses, maintained by
	// clearing exactly the dirtied entries on release — O(distinct
	// symbols), not a 1 MiB memclr per block.
	freq, packed []uint64
	// syms holds the distinct symbols, with codeLengths' scratch in the
	// spare capacity behind them.
	syms []int
}

var encoderPool = sync.Pool{New: func() any { return new(encoder) }}

// Encode Huffman-codes the symbol stream. Symbols must lie in
// [0, alphabet). The output is self-describing: DecodeInto needs no
// side information.
func Encode(symbols []int, alphabet int) ([]byte, error) {
	return AppendEncode(nil, symbols, alphabet)
}

// AppendEncode is Encode appending to dst (which may be nil or a
// recycled buffer), returning the extended slice. It is the entry
// point of the blocked SZ compressor, which encodes many blocks
// concurrently into pooled buffers: once the pools are warm and dst has
// room for the stream plus 8 bytes it allocates nothing.
func AppendEncode(dst []byte, symbols []int, alphabet int) ([]byte, error) {
	if alphabet <= 0 || alphabet > 1<<symBits {
		return nil, fmt.Errorf("huffman: alphabet size %d outside [1, 2^%d]", alphabet, symBits)
	}
	if len(symbols) >= maxSymbols {
		return nil, fmt.Errorf("huffman: %d symbols exceed the coder's limit of 2^%d", len(symbols), 63-symBits)
	}
	enc := encoderPool.Get().(*encoder)
	if len(enc.freq) < alphabet {
		enc.freq, enc.packed = make([]uint64, alphabet), make([]uint64, alphabet)
	}
	freq, packed, distinct := enc.freq[:alphabet], enc.packed[:alphabet], enc.syms[:0]
	defer func() {
		for _, sym := range distinct {
			freq[sym], packed[sym] = 0, 0
		}
		enc.syms = distinct
		encoderPool.Put(enc)
	}()
	for _, s := range symbols {
		if uint(s) >= uint(alphabet) {
			return nil, fmt.Errorf("huffman: symbol %d outside alphabet [0,%d)", s, alphabet)
		}
		if freq[s] == 0 {
			distinct = append(distinct, s)
		}
		freq[s]++
	}
	slices.Sort(distinct)
	n := len(distinct)
	distinct = slices.Grow(distinct, 2*n)
	counts := codeLengths(freq, distinct, distinct[n:3*n], packed)

	// Header: symbol count, alphabet, then the code table — count of
	// present symbols and (symbol, length) pairs in ascending symbol
	// order. Every distinct symbol has a code.
	out := binary.AppendUvarint(dst, uint64(len(symbols)))
	out = binary.AppendUvarint(out, uint64(alphabet))
	out = binary.AppendUvarint(out, uint64(n))
	totalBits := uint64(0)
	for _, sym := range distinct {
		out = binary.AppendUvarint(out, uint64(sym))
		out = append(out, byte(packed[sym]))
		totalBits += freq[sym] * packed[sym]
	}
	canonicalCodes(distinct, &counts, packed)

	// The histogram gives the exact bitstream size, so the buffer is
	// grown once, with the 8 bytes of slack emitBits stores into.
	nBytes := int((totalBits + 7) / 8)
	start := len(out)
	out = slices.Grow(out, nBytes+8)
	return out[:start+emitBits(out[start:start+nBytes+8], symbols, packed)], nil
}

// emitBits writes the symbols' codes (packed[s] = code<<6 | length)
// MSB-first into buf and returns the number of bytes used, the last
// one zero-padded. Codes gather in the low nbits bits of a 64-bit
// accumulator, which is drained — its whole bytes stored, at most 7
// bits kept — only when the next code would not fit: once per eight
// output bytes, not once per symbol. Invariant: pending bits plus the
// longest code ≤ 64, which is what encMaxCodeLen guarantees. A drain
// stores all 8 bytes of the accumulator and advances past the complete
// ones, so buf must be 8 bytes longer than the stream.
func emitBits(buf []byte, symbols []int, packed []uint64) int {
	var acc uint64 // bits above the low nbits are stale and shifted out on store
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

// decoder is the per-stream decode state, pooled so steady-state
// decoding allocates nothing. Table rows everywhere are sym<<6 | len.
type decoder struct {
	// table maps the next tableBits bits of the stream (fewer when the
	// longest code is shorter) to the code they start with; a zero row
	// is a prefix of a longer code, or of none.
	table [1 << tableBits]uint32
	// rows holds the stream's code table twice: in stream order, then
	// in canonical (length, symbol) order.
	rows []uint32
	// Canonical layout per code length: first code value, index of its
	// symbol in the canonical order, and number of codes.
	firstCode [maxCodeLen + 1]uint64
	firstIdx  [maxCodeLen + 1]int
	countAt   [maxCodeLen + 1]int
}

var decoderPool = sync.Pool{New: func() any { return new(decoder) }}

// DecodeInto reverses Encode, writing into buf's backing array when its
// capacity suffices (buf may be nil or a recycled zero-length slice).
// The returned slice aliases buf when no growth was needed, letting
// callers pool the symbol buffer across blocks. The decoder builds its
// tables from the stream's (symbol, length) pairs alone — no
// alphabet-sized scratch, so sparse tables over huge alphabets decode
// in O(present) setup time. A table that is not in ascending symbol
// order or assigns more codes than its lengths have room for (Kraft
// sum above 1) is rejected: no prefix code has it.
func DecodeInto(data []byte, buf []int) ([]int, error) {
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
	// Allocation guards: every symbol costs at least one bit, every
	// table entry at least two bytes.
	if count > 8*uint64(len(data)) {
		return nil, fmt.Errorf("huffman: %d symbols exceed %d stream bytes", count, len(data))
	}
	if present > alphabet || present > uint64(len(data)-off)/2 {
		return nil, fmt.Errorf("huffman: table of %d entries cannot fit", present)
	}
	d := decoderPool.Get().(*decoder)
	defer decoderPool.Put(d)
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

	// Canonical layout: codes of one length are consecutive, in symbol
	// order, and each length starts where the previous one's codes,
	// extended by a zero bit, end.
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
	// Stable counting sort by length; rows are ascending by symbol, so
	// canon comes out in (length, symbol) order.
	place := d.firstIdx
	for _, r := range rows {
		canon[place[r&63]] = r
		place[r&63]++
	}
	// In canonical order the codes, left-aligned to tb bits, tile the
	// table from 0 upward with no gaps; what is left past the last short
	// code belongs to longer codes or to no code.
	tb := uint(min(maxLen, tableBits))
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
	// acc holds the next nbits bits of the stream at its top. Below
	// them it holds zeros or the stream's own following bits (the
	// 8-byte refill ORs in more than it counts), never anything else.
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

// longCode decodes one code longer than tb bits from the front of the
// stream by searching the canonical per-length ranges, and consumes it;
// l == 0 reports that no code matches the bits that remain. It is the
// decode loop's slow path, with its own refill: a 58-bit code can
// straddle the 57 bits a byte-wise refill guarantees.
func (d *decoder) longCode(data []byte, off int, acc uint64, nbits uint, tb uint, maxLen int) (r uint32, l uint, _ int, _ uint64, _ uint) {
	for ; nbits <= 56 && off < len(data); off++ {
		acc |= uint64(data[off]) << (56 - nbits)
		nbits += 8
	}
	peek, avail := acc, nbits
	if off < len(data) { // nbits ≥ 57: top up the window from the next byte
		peek |= uint64(data[off]) >> (nbits - 56)
		avail = 64
	}
	for l = tb + 1; l <= uint(maxLen) && l <= avail; l++ {
		rel := peek>>(64-l) - d.firstCode[l]
		if rel >= uint64(d.countAt[l]) { // also when peek's prefix is below firstCode
			continue
		}
		r = d.rows[len(d.rows)/2+d.firstIdx[l]+int(rel)]
		if l <= nbits {
			return r, l, off, acc << l, nbits - l
		}
		// The code's last l−nbits bits are the top of the next byte.
		return r, l, off + 1, uint64(data[off]) << (56 + l - nbits), 8 - (l - nbits)
	}
	return 0, 0, off, acc, nbits
}
