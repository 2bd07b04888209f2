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
// emission loop performs no capacity checks, and is decoded through an
// 11-bit table whose rows hold up to four codes each.
package huffman

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

const (
	// maxCodeLen is the longest code a Reader accepts.
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
	// tableBits is the decode table's index width: up to rowCodes codes
	// that fit it together resolve in one lookup.
	tableBits = 11
	rowCodes  = 4
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

// AppendEncode Huffman-codes the symbol stream, appending to dst
// (which may be nil or a recycled buffer) and returning the extended
// slice. Symbols must lie in [0, alphabet). The output is
// self-describing: NewReader needs no side information. It is the entry
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
	rest := symbols
	if useKernels { // the kernel counts a prefix (encode_amd64.s says which), the Go loop the rest
		distinct = slices.Grow(distinct, 2048) // the kernel's window, 512, and 1,536 more
		nd, stop := countKernel(symbols, freq, distinct[:cap(distinct)])
		distinct, rest = distinct[:nd], symbols[stop:]
	}
	for _, s := range rest {
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
	if useKernels {
		return emitKernel(buf, symbols, packed)
	}
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

// Reader decodes one stream's symbols in order, as many per Read as the
// caller asks for: package sz rebuilds a block a few rows of codes at a
// time. Readers are pooled: steady-state decoding allocates nothing.
type Reader struct {
	data []byte
	off  int
	// acc holds the next nbits bits of the stream at its top, and below
	// them zeros or the stream's following bits; nbits < 64 while 8
	// bytes are left unread.
	acc         uint64
	nbits       uint
	count, left int // symbols in the stream, and not yet read
	maxLen      int
	// Row i of meta and syms holds the codes the next tableBits bits start
	// with if they are i, up to rowCodes: meta the bits they take (bits
	// 0–3) and how many they are (4–6; 0 at a longer code or none), syms
	// their symbols. At 2–3 bits a code, one lookup takes three or four.
	meta [1 << tableBits]uint8
	syms [1 << tableBits][rowCodes]int32
	// rows is the code table (sym<<6 | len) in stream order and then in
	// canonical order, indexed per length by firstCode, firstIdx, countAt.
	rows      []uint32
	firstCode [maxCodeLen + 1]uint64
	firstIdx  [maxCodeLen + 1]int
	countAt   [maxCodeLen + 1]int
}

var readerPool = sync.Pool{New: func() any { return new(Reader) }}

// NewReader reads a stream's code table into a pooled Reader (Close
// returns it). A table not in ascending symbol order, or with more codes
// than its lengths have room for, is no prefix code and is rejected.
func NewReader(data []byte) (r *Reader, err error) {
	r = readerPool.Get().(*Reader)
	defer func() {
		if err != nil {
			r.Close()
			r = nil
		}
	}()
	off := 0
	var hdr [3]uint64 // symbol count, alphabet, table entries
	for i := range hdr {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return r, fmt.Errorf("huffman: truncated header at offset %d", off)
		}
		hdr[i], off = v, off+n
	}
	count, alphabet, present := hdr[0], hdr[1], hdr[2]
	if alphabet > 1<<symBits {
		return r, fmt.Errorf("huffman: alphabet %d exceeds 2^%d", alphabet, symBits)
	}
	// Allocation guards: every symbol costs at least one bit, every
	// table entry at least two bytes.
	if count > 8*uint64(len(data)) {
		return r, fmt.Errorf("huffman: %d symbols exceed %d stream bytes", count, len(data))
	}
	if present > alphabet || present > uint64(len(data)-off)/2 {
		return r, fmt.Errorf("huffman: table of %d entries cannot fit", present)
	}
	np := int(present)
	r.rows = slices.Grow(r.rows[:0], 2*np)[:2*np]
	rows, canon := r.rows[:np], r.rows[np:]
	r.countAt, r.maxLen = [maxCodeLen + 1]int{}, 0
	for i, prev := 0, -1; i < np; i++ {
		sym, n := binary.Uvarint(data[off:])
		if n <= 0 || off+n >= len(data) {
			return r, fmt.Errorf("huffman: truncated table")
		}
		off += n
		if sym >= alphabet || int(sym) <= prev {
			return r, fmt.Errorf("huffman: table symbol %d outside alphabet or out of order", sym)
		}
		prev = int(sym)
		l := int(data[off])
		off++
		if l < 1 || l > maxCodeLen {
			return r, fmt.Errorf("huffman: invalid code length %d for symbol %d", l, sym)
		}
		rows[i] = uint32(sym)<<6 | uint32(l)
		r.countAt[l]++
		r.maxLen = max(r.maxLen, l)
	}
	r.data, r.off, r.acc, r.nbits = data, off, 0, 0
	r.count, r.left = int(count), int(count)
	if count == 0 {
		return r, nil
	}
	if np == 0 {
		return r, fmt.Errorf("huffman: no code table for %d symbols", count)
	}
	// Canonical layout: codes of one length are consecutive, in symbol
	// order, and each length starts where the previous one's codes,
	// extended by a zero bit, end.
	var code uint64
	idx := 0
	for l := 1; l <= r.maxLen; l++ {
		code <<= 1
		r.firstCode[l], r.firstIdx[l] = code, idx
		code += uint64(r.countAt[l])
		idx += r.countAt[l]
		if code > 1<<uint(l) {
			return r, fmt.Errorf("huffman: code table oversubscribed at length %d", l)
		}
	}
	// Stable counting sort by length; rows are ascending by symbol, so
	// canon comes out in (length, symbol) order.
	place := r.firstIdx
	for _, row := range rows {
		canon[place[row&63]] = row
		place[row&63]++
	}
	r.tile(0, 0, [rowCodes]int32{}, 0)
	return r, nil
}

// Close returns r to the pool; r must not be used afterwards.
func (r *Reader) Close() { r.data = nil; readerPool.Put(r) }

// Len is the number of symbols not yet read.
func (r *Reader) Len() int { return r.left }

// tile fills rows [pos, pos+2^(tableBits−bits)), which start with the n
// codes in pre: the codes that fit behind them tile the rows in
// canonical order, and the rows past the last one end with pre.
func (r *Reader) tile(pos int, bits uint, pre [rowCodes]int32, n int) {
	end := pos + 1<<(tableBits-bits)
	for _, c := range r.rows[len(r.rows)/2:] {
		l := uint(c & 63)
		if n == rowCodes || bits+l > tableBits {
			break
		}
		pre[n] = int32(c >> 6) // past n, a row's symbols are not read
		r.tile(pos, bits+l, pre, n+1)
		pos += 1 << (tableBits - bits - l)
	}
	for m := uint8(bits) | uint8(n)<<4; pos < end; pos++ {
		r.meta[pos], r.syms[pos] = m, pre
	}
}

// Read decodes the next len(dst) symbols into dst: an error past Len, or
// where the stream ends inside a code or holds bits no code starts with
// (r is then good only for Close). Away from the ends of the stream and
// of dst, a branch-free refill leaves 56 bits or more for up to four
// rows of tableBits; the rest, and longer codes, go one at a time.
func (r *Reader) Read(dst []int32) error {
	if len(dst) > r.left {
		return fmt.Errorf("huffman: %d symbols asked for, %d left", len(dst), r.left)
	}
	for k := 0; k < len(dst); {
		if data := r.data; k+rowCodes <= len(dst) && r.off+8 <= len(data) {
			off, acc, nbits := r.off, r.acc, r.nbits
			acc |= binary.BigEndian.Uint64(data[off:]) >> (nbits & 63)
			off += int((63 - nbits) >> 3)
			nbits |= 56
			q := 0
			for ; q < 4; q++ {
				i := acc >> (64 - tableBits)
				m := uint(r.meta[i])
				if m&15 == 0 || k+rowCodes > len(dst) {
					break
				}
				*(*[rowCodes]int32)(dst[k:]) = r.syms[i]
				k, acc, nbits = k+int(m>>4), acc<<(m&15), nbits-m&15
			}
			if r.off, r.acc, r.nbits = off, acc, nbits; q == 4 || k == len(dst) {
				continue
			}
		}
		row, ok := r.code()
		if !ok {
			return fmt.Errorf("huffman: corrupt bitstream at symbol %d", r.count-r.left+k)
		}
		dst[k] = int32(row >> 6)
		k++
	}
	r.left -= len(dst)
	return nil
}

// code decodes one code from the front of the stream, and consumes it,
// by searching the canonical per-length ranges; false when no code
// matches the bits that remain. It refills a byte at a time: a 58-bit
// code can straddle the 56 bits that gives.
func (r *Reader) code() (row uint32, ok bool) {
	data, off, acc, nbits := r.data, r.off, r.acc, r.nbits
	for ; nbits <= 55 && off < len(data); off++ {
		acc |= uint64(data[off]) << (56 - nbits)
		nbits += 8
	}
	peek, avail := acc, nbits
	if off < len(data) { // nbits ≥ 56: top up the window from the next byte
		peek |= uint64(data[off]) >> (nbits - 56)
		avail = 64
	}
	for l := uint(1); l <= uint(r.maxLen) && l <= avail; l++ {
		rel := peek>>(64-l) - r.firstCode[l]
		if rel >= uint64(r.countAt[l]) { // also when peek's prefix is below firstCode
			continue
		}
		if r.off, r.acc, r.nbits = off, acc<<l, nbits-l; l > nbits {
			// The code's last l−nbits bits are the top of the next byte.
			r.off, r.acc, r.nbits = off+1, uint64(data[off])<<(56+l-nbits), 8-(l-nbits)
		}
		return r.rows[len(r.rows)/2+r.firstIdx[l]+int(rel)], true
	}
	return 0, false
}
