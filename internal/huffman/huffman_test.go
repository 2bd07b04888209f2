package huffman

import (
	"bufio"
	"bytes"
	"container/heap"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

// ---- References --------------------------------------------------------------
//
// The coder this package shipped before the linear-time rebuild, kept
// as the oracle: a pointer-node tree built through container/heap for
// the lengths, a sort for the canonical order, one bit at a time for
// the stream. Every optimal code has the same Σ f·len, so the two
// constructions must agree on cost (not on individual lengths), and a
// canonical code is determined by its lengths, so the two decoders must
// agree on every stream either accepts.

type refNode struct {
	freq        uint64
	symbol      int // -1 for internal
	left, right *refNode
	depth       int // tiebreaker for deterministic trees
}

type refHeap []*refNode

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].freq != h[j].freq {
		return h[i].freq < h[j].freq
	}
	return h[i].depth < h[j].depth
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refNode)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// refCodeLengths returns sym → length for the symbols in distinct
// (ascending), flattening frequencies until no code exceeds limit.
func refCodeLengths(freq []uint64, distinct []int, limit int) map[int]int {
	lengths := map[int]int{}
	if len(distinct) == 1 {
		lengths[distinct[0]] = 1
		return lengths
	}
	for shift := uint(0); len(distinct) > 0; shift++ {
		var h refHeap
		for serial, sym := range distinct {
			h = append(h, &refNode{freq: max(freq[sym]>>shift, 1), symbol: sym, depth: serial})
		}
		heap.Init(&h)
		for h.Len() > 1 {
			a := heap.Pop(&h).(*refNode)
			b := heap.Pop(&h).(*refNode)
			heap.Push(&h, &refNode{freq: a.freq + b.freq, symbol: -1, left: a, right: b, depth: max(a.depth, b.depth) + 1})
		}
		deepest := 0
		var walk func(n *refNode, depth int)
		walk = func(n *refNode, depth int) {
			if n.symbol >= 0 {
				lengths[n.symbol] = depth
				deepest = max(deepest, depth)
				return
			}
			walk(n.left, depth+1)
			walk(n.right, depth+1)
		}
		walk(h[0], 0)
		if deepest <= limit {
			break
		}
	}
	return lengths
}

// refCanonical assigns canonical codes to (symbol, length) pairs by
// sorting them; the result is indexed like the sorted pairs.
type refCode struct {
	sym, l int
	code   uint64
}

func refCanonical(lengths map[int]int) []refCode {
	var codes []refCode
	for sym, l := range lengths {
		codes = append(codes, refCode{sym: sym, l: l})
	}
	sort.Slice(codes, func(i, j int) bool {
		if codes[i].l != codes[j].l {
			return codes[i].l < codes[j].l
		}
		return codes[i].sym < codes[j].sym
	})
	var code uint64
	prev := 0
	for i := range codes {
		code <<= uint(codes[i].l - prev)
		codes[i].code = code
		code++
		prev = codes[i].l
	}
	return codes
}

// bitWriter appends codes MSB-first, one bit at a time.
type bitWriter struct {
	buf   []byte
	nbits int
}

func (w *bitWriter) write(code uint64, l int) {
	for i := l - 1; i >= 0; i-- {
		if w.nbits%8 == 0 {
			w.buf = append(w.buf, 0)
		}
		if code>>uint(i)&1 != 0 {
			w.buf[len(w.buf)-1] |= 0x80 >> (w.nbits % 8)
		}
		w.nbits++
	}
}

// refStream assembles a stream from an explicit code table (in the
// given order) and symbol sequence, so tests can craft tables no
// encoder would produce.
func refStream(alphabet int, table []refCode, symbols []int) []byte {
	out := binary.AppendUvarint(nil, uint64(len(symbols)))
	out = binary.AppendUvarint(out, uint64(alphabet))
	out = binary.AppendUvarint(out, uint64(len(table)))
	codeOf := map[int]refCode{}
	for _, c := range table {
		out = binary.AppendUvarint(out, uint64(c.sym))
		out = append(out, byte(c.l))
		codeOf[c.sym] = c
	}
	var w bitWriter
	for _, s := range symbols {
		w.write(codeOf[s].code, codeOf[s].l)
	}
	return append(out, w.buf...)
}

// refEncode is the parent commit's encoder: heap-built lengths capped
// at 58 bits, table in ascending symbol order.
func refEncode(symbols []int, alphabet int) []byte {
	freq := make([]uint64, alphabet)
	for _, s := range symbols {
		freq[s]++
	}
	var distinct []int
	for sym, f := range freq {
		if f > 0 {
			distinct = append(distinct, sym)
		}
	}
	table := refCanonical(refCodeLengths(freq, distinct, maxCodeLen))
	sort.Slice(table, func(i, j int) bool { return table[i].sym < table[j].sym })
	return refStream(alphabet, table, symbols)
}

// refDecode is the bit-at-a-time decoder: after each bit it asks
// whether the bits so far are a code of that length. It applies the
// header and allocation guards DecodeInto documents and nothing else.
func refDecode(data []byte) ([]int, error) {
	off := 0
	getUvarint := func() (uint64, error) {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, fmt.Errorf("ref: truncated header")
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
	if alphabet > 1<<24 || count > 8*uint64(len(data)) || present > alphabet || present > uint64(len(data)-off)/2 {
		return nil, fmt.Errorf("ref: header guard")
	}
	lengths := map[int]int{}
	for i := uint64(0); i < present; i++ {
		sym, err := getUvarint()
		if err != nil {
			return nil, err
		}
		if off >= len(data) || sym >= alphabet {
			return nil, fmt.Errorf("ref: bad table")
		}
		l := int(data[off])
		off++
		if l < 1 || l > maxCodeLen {
			return nil, fmt.Errorf("ref: bad length")
		}
		if _, dup := lengths[int(sym)]; dup {
			return nil, fmt.Errorf("ref: duplicate symbol")
		}
		lengths[int(sym)] = l
	}
	if count == 0 {
		return []int{}, nil
	}
	type key struct {
		l    int
		code uint64
	}
	symOf := map[key]int{}
	for _, c := range refCanonical(lengths) {
		symOf[key{c.l, c.code}] = c.sym
	}
	out := make([]int, 0, count)
	var code uint64
	l := 0
	for bit := 8 * off; uint64(len(out)) < count; bit++ {
		if bit >= 8*len(data) || l == maxCodeLen {
			return nil, fmt.Errorf("ref: corrupt bitstream at symbol %d", len(out))
		}
		code = code<<1 | uint64(data[bit/8]>>(7-bit%8)&1)
		l++
		if sym, ok := symOf[key{l, code}]; ok {
			out = append(out, sym)
			code, l = 0, 0
		}
	}
	return out, nil
}

// checkDecode decodes data with DecodeInto and, when that succeeds,
// requires the reference to succeed with the same symbols. (DecodeInto
// may reject what the reference accepts: tables that are no prefix
// code.)
func checkDecode(t testing.TB, data []byte) ([]int, error) {
	t.Helper()
	got, err := DecodeInto(data, nil)
	if err == nil {
		checkAgainstRef(t, data, got)
	}
	return got, err
}

func checkAgainstRef(t testing.TB, data []byte, got []int) {
	t.Helper()
	want, err := refDecode(data)
	if err != nil {
		t.Fatalf("DecodeInto accepted a stream the reference rejects: %v", err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("DecodeInto and the reference decoder disagree (%d vs %d symbols)", len(got), len(want))
	}
}

func roundTrip(t *testing.T, symbols []int, alphabet int) []byte {
	t.Helper()
	enc, err := Encode(symbols, alphabet)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := checkDecode(t, enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(symbols) {
		t.Fatalf("decoded %d symbols, want %d", len(dec), len(symbols))
	}
	for i := range symbols {
		if dec[i] != symbols[i] {
			t.Fatalf("symbol %d: got %d, want %d", i, dec[i], symbols[i])
		}
	}
	// Same size as the parent's encoder, and the parent's stream decodes.
	old := refEncode(symbols, alphabet)
	if len(enc) != len(old) {
		t.Fatalf("encoded %d bytes, the heap-built code takes %d", len(enc), len(old))
	}
	if dec, err := checkDecode(t, old); err != nil || !slices.Equal(dec, symbols) {
		t.Fatalf("stream from the parent's encoder does not decode: %v", err)
	}
	return enc
}

// ---- Round trips -------------------------------------------------------------

func TestRoundTripSimple(t *testing.T) {
	roundTrip(t, []int{0, 1, 2, 1, 0, 0, 0, 3}, 4)
}

func TestRoundTripEmpty(t *testing.T) {
	roundTrip(t, []int{}, 10)
}

func TestRoundTripSingleSymbolRepeated(t *testing.T) {
	symbols := make([]int, 1000)
	for i := range symbols {
		symbols[i] = 5
	}
	enc := roundTrip(t, symbols, 8)
	// 1000 identical symbols at 1 bit each ≈ 125 bytes + tiny header.
	if len(enc) > 200 {
		t.Fatalf("single-symbol stream should compress to ~125 bytes, got %d", len(enc))
	}
}

func TestRoundTripSingleElement(t *testing.T) {
	roundTrip(t, []int{3}, 4)
}

func TestRoundTripTwoSymbols(t *testing.T) {
	roundTrip(t, []int{7, 2, 2, 2, 7, 2}, 9)
}

func skewedSymbols(n int) []int {
	rng := rand.New(rand.NewSource(1))
	symbols := make([]int, n)
	for i := range symbols {
		if rng.Float64() < 0.95 {
			symbols[i] = 32768
		} else {
			symbols[i] = rng.Intn(65536)
		}
	}
	return symbols
}

func TestSkewedDistributionCompresses(t *testing.T) {
	// 95% of symbols are the same value — the typical quantization-
	// code distribution for smooth data. Expect close to the entropy
	// (~0.4 bits/symbol), far below the naive 2 bytes/symbol.
	symbols := skewedSymbols(100000)
	enc := roundTrip(t, symbols, 65536)
	// Entropy ≈ 1.1 bits/symbol plus ≈1.6 bits/symbol of code-table
	// header (≈4,800 distinct rare symbols); anything below 4
	// bits/symbol confirms the coder exploits the skew (uncoded would
	// be 16 bits/symbol).
	if bits := 8 * float64(len(enc)) / float64(len(symbols)); bits > 4 {
		t.Fatalf("skewed stream coded at %.2f bits/symbol, want < 4", bits)
	}
}

func TestUniformDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	symbols := make([]int, 5000)
	for i := range symbols {
		symbols[i] = rng.Intn(256)
	}
	roundTrip(t, symbols, 256)
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(2000)
		alphabet := 1 + rng.Intn(300)
		symbols := make([]int, n)
		// Mix of skewed and uniform regions.
		for i := range symbols {
			if rng.Float64() < 0.7 {
				symbols[i] = rng.Intn(1 + alphabet/10)
			} else {
				symbols[i] = rng.Intn(alphabet)
			}
		}
		roundTrip(t, symbols, alphabet)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// realBlocks are the recorded histograms of SZ quantization codes: the
// first and the last block of the 48³ PCG iterate cg-lossy-sync
// checkpoints, as the 1-D linear predictor left them (~1,200 distinct
// codes) and as the 3-D Lorenzo stencil over the inferred grid does
// (~130, in blocks of fourteen whole slabs).
var realBlocks = []string{
	"pcg48_iter25_block0.hist", "pcg48_iter25_block3.hist",
	"pcg48_iter25_grid_block0.hist", "pcg48_iter25_grid_block3.hist",
}

// realBlock expands one of them into a shuffled symbol stream.
func realBlock(t testing.TB, name string) []int {
	t.Helper()
	f, err := os.Open("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var symbols []int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sym, n int
		if _, err := fmt.Sscanf(sc.Text(), "%d %d", &sym, &n); err != nil {
			continue // comment line
		}
		for ; n > 0; n-- {
			symbols = append(symbols, sym)
		}
	}
	rand.New(rand.NewSource(3)).Shuffle(len(symbols), func(i, j int) { symbols[i], symbols[j] = symbols[j], symbols[i] })
	return symbols
}

func TestRoundTripRealBlocks(t *testing.T) {
	for _, name := range realBlocks {
		symbols := realBlock(t, name)
		if len(symbols) < 10000 {
			t.Fatalf("%s: only %d symbols", name, len(symbols))
		}
		roundTrip(t, symbols, 65536)
	}
}

// ---- Code construction -------------------------------------------------------

// lengthsOf runs codeLengths over a frequency table and returns
// sym → length.
func lengthsOf(freq []uint64) (distinct []int, lengths map[int]int) {
	for sym, f := range freq {
		if f > 0 {
			distinct = append(distinct, sym)
		}
	}
	packed := make([]uint64, len(freq))
	counts := codeLengths(freq, distinct, make([]int, 2*len(distinct)), packed)
	lengths = map[int]int{}
	for _, sym := range distinct {
		lengths[sym] = int(packed[sym])
		counts[packed[sym]]--
	}
	for l, c := range counts {
		if c != 0 {
			panic(fmt.Sprintf("per-length count off by %d at length %d", c, l))
		}
	}
	return distinct, lengths
}

func TestCodeLengthsOptimal(t *testing.T) {
	histograms := map[string][]uint64{
		"classic":     {100, 50, 20, 5, 5, 1, 0, 0},
		"two-symbol":  {0, 9, 0, 0, 1},
		"all-equal":   {7, 7, 7, 7, 7, 7, 7},
		"power-of-2":  {1, 1, 2, 4, 8, 16, 32, 64},
		"with-zeros":  {0, 0, 3, 0, 1, 0, 0, 2, 0},
		"one-big":     {1 << 30, 1, 1, 1, 1, 1},
		"fibonacci20": fibonacci(20),
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 40; i++ {
		n := 2 + rng.Intn(3000)
		random, skewed, uniform := make([]uint64, n), make([]uint64, n), make([]uint64, n)
		for s := range random {
			random[s] = uint64(rng.Intn(1000)) // zeros included
			skewed[s] = uint64(1 + rng.ExpFloat64()*rng.ExpFloat64()*50)
			uniform[s] = uint64(100 + rng.Intn(3))
		}
		random[0], random[n-1] = 1, 1 // keep two symbols present
		histograms[fmt.Sprintf("random%d", i)] = random
		histograms[fmt.Sprintf("skewed%d", i)] = skewed
		histograms[fmt.Sprintf("uniform%d", i)] = uniform
	}
	for _, name := range realBlocks {
		freq := make([]uint64, 65536)
		for _, s := range realBlock(t, name) {
			freq[s]++
		}
		histograms[name] = freq
	}
	for name, freq := range histograms {
		distinct, lengths := lengthsOf(freq)
		ref := refCodeLengths(freq, distinct, maxCodeLen)
		var kraft, cost, refCost uint64
		for _, sym := range distinct {
			l := lengths[sym]
			if l < 1 || l > encMaxCodeLen {
				t.Fatalf("%s: symbol %d has length %d", name, sym, l)
			}
			kraft += 1 << uint(encMaxCodeLen-l)
			cost += freq[sym] * uint64(l)
			refCost += freq[sym] * uint64(ref[sym])
		}
		if kraft != 1<<encMaxCodeLen {
			t.Errorf("%s: Kraft sum is %d/2^%d, want exactly 1", name, kraft, encMaxCodeLen)
		}
		if cost != refCost {
			t.Errorf("%s: Σ f·len = %d, the heap-built code has %d", name, cost, refCost)
		}
	}
}

func fibonacci(n int) []uint64 {
	f := make([]uint64, n)
	f[0], f[1] = 1, 1
	for i := 2; i < n; i++ {
		f[i] = f[i-1] + f[i-2]
	}
	return f
}

// TestCodeLengthsDepthRetry drives the flatten-and-retry: Fibonacci
// frequencies make the optimal tree a chain, n−1 deep, so 60 of them
// need a 59-bit code — past the encoder's cap (and the decoder's).
func TestCodeLengthsDepthRetry(t *testing.T) {
	freq := fibonacci(60)
	if unlimited := refCodeLengths(freq, seq(60), 1000); unlimited[0] != 59 {
		t.Fatalf("test premise: the optimal tree should be 59 deep, is %d", unlimited[0])
	}
	distinct, lengths := lengthsOf(freq)
	var kraft uint64
	deepest := 0
	for _, sym := range distinct {
		deepest = max(deepest, lengths[sym])
		kraft += 1 << uint(encMaxCodeLen-lengths[sym])
	}
	if deepest > encMaxCodeLen {
		t.Fatalf("longest code is %d bits, cap is %d", deepest, encMaxCodeLen)
	}
	if kraft != 1<<encMaxCodeLen {
		t.Fatalf("flattened code is not complete: Kraft %d/2^%d", kraft, encMaxCodeLen)
	}
	// One below the cap needs no retry and stays optimal.
	freq = fibonacci(encMaxCodeLen + 1)
	if _, lengths := lengthsOf(freq); lengths[0] != encMaxCodeLen {
		t.Fatalf("Fibonacci(%d): deepest code %d, want %d", len(freq), lengths[0], encMaxCodeLen)
	}
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// ---- Bit loops ---------------------------------------------------------------

// TestEmitBitsAccumulator checks the emission loop's invariant —
// pending bits (≤ 7 after a drain) plus the longest code
// (≤ encMaxCodeLen) fit the 64-bit accumulator — at its edge: an
// encMaxCodeLen-bit code arriving at each of the 8 possible byte
// alignments, and right after codes that fill the accumulator exactly.
// The decoder's longest code, 58 bits, would not fit behind 7 pending
// bits, which is why the encoder's cap is lower.
func TestEmitBitsAccumulator(t *testing.T) {
	if 7+encMaxCodeLen > 64 || 7+maxCodeLen <= 64 {
		t.Fatalf("7 pending bits + %d-bit code must fit 64 bits, + %d-bit must not", encMaxCodeLen, maxCodeLen)
	}
	const one, long, mid = 0, 1, 2
	packed := []uint64{
		one:  1<<6 | 1,                                        // "1"
		long: ((1<<encMaxCodeLen-1)&^0b10)<<6 | encMaxCodeLen, // 1…101
		mid:  0x2AAAAAAA<<6 | 31,
	}
	for lead := 0; lead < 8; lead++ {
		var symbols []int
		for i := 0; i < lead; i++ {
			symbols = append(symbols, one)
		}
		symbols = append(symbols, long, long, mid, long, one, long, mid, mid, one, one, long)
		var w bitWriter
		for _, s := range symbols {
			w.write(packed[s]>>6, int(packed[s]&63))
		}
		buf := make([]byte, len(w.buf)+8)
		n := emitBits(buf, symbols, packed)
		if !bytes.Equal(buf[:n], w.buf) {
			t.Fatalf("lead %d: emitBits wrote\n%x, want\n%x", lead, buf[:n], w.buf)
		}
	}
	if n := emitBits(make([]byte, 8), nil, packed); n != 0 {
		t.Fatalf("no symbols: %d bytes", n)
	}
}

// TestDecodeLongestCodes feeds the decoder the longest codes it
// accepts, 58 bits, at every byte alignment: a 58-bit code can
// straddle the 57 bits a byte-wise refill guarantees.
func TestDecodeLongestCodes(t *testing.T) {
	lengths := map[int]int{}
	for sym := 0; sym < maxCodeLen-1; sym++ {
		lengths[sym] = sym + 1 // 1 … 57
	}
	lengths[maxCodeLen-1], lengths[maxCodeLen] = maxCodeLen, maxCodeLen
	table := refCanonical(lengths)
	sort.Slice(table, func(i, j int) bool { return table[i].sym < table[j].sym })
	for lead := 0; lead < 8; lead++ {
		var symbols []int
		for i := 0; i < lead; i++ {
			symbols = append(symbols, 0)
		}
		symbols = append(symbols, 57, 58, 56, 0, 58, 58, 13, 57, 3, 57)
		for cut := 0; cut < 2; cut++ { // 8-byte refill path, then the byte-wise tail
			data := refStream(maxCodeLen+1, table, symbols)
			got, err := checkDecode(t, data)
			if err != nil || !slices.Equal(got, symbols) {
				t.Fatalf("lead %d: got %v (%v), want %v", lead, got, err, symbols)
			}
			symbols = symbols[:lead+2]
		}
	}
}

// ---- Rejections --------------------------------------------------------------

func TestEncodeRejectsOutOfRange(t *testing.T) {
	if _, err := Encode([]int{5}, 4); err == nil {
		t.Fatal("expected error for symbol outside alphabet")
	}
	if _, err := Encode([]int{-1}, 4); err == nil {
		t.Fatal("expected error for negative symbol")
	}
	if _, err := Encode(nil, 0); err == nil {
		t.Fatal("expected error for empty alphabet")
	}
	if _, err := Encode(nil, 1<<24+1); err == nil {
		t.Fatal("expected error for an alphabet no decoder accepts")
	}
}

func TestDecodeRejectsTruncated(t *testing.T) {
	enc, err := Encode([]int{1, 2, 3, 1, 2, 3, 0, 0, 0}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeInto(enc[:2], nil); err == nil {
		t.Fatal("expected error on truncated header")
	}
	if _, err := DecodeInto(enc[:len(enc)-1], nil); err == nil {
		t.Fatal("expected error on truncated bitstream")
	}
}

// craftedStreams are tables no encoder writes; the fuzz corpus is
// seeded from them.
func craftedStreams() map[string][]byte {
	return map[string][]byte{
		// Three 1-bit codes: Kraft sum 3/2.
		"oversubscribed": refStream(4, []refCode{{0, 1, 0}, {1, 1, 1}, {2, 1, 2}}, []int{0, 1, 0}),
		"out-of-order":   refStream(4, []refCode{{2, 1, 0}, {1, 1, 1}}, []int{2, 1}),
		"duplicate":      refStream(4, []refCode{{1, 1, 0}, {1, 1, 1}}, []int{1}),
		// 2^60 symbols claimed by a 12-byte stream.
		"huge-count": append(binary.AppendUvarint(nil, 1<<60), 4, 1, 0, 1, 0),
		// A table larger than the bytes that could hold it.
		"huge-table": append(binary.AppendUvarint([]byte{1, 0x80, 0x80, 0x04}, 1<<15), 0, 1),
		// An incomplete code (0, 10) and the pattern it leaves unassigned
		// (the header carries only lengths; the bits written are 0 11).
		"unassigned":  refStream(4, []refCode{{0, 1, 0}, {1, 2, 3}}, []int{0, 1}),
		"zero-length": {1, 4, 1, 0, 0, 0},
		"length-59":   {1, 4, 1, 0, 59, 0},
	}
}

func TestDecodeRejectsCrafted(t *testing.T) {
	for name, data := range craftedStreams() {
		if _, err := checkDecode(t, data); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
	// An incomplete code is fine as long as the stream stays inside it.
	ok := refStream(4, []refCode{{0, 1, 0}, {1, 2, 2}}, []int{0, 1, 1, 0})
	if got, err := checkDecode(t, ok); err != nil || !slices.Equal(got, []int{0, 1, 1, 0}) {
		t.Fatalf("incomplete code: got %v, %v", got, err)
	}
}

// ---- Allocation and concurrency ----------------------------------------------

func TestSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	symbols := realBlock(t, "pcg48_iter25_block0.hist")
	enc, err := Encode(symbols, 65536)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 0, len(enc)+8)
	if n := testing.AllocsPerRun(20, func() { dst, _ = AppendEncode(dst[:0], symbols, 65536) }); n != 0 {
		t.Errorf("AppendEncode: %v allocs/op in steady state, want 0", n)
	}
	buf := make([]int, 0, len(symbols))
	if n := testing.AllocsPerRun(20, func() { buf, _ = DecodeInto(enc, buf[:0]) }); n != 0 {
		t.Errorf("DecodeInto: %v allocs/op in steady state, want 0", n)
	}
	if !bytes.Equal(dst, enc) || !slices.Equal(buf, symbols) {
		t.Fatal("recycled buffers changed the result")
	}
}

// TestConcurrentUseIsPure encodes and decodes a mix of streams from 1,
// 2 and 7 goroutines sharing the package's pools: the bytes must be
// those a lone caller gets (the pooled tables' all-zero invariant is
// what this guards).
func TestConcurrentUseIsPure(t *testing.T) {
	type job struct {
		symbols  []int
		alphabet int
		want     []byte
	}
	jobs := []job{
		{symbols: realBlock(t, "pcg48_iter25_block0.hist"), alphabet: 65536},
		{symbols: realBlock(t, "pcg48_iter25_block3.hist"), alphabet: 65536},
		{symbols: realBlock(t, "pcg48_iter25_grid_block0.hist"), alphabet: 65536},
		{symbols: skewedSymbols(20000), alphabet: 65536},
		{symbols: []int{3, 3, 3}, alphabet: 4},
		{symbols: seq(300), alphabet: 300},
	}
	for i := range jobs {
		var err error
		if jobs[i].want, err = Encode(jobs[i].symbols, jobs[i].alphabet); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 7} {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for round := 0; round < 6; round++ {
					j := jobs[(w+round)%len(jobs)]
					enc, err := AppendEncode(nil, j.symbols, j.alphabet)
					if err != nil || !bytes.Equal(enc, j.want) {
						t.Errorf("%d workers: encode differs from the serial result (%v)", workers, err)
						return
					}
					dec, err := DecodeInto(enc, nil)
					if err != nil || !slices.Equal(dec, j.symbols) {
						t.Errorf("%d workers: decode differs (%v)", workers, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// ---- Fuzzing -----------------------------------------------------------------

// FuzzDecodeInto: any input either errors or decodes to what the
// bit-at-a-time reference decodes, without panicking and without
// allocating more than a multiple of the input plus the symbol count
// its header declares.
func FuzzDecodeInto(f *testing.F) {
	for _, data := range craftedStreams() {
		f.Add(data)
	}
	for _, symbols := range [][]int{{}, {3}, {0, 1, 2, 1, 0, 0, 0, 3}, skewedSymbols(300)} {
		enc, err := Encode(symbols, 65536)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got []int
		var err error
		allocated := allocatedBytes(func() { got, err = DecodeInto(data, nil) })
		// Output: 8 bytes per declared symbol, declared ≤ 8 per input
		// byte. Table rows: 8 bytes per 2-byte entry. 64 KiB covers a
		// cold decoder pool and the error value.
		declared, _ := binary.Uvarint(data)
		if limit := 8*min(declared, 8*uint64(len(data))) + 16*uint64(len(data)) + 64<<10; allocated > limit {
			t.Fatalf("%d input bytes declaring %d symbols allocated %d bytes", len(data), declared, allocated)
		}
		if err == nil {
			checkAgainstRef(t, data, got)
		}
	})
}

// allocatedBytes reports the heap bytes allocated while f runs.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
