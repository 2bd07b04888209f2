package codec

// WarmDeflaters leaves n deflaters, each sized for block, in the free
// list. A warm-up compress alone does not: its blocks may run one after
// the other and share one deflater, and the first measured call that
// runs two at once then builds a second (about 800 KB). EncodeBlock
// builds one when the list is empty, so each is taken out before the
// next call, and all are put back at the end.
func WarmDeflaters(n int, block []float64) {
	held := make([]*deflater, n)
	for i := range held {
		BlockedFlate{}.EncodeBlock(nil, block)
		held[i] = deflaters.get()
	}
	for _, d := range held {
		deflaters.put(d)
	}
}
