package huffman

// useKernels selects the assembly bodies of AppendEncode's histogram
// and of emitBits (encode_amd64.s). It is set here; only the tests ever
// clear it.
var useKernels = true

// countKernel is AppendEncode's histogram loop (encode_amd64.s): it
// appends each distinct symbol to syms, and returns how many and where
// it stopped for the Go loop to go on (len(symbols) if it did not): at
// a symbol it must not count, or where the Go loop is the faster.
//
//go:noescape
func countKernel(symbols []int, freq []uint64, syms []int) (nd, stop int)

// emitKernel is emitBits' body.
//
//go:noescape
func emitKernel(buf []byte, symbols []int, packed []uint64) int
