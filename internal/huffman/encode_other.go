//go:build !amd64

package huffman

var useKernels = false // never set off amd64 (see encode_amd64.go)

func countKernel([]int, []uint64, []int) (int, int) { panic("huffman: no kernel") }
func emitKernel([]byte, []int, []uint64) int        { panic("huffman: no kernel") }
