//go:build !amd64 || amd64.v3

package sz

// useKernels is never set off amd64 or from GOAMD64=v3 on (see
// fused_amd64.go): the two-pass path writes every PWRel block.
var useKernels = false

func (g *gridLogs) rows(int, int) bool { panic("sz: no kernel") }

func gridRunAVX2([]float64, []float64, []float64, []float64, []int32, []byte, float64, int, int) (int, []byte) {
	panic("sz: no kernel")
}
