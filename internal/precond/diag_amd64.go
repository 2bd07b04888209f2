//go:build !amd64.v3

package precond

import "repro/internal/vec"

// sweepKernel selects diag_amd64.s for diag3.solve's blocks: VEX code,
// so it runs where vec's kernels do, and it rounds every product before
// it subtracts, as Go does below GOAMD64=v3. Only tests clear it.
var sweepKernel = vec.Accelerated()

//go:noescape
func fwdLanes(d, r *float64, t *[4]*coefs, nx, s2, head, tail int)

//go:noescape
func bwdLanes(d *float64, t *[6]*coefs, nx, s2, tail, head int)
