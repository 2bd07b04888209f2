//go:build !amd64 || amd64.v3

package precond

// sweepKernel is never set here (diag_amd64.go): solve runs fwd and bwd.
var sweepKernel = false

func fwdLanes(d, r *float64, t *[4]*coefs, nx, s2, head, tail int) { panic("precond: no sweep kernel") }

func bwdLanes(d *float64, t *[6]*coefs, nx, s2, tail, head int) { panic("precond: no sweep kernel") }
