package lossyckpt_test

import (
	"testing"
	_ "unsafe" // go:linkname

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fti"
	"repro/internal/sim"
	"repro/internal/solver"
)

// vecUseAVX2 is internal/vec's dispatch flag (true when the CPU has
// AVX2), bound by name: vec deliberately exports no switch, and the
// go/asm benchmark pairs here are the one thing outside its own tests
// that needs to run both paths on one machine.
//
//go:linkname vecUseAVX2 repro/internal/vec.useAVX2
var vecUseAVX2 bool

// runGoAndAsm runs body as the sub-benchmarks "go" (vec's portable
// loops) and "asm" (its AVX2 kernels; skipped where there are none).
func runGoAndAsm(b *testing.B, body func(b *testing.B)) {
	have := vecUseAVX2
	defer func() { vecUseAVX2 = have }()
	b.Run("go", func(b *testing.B) {
		vecUseAVX2 = false
		body(b)
	})
	b.Run("asm", func(b *testing.B) {
		if !have {
			b.Skip("no AVX2 on this machine")
		}
		vecUseAVX2 = true
		body(b)
	})
}

// ratio is the compression ratio original/compressed in bytes of n
// float64 values.
func ratio(n int, compressed []byte) float64 {
	return float64(8*n) / float64(len(compressed))
}

// simRunJacobi drives one lossy-checkpointed Jacobi run in virtual
// time and returns the total simulated seconds (shared by the interval
// ablation bench).
func simRunJacobi(s solver.Checkpointable, mgr *core.Manager, n int, tit, interval, ckptCost float64) (float64, error) {
	out, err := sim.Run(sim.Config{
		Stepper:           s,
		Manager:           mgr,
		X0:                make([]float64, n),
		TitSeconds:        tit,
		IntervalSeconds:   interval,
		CheckpointSeconds: func(fti.Info) float64 { return ckptCost },
		RecoverySeconds:   func(fti.Info) float64 { return ckptCost * 1.2 },
		Failures:          failure.NewInjector(3600, 5),
		MaxIterations:     5_000_000,
	})
	if err != nil {
		return 0, err
	}
	return out.SimSeconds, nil
}
