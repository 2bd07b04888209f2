package lossyckpt_test

import (
	"fmt"
	"slices"
	"testing"
	_ "unsafe" // go:linkname

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fti"
	"repro/internal/parallel"
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

// szUseKernels is internal/sz's dispatch flag (true on amd64), bound by
// name for the same reason as vecUseAVX2.
//
//go:linkname szUseKernels repro/internal/sz.useKernels
var szUseKernels bool

// runSZPaths runs body as "kernel" (sz's one-pass grid encoder and
// vec's four-lane exp; skipped where there are none) and "portable"
// (the two-pass encoder and the math.Exp loop they are tested
// against), each on one worker ("w1") and on all of them ("w2" on two).
func runSZPaths(b *testing.B, body func(b *testing.B)) {
	haveSZ, haveVec := szUseKernels, vecUseAVX2
	defer func() { szUseKernels, vecUseAVX2 = haveSZ, haveVec }()
	all := parallel.Workers()
	for _, path := range []string{"kernel", "portable"} {
		b.Run(path, func(b *testing.B) {
			if path == "kernel" && !haveSZ {
				b.Skip("no kernels on this machine")
			}
			szUseKernels, vecUseAVX2 = path == "kernel", path == "kernel" && haveVec
			for _, w := range slices.Compact([]int{1, all}) {
				b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
					defer parallel.SetWorkers(parallel.SetWorkers(w))
					body(b)
				})
			}
		})
	}
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
	out, err := core.Drive(core.DriveConfig{
		Stepper: s,
		Manager: mgr,
		X0:      make([]float64, n),
		Costs: &core.Costs{
			TitSeconds:        tit,
			CheckpointSeconds: func(fti.Info) float64 { return ckptCost },
			RecoverySeconds:   func(fti.Info) float64 { return ckptCost * 1.2 },
		},
		Failures:        core.FailureTimes(nil, failure.NewInjector(3600, 5)),
		IntervalSeconds: interval,
		MaxIterations:   5_000_000,
	})
	if err != nil {
		return 0, err
	}
	return out.SimSeconds, nil
}
