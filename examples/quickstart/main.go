// Quickstart: solve a sparse SPD system with CG under lossy
// checkpointing, kill the solver mid-run, and recover from the
// compressed checkpoint — the 60-second tour of the public API.
package main

import (
	"fmt"
	"log"

	lossyckpt "repro"
)

func main() {
	// 1. A linear system: the paper's 3D Poisson operator (Eq. 15).
	a := lossyckpt.Poisson3D(16) // 4,096 unknowns
	b := lossyckpt.OnesRHS(a.Rows)

	// 2. A solver with a step-level API.
	cg := lossyckpt.NewCG(a, nil, b, nil, lossyckpt.SeqSpace{}, lossyckpt.SolverOptions{RTol: 1e-7})

	// 3. The lossy checkpointing scheme: only the solution vector is
	//    saved, compressed within a pointwise-relative error bound.
	mgr, err := lossyckpt.NewManager(lossyckpt.ManagerConfig{
		Scheme:   lossyckpt.Lossy,
		Interval: 10, // checkpoint every 10 iterations
		SZParams: lossyckpt.SZParams{Mode: lossyckpt.PWRel, ErrorBound: 1e-4},
	}, lossyckpt.NewMemStorage(), cg)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Iterate; at iteration 17 a "failure" strikes and we recover
	//    from the latest lossy checkpoint (or, were there none, from the
	//    initial guess x0).
	x0 := make([]float64, a.Rows)
	failed := false
	res, err := lossyckpt.RunToConvergence(cg, lossyckpt.SolverOptions{}, func(it int, rnorm float64) error {
		if mgr.Due() {
			info, err := mgr.Checkpoint()
			if err != nil {
				return err
			}
			fmt.Printf("  checkpoint at iteration %d: %d bytes (ratio %.1fx)\n",
				it, info.Bytes, info.CompressionRatio)
		}
		if it == 17 && !failed {
			failed = true
			rep, err := mgr.RecoverTiered(x0)
			if err != nil {
				return err
			}
			fmt.Printf("  failure at iteration %d -> recovered from checkpointed iteration %d\n", it, rep.Iteration)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("converged=%v after %d iterations, residual %.2e\n",
		res.Converged, res.Iterations, res.FinalResidual)
}
