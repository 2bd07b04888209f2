// Theorem-3 demo: GMRES with the adaptive lossy-checkpoint error
// bound. The paper proves (Theorem 3) that if the compressor's
// pointwise-relative bound tracks ‖r⁽ᵗ⁾‖/‖b‖, a lossy recovery leaves
// the GMRES residual at its pre-failure order — so convergence is not
// delayed (expected N′ = 0). This example prints the adaptive bound
// and the resulting checkpoint sizes as GMRES converges, then
// demonstrates a delay-free recovery.
package main

import (
	"fmt"
	"log"

	lossyckpt "repro"
)

func main() {
	a := lossyckpt.Poisson3D(12)
	b := lossyckpt.OnesRHS(a.Rows)
	bnorm := lossyckpt.SeqSpace{}.Norm2(b)

	// Failure-free reference.
	ref := lossyckpt.NewGMRES(a, nil, b, nil, 10, lossyckpt.SeqSpace{}, lossyckpt.SolverOptions{RTol: 1e-9})
	resRef, err := lossyckpt.RunToConvergence(ref, lossyckpt.SolverOptions{MaxIter: 100000}, nil)
	if err != nil || !resRef.Converged {
		log.Fatalf("reference GMRES failed: %v", err)
	}
	fmt.Printf("failure-free GMRES: %d iterations\n", resRef.Iterations)

	s := lossyckpt.NewGMRES(a, nil, b, nil, 10, lossyckpt.SeqSpace{}, lossyckpt.SolverOptions{RTol: 1e-9})
	mgr, err := lossyckpt.NewManager(lossyckpt.ManagerConfig{
		Scheme:    lossyckpt.Lossy,
		Interval:  8,
		Adaptive:  true, // Theorem 3: eb = ‖r‖/‖b‖ per checkpoint
		AdaptiveC: 1,
		BNorm:     bnorm,
	}, lossyckpt.NewMemStorage(), s)
	if err != nil {
		log.Fatal(err)
	}

	failAt := resRef.Iterations / 2
	rollback := 0
	x0 := make([]float64, a.Rows)
	res, err := lossyckpt.RunToConvergence(s, lossyckpt.SolverOptions{MaxIter: 100000},
		func(it int, rnorm float64) error {
			if mgr.Due() {
				info, err := mgr.Checkpoint()
				if err != nil {
					return err
				}
				eb := lossyckpt.GMRESAdaptiveBound(rnorm, bnorm, 1)
				fmt.Printf("  ckpt at it %3d: adaptive eb %.2e, %5d bytes (ratio %6.1fx)\n",
					it, eb, info.Bytes, info.CompressionRatio)
			}
			if it == failAt {
				failAt = -1
				rep, err := mgr.RecoverTiered(x0)
				if err != nil {
					return err
				}
				rollback = it - rep.Iteration
				fmt.Printf("  failure at it %d -> lossy recovery (rollback %d iterations)\n", it, rollback)
			}
			return nil
		})
	if err != nil {
		log.Fatal(err)
	}
	extra := res.Iterations - resRef.Iterations - rollback
	fmt.Printf("with lossy recovery: %d iterations (rollback %d, N' = %d)\n",
		res.Iterations, rollback, extra)
	fmt.Println("Theorem 3 predicts N' ≈ 0: the recovery does not delay convergence.")
}
