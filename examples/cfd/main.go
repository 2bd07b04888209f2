// CFD pressure-correction demo: the paper's §1 motivation. SIMPLE-like
// incompressible-flow timestepping spends most of its time in a
// Poisson pressure solve; checkpointing the iterative solver therefore
// dominates the application's checkpointing cost. This example runs a
// toy 2D pressure-correction loop where every timestep solves a
// pressure Poisson system with CG under lossy checkpointing, and one
// timestep is interrupted by a failure.
package main

import (
	"fmt"
	"log"
	"math"

	lossyckpt "repro"
)

const (
	gridN     = 24 // pressure grid (576 cells)
	timesteps = 5
)

func main() {
	a := lossyckpt.Poisson2D(gridN)
	n := a.Rows

	// A divergence field that evolves across timesteps (the "velocity
	// predictor" of SIMPLE produces a new RHS every outer iteration).
	div := make([]float64, n)
	pressure := make([]float64, n)

	storage := lossyckpt.NewMemStorage()
	totalIters := 0
	for step := 0; step < timesteps; step++ {
		// Update the divergence source: a translating smooth blob.
		for j := 0; j < gridN; j++ {
			for i := 0; i < gridN; i++ {
				x := float64(i)/gridN - 0.3 - 0.1*float64(step)
				y := float64(j)/gridN - 0.5
				div[j*gridN+i] = math.Exp(-40 * (x*x + y*y))
			}
		}

		// Pressure solve with warm start from the previous timestep —
		// exactly the iterative kernel the paper protects.
		cg := lossyckpt.NewCG(a, nil, div, pressure, lossyckpt.SeqSpace{},
			lossyckpt.SolverOptions{RTol: 1e-8})
		mgr, err := lossyckpt.NewManager(lossyckpt.ManagerConfig{
			Scheme:   lossyckpt.Lossy,
			Interval: 8,
			SZParams: lossyckpt.SZParams{Mode: lossyckpt.PWRel, ErrorBound: 1e-5},
		}, storage, cg)
		if err != nil {
			log.Fatal(err)
		}

		failAt := -1
		if step == 2 {
			failAt = 20 // one failure in the middle of timestep 2
		}
		res, err := lossyckpt.RunToConvergence(cg, lossyckpt.SolverOptions{}, func(it int, rnorm float64) error {
			if mgr.Due() {
				if _, err := mgr.Checkpoint(); err != nil {
					return err
				}
			}
			if it == failAt {
				failAt = -1
				// The warm start is this solve's initial guess, the
				// chain's last rung.
				rep, err := mgr.RecoverTiered(pressure)
				if err != nil {
					return err
				}
				fmt.Printf("  [step %d] failure mid-solve -> lossy recovery to iteration %d\n",
					step, rep.Iteration)
			}
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		copy(pressure, cg.X())
		totalIters += res.Iterations

		// Pressure correction applied to the (implicit) velocity field;
		// here we just report the solve.
		fmt.Printf("timestep %d: pressure solve converged=%v in %d iterations (residual %.2e)\n",
			step, res.Converged, res.Iterations, res.FinalResidual)
	}
	fmt.Printf("completed %d timesteps, %d total CG iterations\n", timesteps, totalIters)
}
