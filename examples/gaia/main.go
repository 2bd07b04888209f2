// Gaia-style least squares: the paper's §1 opening example is the Gaia
// astrometric solution — a sparse least-squares system with ~7.2e10
// equations solved iteratively for days on 2,048 nodes. This example
// solves a (much smaller) sparse overdetermined system min ‖Gy − o‖₂
// by running CG on the normal equations GᵀG·y = Gᵀo, protected by
// lossy checkpointing with two injected failures.
package main

import (
	"fmt"
	"log"
	"math/rand"

	lossyckpt "repro"
)

const (
	nStars       = 1500 // unknowns (star parameters)
	nObservation = 6000 // observations (equations)
)

func main() {
	rng := rand.New(rand.NewSource(7))

	// G: each observation couples a star parameter with two calibration
	// neighbours — sparse, tall, full rank.
	g := lossyckpt.NewMatrixBuilder(nObservation, nStars)
	for i := 0; i < nObservation; i++ {
		s := rng.Intn(nStars)
		g.Add(i, s, 1+rng.Float64())
		g.Add(i, (s+1)%nStars, 0.3*rng.NormFloat64())
		g.Add(i, (s+7)%nStars, 0.1*rng.NormFloat64())
	}
	gm := g.Build()

	// Ground truth and observations o = G·yTrue + noise.
	yTrue := lossyckpt.SmoothField(nStars, 3)
	o := make([]float64, nObservation)
	gm.MulVec(o, yTrue)
	for i := range o {
		o[i] += 1e-8 * rng.NormFloat64()
	}

	// Normal equations: A = GᵀG (SPD), b = Gᵀo.
	gt := gm.Transpose()
	b := make([]float64, nStars)
	gt.MulVec(b, o)
	a := multiplySparse(gt, gm)

	cg := lossyckpt.NewCG(a, nil, b, nil, lossyckpt.SeqSpace{}, lossyckpt.SolverOptions{RTol: 1e-10})
	mgr, err := lossyckpt.NewManager(lossyckpt.ManagerConfig{
		Scheme:   lossyckpt.Lossy,
		Interval: 25,
		SZParams: lossyckpt.SZParams{Mode: lossyckpt.PWRel, ErrorBound: 1e-5},
	}, lossyckpt.NewMemStorage(), cg)
	if err != nil {
		log.Fatal(err)
	}

	failures := map[int]bool{40: true, 110: true}
	x0 := make([]float64, a.Rows)
	res, err := lossyckpt.RunToConvergence(cg, lossyckpt.SolverOptions{MaxIter: 100000},
		func(it int, rnorm float64) error {
			if mgr.Due() {
				if _, err := mgr.Checkpoint(); err != nil {
					return err
				}
			}
			if failures[it] {
				delete(failures, it)
				rep, err := mgr.RecoverTiered(x0)
				if err != nil {
					return err
				}
				fmt.Printf("failure at iteration %d -> recovered to %d\n", it, rep.Iteration)
			}
			return nil
		})
	if err != nil {
		log.Fatal(err)
	}

	// Solution quality against ground truth.
	var num, den float64
	for i, v := range cg.X() {
		d := v - yTrue[i]
		num += d * d
		den += yTrue[i] * yTrue[i]
	}
	fmt.Printf("converged=%v iterations=%d residual=%.2e\n", res.Converged, res.Iterations, res.FinalResidual)
	fmt.Printf("relative solution error vs ground truth: %.2e\n", num/den)
}

// multiplySparse computes GᵀG through the builder (adequate for the
// example's size; a production sparse GEMM lives outside this demo).
func multiplySparse(gt, g *lossyckpt.CSR) *lossyckpt.CSR {
	b := lossyckpt.NewMatrixBuilder(gt.Rows, g.Cols)
	// Row i of Gᵀ dotted with columns of G: accumulate via G's rows.
	// (GᵀG)_{jk} = Σ_i G_{ij} G_{ik}: iterate rows of G and form outer
	// products of their sparse entries.
	for i := 0; i < g.Rows; i++ {
		lo, hi := g.RowPtr[i], g.RowPtr[i+1]
		for p := lo; p < hi; p++ {
			for q := lo; q < hi; q++ {
				b.Add(g.ColIdx[p], g.ColIdx[q], g.Val[p]*g.Val[q])
			}
		}
	}
	return b.Build()
}
