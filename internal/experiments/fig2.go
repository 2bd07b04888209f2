package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/solver"
	"repro/internal/sz"
)

func init() {
	register("fig2", "Figure 2: average extra iterations of CG per lossy recovery vs relative error bound", runFig2)
}

// Fig2Result reports, per error bound, the average extra iterations a
// single lossy compress/decompress restart costs the CG method,
// expressed as a percentage of the failure-free iteration count
// (paper: 10–25% across 1e-3..1e-6).
type Fig2Result struct {
	Bounds        []float64
	ExtraPercent  []float64
	BaselineIters int
	Trials        int
}

func runFig2(cfg Config) (Result, error) {
	grid, trials := simGrid("cg", cfg.Quick), 8
	if cfg.Quick {
		trials = 3
	}
	if cfg.Trials > 0 {
		trials = cfg.Trials
	}
	a, b := poissonSystem(grid)
	n, _, err := baseline("cg", grid, a, b)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	bounds := []float64{1e-3, 1e-4, 1e-5, 1e-6}
	out := &Fig2Result{Bounds: bounds, BaselineIters: n, Trials: trials}
	for _, eb := range bounds {
		totalExtra := 0
		for trial := 0; trial < trials; trial++ {
			// "Randomly select an iteration to compress the
			// approximate solution vector, decompress it to continue
			// the computations, and count the extra iterations" §4.4.3.
			t := n/10 + rng.Intn(n*8/10)
			s, err := solver.New("cg", a, b, solver.Options{RTol: cluster.PaperBaselines()["cg"].RTol})
			if err != nil {
				return nil, err
			}
			for i := 0; i < t; i++ {
				s.Step()
			}
			comp, err := sz.Compress(s.X(), sz.Params{Mode: sz.PWRel, ErrorBound: eb})
			if err != nil {
				return nil, err
			}
			xr, err := sz.Decompress(comp)
			if err != nil {
				return nil, err
			}
			s.Restart(xr)
			res, err := solver.RunToConvergence(s, solver.Options{MaxIter: 400000}, nil)
			if err != nil {
				return nil, err
			}
			if !res.Converged {
				return nil, fmt.Errorf("fig2: CG did not re-converge after lossy restart (eb=%g)", eb)
			}
			extra := res.Iterations - n
			if extra < 0 {
				extra = 0
			}
			totalExtra += extra
		}
		out.ExtraPercent = append(out.ExtraPercent,
			100*float64(totalExtra)/float64(trials)/float64(n))
	}
	return out, nil
}

// WriteText renders the bar chart data.
func (r *Fig2Result) WriteText(w io.Writer) error {
	fmt.Fprintln(w, "Figure 2 — average extra iterations of CG per lossy recovery")
	fmt.Fprintf(w, "baseline: %d iterations to converge; %d trials per bound\n", r.BaselineIters, r.Trials)
	for i, eb := range r.Bounds {
		fmt.Fprintf(w, "  rel. error bound %.0e: %6.1f%% extra iterations\n", eb, r.ExtraPercent[i])
	}
	fmt.Fprintln(w, "paper: 10%–25% across these bounds")
	return nil
}
