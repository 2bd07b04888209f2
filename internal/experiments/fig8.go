package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/model"
)

func init() {
	register("fig8", "Figure 8: number of convergence iterations, failure-free vs lossy checkpointing", runFig8)
}

// Fig8Cell is one (method, scale) comparison.
type Fig8Cell struct {
	Method      string
	Procs       int
	Unknowns    int
	FailureFree int
	Lossy       int
	Failures    int
}

// Fig8Result reproduces Figure 8: convergence iterations with lossy
// checkpointing under injected failures (MTTI = 1 h) versus the
// failure-free baseline, across the weak-scaling grid. Real solves at
// laptop scale; the simulated clock maps each run onto the paper's
// wall-clock baseline so the failure dynamics match.
type Fig8Result struct {
	Cells []Fig8Cell
}

func runFig8(cfg Config) (Result, error) {
	scales := []int{256, 512, 1024, 2048}
	out, mdl := &Fig8Result{}, cluster.Bebop()
	for _, method := range methodNames {
		base := cluster.PaperBaselines()[method]
		ratio, err := measureRatios(method, gridFor(1024, cfg.Quick), base.LossyErrorBound)
		if err != nil {
			return nil, err
		}
		for _, procs := range scales {
			grid := gridForMethod(method, procs, cfg.Quick)
			a, b := poissonSystem(grid)
			iters, tit, err := baseline(method, grid, a, b)
			if err != nil {
				return nil, err
			}
			enc, raw := base.SaveBytes(core.Lossy, base.VectorBytes(procs), ratio[core.Lossy])
			c, r := mdl.CheckpointSeconds(procs, enc, raw, core.Lossy), mdl.RecoverySeconds(procs, enc, raw, core.Lossy)
			res, err := managedRun(method, a, b, base.RTol, core.Lossy, base.LossyErrorBound,
				tit, func(float64) float64 { return c }, r, core.DriveConfig{
					Failures:        core.FailureTimes(nil, failure.NewInjector(3600, cfg.Seed+int64(procs))),
					IntervalSeconds: model.YoungInterval(3600, c),
					MaxIterations:   2000000,
				})
			if err != nil {
				return nil, err
			}
			if !res.Converged {
				return nil, fmt.Errorf("fig8: %s lossy run did not converge at grid %d", method, grid)
			}
			out.Cells = append(out.Cells, Fig8Cell{
				Method:      method,
				Procs:       procs,
				Unknowns:    a.Rows,
				FailureFree: iters,
				Lossy:       res.ConvergenceIterations,
				Failures:    len(res.FailureEvents),
			})
		}
	}
	return out, nil
}

// Cell returns the entry for (method, procs), nil if absent.
func (r *Fig8Result) Cell(method string, procs int) *Fig8Cell {
	for i := range r.Cells {
		if r.Cells[i].Method == method && r.Cells[i].Procs == procs {
			return &r.Cells[i]
		}
	}
	return nil
}

// WriteText renders the grouped bars of Figure 8.
func (r *Fig8Result) WriteText(w io.Writer) error {
	fmt.Fprintln(w, "Figure 8 — convergence iterations: failure-free vs lossy checkpointing (MTTI = 1 h)")
	fmt.Fprintf(w, "%-8s %6s %9s | %12s %12s %9s %8s\n",
		"method", "procs", "unknowns", "failure-free", "lossy", "failures", "delta")
	for _, c := range r.Cells {
		delta := 100 * float64(c.Lossy-c.FailureFree) / float64(c.FailureFree)
		fmt.Fprintf(w, "%-8s %6d %9d | %12d %12d %9d %+7.1f%%\n",
			c.Method, c.Procs, c.Unknowns, c.FailureFree, c.Lossy, c.Failures, delta)
	}
	fmt.Fprintln(w, "paper: Jacobi +0%, GMRES ≤0% (slightly accelerated), CG ≈+25%")
	return nil
}
