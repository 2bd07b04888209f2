package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
)

func init() {
	register("fig9", "Figure 9: Jacobi residual traces with lossy checkpointing and 0/1/2 failures", runFig9)
}

// Fig9Trace is one execution's residual series.
type Fig9Trace struct {
	Label      string
	Residuals  []float64 // per executed iteration
	FailureAt  []int     // iteration indices where failures struck
	Iterations int
	FinalRes   float64
}

// Fig9Result reproduces Figure 9: typical Jacobi executions with lossy
// checkpointing — failure-free, one failure/restart, and two
// failures/restarts — all converging to the same residual level.
type Fig9Result struct {
	Traces []Fig9Trace
}

func runFig9(cfg Config) (Result, error) {
	grid := 16
	if cfg.Quick {
		grid = 9
	}
	a, b := poissonSystem(grid)
	base, mdl := cluster.PaperBaselines()["jacobi"], cluster.Bebop()

	ratio, err := measureRatios("jacobi", gridFor(1024, cfg.Quick), base.LossyErrorBound)
	if err != nil {
		return nil, err
	}
	enc, raw := base.SaveBytes(core.Lossy, base.VectorBytes(2048), ratio[core.Lossy])
	c, r := mdl.CheckpointSeconds(2048, enc, raw, core.Lossy), mdl.RecoverySeconds(2048, enc, raw, core.Lossy)
	_, tit, err := baseline("jacobi", grid, a, b)
	if err != nil {
		return nil, err
	}
	duration := base.BaselineSeconds

	out := &Fig9Result{}
	runs := []struct {
		label    string
		schedule []float64
	}{
		{"no failure/restart", nil},
		{"lossy checkpointing, 1 failure/restart", []float64{duration * 0.45}},
		{"lossy checkpointing, 2 failures/restarts", []float64{duration * 0.3, duration * 0.65}},
	}
	for _, rr := range runs {
		res, err := managedRun("jacobi", a, b, base.RTol, core.Lossy, base.LossyErrorBound,
			tit, func(float64) float64 { return c }, r, core.DriveConfig{
				Failures:        core.FailureTimes(rr.schedule, nil),
				IntervalSeconds: model.YoungInterval(3600, c),
				RecordResiduals: true,
				MaxIterations:   2000000,
			})
		if err != nil {
			return nil, err
		}
		if !res.Converged {
			return nil, fmt.Errorf("fig9: run %q did not converge", rr.label)
		}
		trace := Fig9Trace{
			Label:      rr.label,
			Residuals:  res.Residuals,
			Iterations: res.IterationsExecuted,
			FinalRes:   res.FinalResidual,
		}
		for _, e := range res.FailureEvents {
			trace.FailureAt = append(trace.FailureAt, e.Iteration)
		}
		out.Traces = append(out.Traces, trace)
	}
	return out, nil
}

// WriteText renders downsampled residual series.
func (r *Fig9Result) WriteText(w io.Writer) error {
	fmt.Fprintln(w, "Figure 9 — typical Jacobi executions with lossy checkpointing")
	for _, tr := range r.Traces {
		fmt.Fprintf(w, "%s: %d iterations, final residual %.3e, failures at iterations %v\n",
			tr.Label, tr.Iterations, tr.FinalRes, tr.FailureAt)
		step := len(tr.Residuals) / 12
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(tr.Residuals); i += step {
			fmt.Fprintf(w, "    it %6d  residual %.4e\n", i+1, tr.Residuals[i])
		}
	}
	fmt.Fprintln(w, "paper: after a lossy recovery the residual rejoins the failure-free curve with no extra iterations")
	return nil
}
