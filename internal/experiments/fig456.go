package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
)

func init() {
	register("fig4", "Figure 4: Jacobi checkpoint/recovery time vs processes", figCkptTimes("jacobi", "Figure 4"))
	register("fig5", "Figure 5: GMRES checkpoint/recovery time vs processes", figCkptTimes("gmres", "Figure 5"))
	register("fig6", "Figure 6: CG checkpoint/recovery time vs processes", figCkptTimes("cg", "Figure 6"))
}

// CkptTimesResult reproduces Figures 4–6: the average time of one
// checkpoint and one recovery for a method, per scheme, across the
// weak-scaling grid, using measured compression ratios and the
// calibrated cluster model.
type CkptTimesResult struct {
	Figure string
	Method string
	Procs  []int
	Ckpt   map[core.Scheme][]float64
	Rec    map[core.Scheme][]float64
	Ratios ratios
}

func figCkptTimes(method, figure string) Runner {
	return func(cfg Config) (Result, error) {
		measGrid := 16
		if cfg.Quick {
			measGrid = 8
		}
		base := cluster.PaperBaselines()[method]
		r, err := measureRatios(method, measGrid, base.LossyErrorBound)
		if err != nil {
			return nil, err
		}
		mdl := cluster.Bebop()
		out := &CkptTimesResult{
			Figure: figure,
			Method: method,
			Ckpt:   map[core.Scheme][]float64{},
			Rec:    map[core.Scheme][]float64{},
			Ratios: r,
		}
		for _, sc := range cluster.Table3ProblemSizes() {
			out.Procs = append(out.Procs, sc.Procs)
			elemsPerProc := float64(sc.N) * float64(sc.N) * float64(sc.N) / float64(sc.Procs)
			oneVec := elemsPerProc * 8 * float64(sc.Procs) // bytes, one global vector
			tradRaw := oneVec * float64(base.CkptVectors)
			// Traditional and lossless move the full dynamic state;
			// lossy moves only x.
			out.Ckpt[core.Traditional] = append(out.Ckpt[core.Traditional],
				mdl.CheckpointSeconds(sc.Procs, tradRaw, tradRaw, cluster.Uncompressed))
			out.Rec[core.Traditional] = append(out.Rec[core.Traditional],
				mdl.RecoverySeconds(sc.Procs, tradRaw, tradRaw, cluster.Uncompressed))
			out.Ckpt[core.Lossless] = append(out.Ckpt[core.Lossless],
				mdl.CheckpointSeconds(sc.Procs, tradRaw/r.Lossless, tradRaw, cluster.LosslessCompressed))
			out.Rec[core.Lossless] = append(out.Rec[core.Lossless],
				mdl.RecoverySeconds(sc.Procs, tradRaw/r.Lossless, tradRaw, cluster.LosslessCompressed))
			out.Ckpt[core.Lossy] = append(out.Ckpt[core.Lossy],
				mdl.CheckpointSeconds(sc.Procs, oneVec/r.Lossy, oneVec, cluster.LossyCompressed))
			out.Rec[core.Lossy] = append(out.Rec[core.Lossy],
				mdl.RecoverySeconds(sc.Procs, oneVec/r.Lossy, oneVec, cluster.LossyCompressed))
		}
		return out, nil
	}
}

// CkptAt returns the checkpoint seconds for a scheme at a process
// count (-1 if absent).
func (r *CkptTimesResult) CkptAt(s core.Scheme, procs int) float64 {
	for i, p := range r.Procs {
		if p == procs {
			return r.Ckpt[s][i]
		}
	}
	return -1
}

// WriteText renders both panels of the figure.
func (r *CkptTimesResult) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "%s — average time of one checkpoint and recovery, %s\n", r.Figure, r.Method)
	fmt.Fprintf(w, "(measured ratios: lossless %.2fx, lossy %.1fx)\n", r.Ratios.Lossless, r.Ratios.Lossy)
	fmt.Fprintf(w, "%6s | %10s %10s %10s | %10s %10s %10s\n", "procs",
		"ckpt-trad", "ckpt-less", "ckpt-lossy", "rec-trad", "rec-less", "rec-lossy")
	for i, p := range r.Procs {
		fmt.Fprintf(w, "%6d | %10.1f %10.1f %10.1f | %10.1f %10.1f %10.1f\n", p,
			r.Ckpt[core.Traditional][i], r.Ckpt[core.Lossless][i], r.Ckpt[core.Lossy][i],
			r.Rec[core.Traditional][i], r.Rec[core.Lossless][i], r.Rec[core.Lossy][i])
	}
	return nil
}
