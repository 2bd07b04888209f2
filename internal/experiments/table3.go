package experiments

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
)

func init() {
	register("table3", "Table 3: problem sizes and checkpoint sizes per process", runTable3)
}

// Table3Row is one scale row of the paper's Table 3.
type Table3Row struct {
	Procs      int
	N          int                // problem dimension (N³ unknowns)
	PerProcMB  map[string]float64 // method -> traditional MB
	LosslessMB map[string]float64
	LossyMB    map[string]float64
}

// Table3Result reproduces the checkpoint-size table. Traditional sizes
// follow from the element counts (CG checkpoints two vectors);
// compressed sizes apply ratios measured on real solver states at
// laptop scale.
type Table3Result struct {
	Rows       []Table3Row
	RatiosUsed map[string]ratios
}

func runTable3(cfg Config) (Result, error) {
	measGrid := 16
	if cfg.Quick {
		measGrid = 8
	}
	ratiosUsed := map[string]ratios{}
	for _, method := range methodNames {
		eb := cluster.PaperBaselines()[method].LossyErrorBound
		r, err := measureRatios(method, measGrid, eb)
		if err != nil {
			return nil, fmt.Errorf("table3: %s: %w", method, err)
		}
		ratiosUsed[method] = r
	}

	out := &Table3Result{RatiosUsed: ratiosUsed}
	for _, sc := range cluster.Table3ProblemSizes() {
		row := Table3Row{
			Procs:      sc.Procs,
			N:          sc.N,
			PerProcMB:  map[string]float64{},
			LosslessMB: map[string]float64{},
			LossyMB:    map[string]float64{},
		}
		elemsPerProc := float64(sc.N) * float64(sc.N) * float64(sc.N) / float64(sc.Procs)
		oneVecMB := elemsPerProc * 8 / 1e6
		for _, method := range methodNames {
			base, r := cluster.PaperBaselines()[method], ratiosUsed[method]
			row.PerProcMB[method], _ = base.SaveBytes(core.Traditional, oneVecMB, r[core.Traditional])
			row.LosslessMB[method], _ = base.SaveBytes(core.Lossless, oneVecMB, r[core.Lossless])
			row.LossyMB[method], _ = base.SaveBytes(core.Lossy, oneVecMB, r[core.Lossy])
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// WriteText renders the table in the paper's layout.
func (r *Table3Result) WriteText(w io.Writer) error {
	fmt.Fprintln(w, "Table 3 — problem sizes and checkpoint sizes per process (MB)")
	fmt.Fprintf(w, "%6s %8s | %8s %8s %8s | %8s %8s %8s | %8s %8s %8s\n",
		"procs", "size", "trad-J", "trad-G", "trad-CG",
		"less-J", "less-G", "less-CG", "lossy-J", "lossy-G", "lossy-CG")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%6d %5d^3 | %8.1f %8.1f %8.1f | %8.2f %8.2f %8.2f | %8.2f %8.2f %8.2f\n",
			row.Procs, row.N,
			row.PerProcMB["jacobi"], row.PerProcMB["gmres"], row.PerProcMB["cg"],
			row.LosslessMB["jacobi"], row.LosslessMB["gmres"], row.LosslessMB["cg"],
			row.LossyMB["jacobi"], row.LossyMB["gmres"], row.LossyMB["cg"])
	}
	fmt.Fprintln(w, "measured compression ratios on real solver state:")
	for _, m := range methodNames {
		rr := r.RatiosUsed[m]
		fmt.Fprintf(w, "  %-6s lossless %5.2fx   lossy %6.1fx\n", m, rr[core.Lossless], rr[core.Lossy])
	}
	fmt.Fprintln(w, "paper: traditional ≈38–40 MB (J, G) / ≈77–80 MB (CG);")
	fmt.Fprintln(w, "       lossless ratio ≈6.4 (J) and ≈1.2 (G, CG); lossy ≈1.1–1.7 MB per process")
	return nil
}
