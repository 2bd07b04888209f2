package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
)

func quickCfg() Config { return Config{Quick: true, Seed: 1} }

// runExperiment executes an experiment in quick mode and returns its
// result plus rendered text.
func runExperiment(t *testing.T, id string) (Result, string) {
	t.Helper()
	res, err := Run(id, quickCfg())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var buf bytes.Buffer
	if err := res.WriteText(&buf); err != nil {
		t.Fatalf("%s render: %v", id, err)
	}
	if buf.Len() == 0 {
		t.Fatalf("%s rendered nothing", id)
	}
	return res, buf.String()
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"adapt", "fig1", "fig10", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table3"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry has %v, want %v", got, want)
		}
	}
	for _, id := range want {
		if Title(id) == "" {
			t.Fatalf("missing title for %s", id)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nope", quickCfg()); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestFig1SurfaceAnchors(t *testing.T) {
	res, text := runExperiment(t, "fig1")
	r := res.(*Fig1Result)
	// Paper anchor: ≈40% overhead near λ=1/h, Tckp=120 s. Our grid has
	// λ=1.05: the value there must be 0.35–0.50.
	v := r.At(1.05, 120)
	if v < 0.3 || v > 0.55 {
		t.Fatalf("overhead at (1.05/h, 120 s) = %v, want ≈0.40", v)
	}
	// Monotone along both axes.
	if !(r.At(3.5, 140) > r.At(0.35, 140) && r.At(3.5, 140) > r.At(3.5, 20)) {
		t.Fatal("surface not monotone")
	}
	if !strings.Contains(text, "Figure 1") {
		t.Fatal("render missing title")
	}
}

func TestFig2CGExtraIterations(t *testing.T) {
	res, _ := runExperiment(t, "fig2")
	r := res.(*Fig2Result)
	if len(r.ExtraPercent) != 4 {
		t.Fatalf("want 4 bounds, got %d", len(r.ExtraPercent))
	}
	for i, p := range r.ExtraPercent {
		if p < 0 || p > 60 {
			t.Fatalf("extra iterations %v%% at bound %v outside sane band", p, r.Bounds[i])
		}
	}
}

func TestFig3Shape(t *testing.T) {
	res, _ := runExperiment(t, "fig3")
	r := res.(*Fig3Result)
	if r.MeasuredIters <= 0 {
		t.Fatal("no measured iterations")
	}
	// Execution time decreases with processes but flattens (the log
	// term): strictly decreasing across the grid.
	for i := 1; i < len(r.ModeledSeconds); i++ {
		if r.ModeledSeconds[i] >= r.ModeledSeconds[i-1] {
			t.Fatalf("time must fall with procs: %v", r.ModeledSeconds)
		}
	}
	// Paper anchor: >1 hour at 4,096 processes.
	last := r.ModeledSeconds[len(r.ModeledSeconds)-1]
	if last < 3600 || last > 3*3600 {
		t.Fatalf("time at 4096 procs = %.0f s, paper says just over an hour", last)
	}
}

func TestTable3Shape(t *testing.T) {
	res, _ := runExperiment(t, "table3")
	r := res.(*Table3Result)
	if len(r.Rows) != 8 {
		t.Fatalf("want 8 scales, got %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// CG checkpoints two vectors: traditional CG ≈ 2× Jacobi.
		if row.PerProcMB["cg"] < 1.9*row.PerProcMB["jacobi"] {
			t.Fatalf("CG traditional %v should be ≈2× Jacobi %v",
				row.PerProcMB["cg"], row.PerProcMB["jacobi"])
		}
		for _, m := range methodNames {
			if !(row.LossyMB[m] < row.LosslessMB[m] && row.LosslessMB[m] <= row.PerProcMB[m]*1.01) {
				t.Fatalf("%s at %d procs: lossy %v < lossless %v < trad %v violated",
					m, row.Procs, row.LossyMB[m], row.LosslessMB[m], row.PerProcMB[m])
			}
		}
		// Paper's traditional sizes are ≈38–40 MB (one vector).
		if row.PerProcMB["jacobi"] < 30 || row.PerProcMB["jacobi"] > 50 {
			t.Fatalf("Jacobi traditional %v MB/proc outside the paper's ≈38–40", row.PerProcMB["jacobi"])
		}
	}
	for _, m := range methodNames {
		if r.RatiosUsed[m][core.Lossy] < 5 {
			t.Fatalf("%s lossy ratio %v too low to reproduce the paper's regime", m, r.RatiosUsed[m][core.Lossy])
		}
	}
}

func TestFig456Shapes(t *testing.T) {
	for _, id := range []string{"fig4", "fig5", "fig6"} {
		res, _ := runExperiment(t, id)
		r := res.(*CkptTimesResult)
		for i := range r.Procs {
			ct, cl, cy := r.Ckpt[core.Traditional][i], r.Ckpt[core.Lossless][i], r.Ckpt[core.Lossy][i]
			if !(cy < cl && cl < ct) {
				t.Fatalf("%s at %d procs: ckpt ordering lossy %v < lossless %v < trad %v violated",
					id, r.Procs[i], cy, cl, ct)
			}
			if r.Rec[core.Traditional][i] <= ct {
				t.Fatalf("%s: recovery must exceed checkpoint (static vars)", id)
			}
		}
		// Times grow with scale.
		last := len(r.Procs) - 1
		if r.Ckpt[core.Traditional][last] <= r.Ckpt[core.Traditional][0] {
			t.Fatalf("%s: checkpoint time must grow with scale", id)
		}
	}
}

func TestFig5GMRESAnchor(t *testing.T) {
	res, _ := runExperiment(t, "fig5")
	r := res.(*CkptTimesResult)
	// §4.3: traditional ≈120 s and lossy ≈25 s at 2,048 processes.
	trad := r.CkptAt(core.Traditional, 2048)
	if trad < 90 || trad > 150 {
		t.Fatalf("traditional GMRES ckpt at 2048 = %.1f s, paper ≈120", trad)
	}
	lossy := r.CkptAt(core.Lossy, 2048)
	if lossy < 10 || lossy > 45 {
		t.Fatalf("lossy GMRES ckpt at 2048 = %.1f s, paper ≈25", lossy)
	}
}

func TestFig7Shape(t *testing.T) {
	res, _ := runExperiment(t, "fig7")
	r := res.(*Fig7Result)
	if len(r.Curves) != 9 {
		t.Fatalf("want 9 curves, got %d", len(r.Curves))
	}
	for _, m := range methodNames {
		lossy := r.Curve(m, core.Lossy)
		trad := r.Curve(m, core.Traditional)
		for mi := range r.MTTIs {
			// At the largest scale the lossy curve must be below
			// traditional for every method (Fig. 7 crossover happens
			// at or before 1536 procs even for CG).
			last := len(r.Procs) - 1
			if lossy.Overhead[mi][last] >= trad.Overhead[mi][last] {
				t.Fatalf("%s MTTI[%d]: lossy %v ≥ traditional %v at largest scale",
					m, mi, lossy.Overhead[mi][last], trad.Overhead[mi][last])
			}
		}
	}
	// Jacobi and GMRES lossy beat both other schemes everywhere.
	for _, m := range []string{"jacobi", "gmres"} {
		lossy := r.Curve(m, core.Lossy)
		lossless := r.Curve(m, core.Lossless)
		for i := range r.Procs {
			if lossy.Overhead[0][i] >= lossless.Overhead[0][i] {
				t.Fatalf("%s: lossy must beat lossless at %d procs", m, r.Procs[i])
			}
		}
	}
	// Overhead at 3 h MTTI is lower than at 1 h.
	c := r.Curve("gmres", core.Traditional)
	for i := range r.Procs {
		if c.Overhead[1][i] >= c.Overhead[0][i] {
			t.Fatal("3 h MTTI must give lower overhead than 1 h")
		}
	}
}

func TestFig8Shape(t *testing.T) {
	res, _ := runExperiment(t, "fig8")
	r := res.(*Fig8Result)
	if len(r.Cells) != 12 {
		t.Fatalf("want 3 methods × 4 scales = 12 cells, got %d", len(r.Cells))
	}
	for _, c := range r.Cells {
		if c.FailureFree <= 0 || c.Lossy <= 0 {
			t.Fatalf("%+v: empty counts", c)
		}
		delta := float64(c.Lossy-c.FailureFree) / float64(c.FailureFree)
		switch c.Method {
		case "jacobi":
			if delta < -0.02 || delta > 0.10 {
				t.Fatalf("jacobi delta %v outside ≈0 band: %+v", delta, c)
			}
		case "gmres":
			if delta < -0.30 || delta > 0.15 {
				t.Fatalf("gmres delta %v outside ≤0-ish band: %+v", delta, c)
			}
		case "cg":
			if delta < -0.05 || delta > 0.8 {
				t.Fatalf("cg delta %v outside expected band: %+v", delta, c)
			}
		}
	}
}

func TestFig9Traces(t *testing.T) {
	res, _ := runExperiment(t, "fig9")
	r := res.(*Fig9Result)
	if len(r.Traces) != 3 {
		t.Fatalf("want 3 traces, got %d", len(r.Traces))
	}
	wantFailures := []int{0, 1, 2}
	for i, tr := range r.Traces {
		if len(tr.FailureAt) != wantFailures[i] {
			t.Fatalf("trace %d has %d failures, want %d", i, len(tr.FailureAt), wantFailures[i])
		}
		if len(tr.Residuals) == 0 {
			t.Fatalf("trace %d empty", i)
		}
	}
	// All executions converge to the same residual level (§4.4.4
	// tolerance-based reproducibility): final residuals within 2×.
	ref := r.Traces[0].FinalRes
	for _, tr := range r.Traces[1:] {
		if tr.FinalRes > 2*ref || ref > 2*tr.FinalRes {
			t.Fatalf("final residuals diverge: %v vs %v", ref, tr.FinalRes)
		}
	}
}

func TestFig10HeadlineReductions(t *testing.T) {
	res, text := runExperiment(t, "fig10")
	r := res.(*Fig10Result)
	if len(r.Cells) != 9 {
		t.Fatalf("want 9 cells, got %d", len(r.Cells))
	}
	for _, m := range methodNames {
		redTrad := r.Reduction(m, core.Traditional)
		redLossless := r.Reduction(m, core.Lossless)
		// The paper's headline: lossy cuts FT overhead by 23–70% vs
		// traditional and 20–58% vs lossless. Quick mode with 3 trials
		// is noisy; require the sign and a generous band.
		if redTrad < 5 || redTrad > 95 {
			t.Fatalf("%s: reduction vs traditional %.0f%% outside (5,95)", m, redTrad)
		}
		if redLossless < 0 || redLossless > 95 {
			t.Fatalf("%s: reduction vs lossless %.0f%% outside (0,95)", m, redLossless)
		}
	}
	if !strings.Contains(text, "Figure 10") {
		t.Fatal("render missing title")
	}
}

func TestAdaptSweep(t *testing.T) {
	res, text := runExperiment(t, "adapt")
	r := res.(*AdaptResult)
	if len(r.Scenarios) != 3 {
		t.Fatalf("want 3 scenarios, got %d", len(r.Scenarios))
	}
	steady := r.Scenario("steady")
	if steady == nil {
		t.Fatal("steady scenario missing")
	}
	// Quick mode runs 3 seeds on a smaller grid; allow a wider band
	// than core's strict 5% acceptance test (12 seeds).
	if steady.AdaptiveSecs > 1.10*steady.BestSeconds {
		t.Fatalf("steady: adaptive %.1f s far off best fixed %.1f s", steady.AdaptiveSecs, steady.BestSeconds)
	}
	drift := r.Scenario("ratio-drift")
	if drift == nil {
		t.Fatal("ratio-drift scenario missing")
	}
	if drift.AdaptiveSecs >= drift.ProbeSeconds {
		t.Fatalf("drift: adaptive %.1f s does not beat the stale probe interval %.1f s",
			drift.AdaptiveSecs, drift.ProbeSeconds)
	}
	lossy := r.Scenario("lossy-steady")
	if lossy == nil {
		t.Fatal("lossy-steady scenario missing — the sweep must run the lossy scheme, not only lossless")
	}
	if lossy.Scheme != "lossy" {
		t.Fatalf("lossy-steady scheme = %q, want lossy", lossy.Scheme)
	}
	// The convergence-delay term exists precisely because lossy restores
	// are inexact: failures must cost at least the rolled-back work, so
	// the adaptive runs cannot beat the failure-free baseline.
	if lossy.BaselineIters <= 0 {
		t.Fatalf("lossy-steady baseline iterations = %.0f, want > 0", lossy.BaselineIters)
	}
	if lossy.ConvergenceDelay < 0 {
		t.Fatalf("lossy-steady convergence delay %.0f is negative (adaptive mean %.0f vs baseline %.0f)",
			lossy.ConvergenceDelay, lossy.AdaptiveIters, lossy.BaselineIters)
	}
	if lossy.AdaptiveSecs > 1.25*lossy.BestSeconds {
		t.Fatalf("lossy-steady: adaptive %.1f s far off best fixed %.1f s", lossy.AdaptiveSecs, lossy.BestSeconds)
	}
	if !strings.Contains(text, "Adaptive checkpoint interval") {
		t.Fatal("render missing title")
	}
	if !strings.Contains(text, "convergence delay") {
		t.Fatal("render missing the convergence-delay row")
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

// Curve returns the series for a method × scheme (nil if absent).
func (r *Fig7Result) Curve(method string, scheme core.Scheme) *Fig7Curve {
	for i := range r.Curves {
		if r.Curves[i].Method == method && r.Curves[i].Scheme == scheme {
			return &r.Curves[i]
		}
	}
	return nil
}
