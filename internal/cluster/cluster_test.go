package cluster

import (
	"math"
	"testing"

	"repro/internal/core"
)

func TestBebopCheckpointAnchor(t *testing.T) {
	// §3: checkpointing one 78.8 GB vector from 2,048 processes takes
	// about 120 seconds.
	m := Bebop()
	got := m.CheckpointSeconds(2048, 78.8e9, 78.8e9, core.Traditional)
	if got < 100 || got > 140 {
		t.Fatalf("traditional 78.8 GB @2048 = %.1f s, paper says ≈120", got)
	}
}

func TestBebopLossyCheckpointAnchor(t *testing.T) {
	// §4.3: lossy compression reduces GMRES checkpoint time from
	// ≈120 s to ≈25 s (≈80 GB at ratio ≈34, Table 3).
	m := Bebop()
	got := m.CheckpointSeconds(2048, 78.8e9/34, 78.8e9, core.Lossy)
	if got < 18 || got > 32 {
		t.Fatalf("lossy 78.8 GB @2048 = %.1f s, paper says ≈25", got)
	}
}

func TestCompressionTimeAnchor(t *testing.T) {
	// §5.3: compressing/decompressing 78.8 GB across 2,048 cores takes
	// ≈0.5 s and ≈0.2 s — the compute stage must stay negligible.
	m := Bebop()
	comp := 78.8e9 / (m.CompressPerCore * 2048)
	dec := 78.8e9 / (m.DecompressPerCore * 2048)
	if comp < 0.3 || comp > 0.8 {
		t.Fatalf("compression time %.2f s, paper says ≈0.5", comp)
	}
	if dec < 0.1 || dec > 0.4 {
		t.Fatalf("decompression time %.2f s, paper says ≈0.2", dec)
	}
}

func TestCheckpointTimeGrowsWithScale(t *testing.T) {
	// Weak scaling: per-process size fixed, total bytes ∝ procs, so
	// checkpoint time grows ≈linearly (Figs. 4–6).
	m := Bebop()
	perProc := 39.4e6
	prev := 0.0
	for _, p := range []int{256, 512, 1024, 2048} {
		got := m.CheckpointSeconds(p, float64(p)*perProc, float64(p)*perProc, core.Traditional)
		if got <= prev {
			t.Fatalf("checkpoint time must grow with scale: %v after %v", got, prev)
		}
		prev = got
	}
}

func TestRecoveryExceedsCheckpoint(t *testing.T) {
	// §5.4: recovery time exceeds checkpoint time because static
	// variables are reconstructed.
	m := Bebop()
	for _, scheme := range []core.Scheme{core.Traditional, core.Lossless, core.Lossy} {
		ck := m.CheckpointSeconds(1024, 40e9, 40e9, scheme)
		rc := m.RecoverySeconds(1024, 40e9, 40e9, scheme)
		if rc <= ck {
			t.Fatalf("scheme %v: recovery %.1f ≤ checkpoint %.1f", scheme, rc, ck)
		}
	}
}

func TestLossySchemeFasterThanTraditional(t *testing.T) {
	m := Bebop()
	raw := 2048 * 39.4e6
	trad := m.CheckpointSeconds(2048, raw, raw, core.Traditional)
	lossless := m.CheckpointSeconds(2048, raw/5, raw, core.Lossless)
	lossy := m.CheckpointSeconds(2048, raw/34, raw, core.Lossy)
	if !(lossy < lossless && lossless < trad) {
		t.Fatalf("ordering violated: lossy %.1f, lossless %.1f, trad %.1f", lossy, lossless, trad)
	}
}

func TestPaperBaselines(t *testing.T) {
	bases := PaperBaselines()
	g := bases["gmres"]
	// §4.3: GMRES Tit ≈ 1.2 s.
	if tit := g.TitSeconds(); math.Abs(tit-1.2) > 0.05 {
		t.Fatalf("GMRES Tit = %.3f, paper says ≈1.2", tit)
	}
	if bases["cg"].CkptVectors != 2 {
		t.Fatal("traditional CG checkpoints two vectors (x and p)")
	}
	if bases["jacobi"].CkptVectors != 1 {
		t.Fatal("Jacobi checkpoints one vector")
	}
	for name, b := range bases {
		if b.TitSeconds() <= 0 || b.PerProcMB <= 0 {
			t.Fatalf("%s: incomplete baseline %+v", name, b)
		}
	}
}

// TestSaveBytesRule: a Jacobi traditional save at 2,048 ranks moves the
// paper's 39.4 MB per rank raw and costs fig10's 122.98 s; traditional
// and lossless move every vector the method checkpoints, lossy x alone,
// and both compressed schemes divide by the save's measured ratio.
func TestSaveBytesRule(t *testing.T) {
	m, bases := Bebop(), PaperBaselines()
	jacobi := bases["jacobi"]
	enc, raw := jacobi.SaveBytes(core.Traditional, jacobi.VectorBytes(2048), 0.9999)
	if c := m.CheckpointSeconds(2048, enc, raw, core.Traditional); math.Abs(c-122.98) > 0.005 {
		t.Fatalf("Jacobi traditional save at 2,048 ranks: %.4f s, want 122.98", c)
	}
	cg := bases["cg"]
	oneVec := cg.VectorBytes(2048)
	if oneVec != jacobi.VectorBytes(2048) {
		t.Fatalf("one CG vector %g B, one Jacobi vector %g B: Table 3 gives both the same grid", oneVec, jacobi.VectorBytes(2048))
	}
	for _, c := range []struct {
		scheme   core.Scheme
		enc, raw float64
	}{
		{core.Traditional, 2 * oneVec, 2 * oneVec},
		{core.Lossless, 2 * oneVec / 4, 2 * oneVec},
		{core.Lossy, oneVec / 4, oneVec},
	} {
		if enc, raw := cg.SaveBytes(c.scheme, oneVec, 4); !approxEq(enc, c.enc) || !approxEq(raw, c.raw) {
			t.Errorf("CG %v at ratio 4: moves %g B encoded of %g B raw, want %g of %g", c.scheme, enc, raw, c.enc, c.raw)
		}
	}
}

func TestTable3Sizes(t *testing.T) {
	sizes := Table3ProblemSizes()
	if len(sizes) != 8 {
		t.Fatalf("Table 3 has 8 scales, got %d", len(sizes))
	}
	if sizes[0].Procs != 256 || sizes[0].N != 1088 {
		t.Fatalf("first row %+v", sizes[0])
	}
	if sizes[7].Procs != 2048 || sizes[7].N != 2160 {
		t.Fatalf("last row %+v", sizes[7])
	}
	// Weak scaling: elements per process ≈ constant (±15%).
	ref := float64(sizes[0].N) * float64(sizes[0].N) * float64(sizes[0].N) / float64(sizes[0].Procs)
	for _, s := range sizes {
		per := float64(s.N) * float64(s.N) * float64(s.N) / float64(s.Procs)
		if per < 0.85*ref || per > 1.15*ref {
			t.Fatalf("weak scaling broken at %d procs: %.3g vs %.3g elems/proc", s.Procs, per, ref)
		}
	}
}

// TestStageHelpersSumToFusedCosts: the per-phase helpers
// (cmd/solve's modeled cost table) must decompose the fused checkpoint
// cost exactly, for every scheme — a calibration change cannot skew
// the breakdown against the totals.
func TestStageHelpersSumToFusedCosts(t *testing.T) {
	m := Bebop()
	const procs, encoded, raw = 2048, 3.2e9, 78.8e9
	for _, sch := range []core.Scheme{core.Traditional, core.Lossless, core.Lossy} {
		sum := m.CompressSeconds(procs, raw, sch) + m.WriteStageSeconds(procs, encoded)
		if got := m.CheckpointSeconds(procs, encoded, raw, sch); !approxEq(sum, got) {
			t.Errorf("scheme %v: stages sum to %g, CheckpointSeconds %g", sch, sum, got)
		}
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-12*(1+b)
}
