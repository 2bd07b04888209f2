package cluster

import (
	"math"
	"testing"
)

func TestBebopCheckpointAnchor(t *testing.T) {
	// §3: checkpointing one 78.8 GB vector from 2,048 processes takes
	// about 120 seconds.
	m := Bebop()
	got := m.CheckpointSeconds(2048, 78.8e9, 78.8e9, Uncompressed)
	if got < 100 || got > 140 {
		t.Fatalf("traditional 78.8 GB @2048 = %.1f s, paper says ≈120", got)
	}
}

func TestBebopLossyCheckpointAnchor(t *testing.T) {
	// §4.3: lossy compression reduces GMRES checkpoint time from
	// ≈120 s to ≈25 s (≈80 GB at ratio ≈34, Table 3).
	m := Bebop()
	got := m.CheckpointSeconds(2048, 78.8e9/34, 78.8e9, LossyCompressed)
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
		got := m.CheckpointSeconds(p, float64(p)*perProc, float64(p)*perProc, Uncompressed)
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
	for _, scheme := range []Scheme{Uncompressed, LosslessCompressed, LossyCompressed} {
		ck := m.CheckpointSeconds(1024, 40e9, 40e9, scheme)
		rc := m.RecoverySeconds(1024, 40e9, 40e9, scheme)
		if rc <= ck {
			t.Fatalf("scheme %d: recovery %.1f ≤ checkpoint %.1f", scheme, rc, ck)
		}
	}
}

func TestLossySchemeFasterThanTraditional(t *testing.T) {
	m := Bebop()
	raw := 2048 * 39.4e6
	trad := m.CheckpointSeconds(2048, raw, raw, Uncompressed)
	lossless := m.CheckpointSeconds(2048, raw/5, raw, LosslessCompressed)
	lossy := m.CheckpointSeconds(2048, raw/34, raw, LossyCompressed)
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

func TestStripedWriteBandwidth(t *testing.T) {
	m := Bebop()
	// Striping splits the calibrated aggregate exactly.
	if got := m.StripedWriteBandwidth(m.Stripes) - m.PFSBandwidth; got > 1e-6 || got < -1e-6 {
		t.Fatalf("full-stripe bandwidth %.3g != aggregate %.3g", m.StripedWriteBandwidth(m.Stripes), m.PFSBandwidth)
	}
	one := m.StripedWriteBandwidth(1)
	if one != m.StripeBandwidth {
		t.Fatalf("monolithic write should get one stripe: %.3g vs %.3g", one, m.StripeBandwidth)
	}
	// min(shards, stripes): bandwidth grows linearly then saturates.
	if m.StripedWriteBandwidth(8) != 8*m.StripeBandwidth {
		t.Fatal("8 shards should engage 8 stripes")
	}
	if m.StripedWriteBandwidth(10*m.Stripes) != m.PFSBandwidth {
		t.Fatal("over-sharding must saturate at the aggregate")
	}
	if m.StripedWriteBandwidth(0) != one || m.StripedWriteBandwidth(-3) != one {
		t.Fatal("shards < 1 must be treated as monolithic")
	}
	// A model without striping parameters keeps the aggregate (legacy
	// Model literals).
	legacy := &Model{PFSBandwidth: 1e9}
	if legacy.StripedWriteBandwidth(4) != 1e9 {
		t.Fatal("legacy model must fall back to the aggregate bandwidth")
	}
}

func TestShardedCheckpointSeconds(t *testing.T) {
	m := Bebop()
	const procs = 2048
	enc, raw := 1.0e9, 8.0e9
	mono := m.ShardedCheckpointSeconds(procs, enc, raw, LossyCompressed, 1)
	s8 := m.ShardedCheckpointSeconds(procs, enc, raw, LossyCompressed, 8)
	full := m.ShardedCheckpointSeconds(procs, enc, raw, LossyCompressed, m.Stripes)
	if !(s8 < mono) || !(full < s8) {
		t.Fatalf("sharding must speed up the write: mono=%.2f s8=%.2f full=%.2f", mono, s8, full)
	}
	// At full striping the transfer term matches the collective model;
	// only the per-shard metadata differs.
	collective := m.CheckpointSeconds(procs, enc, raw, LossyCompressed)
	extra := full - collective
	want := m.PerShardSeconds * float64(m.Stripes+1)
	if diff := extra - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("full-stripe sharded cost differs from collective by %.6f, want metadata %.6f", extra, want)
	}
	// Over-sharding: bandwidth saturated, metadata keeps growing.
	over := m.ShardedCheckpointSeconds(procs, enc, raw, LossyCompressed, 4*m.Stripes)
	if !(over > full) {
		t.Fatal("over-sharding must cost more than full striping")
	}
}

func TestStripedReadBandwidth(t *testing.T) {
	m := Bebop()
	// A monolithic read is one striped file scanned at the aggregate.
	if m.StripedReadBandwidth(1) != m.PFSBandwidth {
		t.Fatalf("single-object read %.3g, want the aggregate %.3g", m.StripedReadBandwidth(1), m.PFSBandwidth)
	}
	// The fan-out can always fall back to the monolithic scan, so the
	// effective bandwidth never drops below the aggregate...
	for s := 1; s <= 4*m.Stripes; s++ {
		if m.StripedReadBandwidth(s) < m.PFSBandwidth {
			t.Fatalf("%d shards read below the aggregate", s)
		}
		if s > 1 && m.StripedReadBandwidth(s) < m.StripedReadBandwidth(s-1) {
			t.Fatalf("read bandwidth must be non-decreasing at %d shards", s)
		}
	}
	// ...and saturates at the read-side aggregate at full striping.
	full := m.ReadStripeBandwidth * float64(m.Stripes)
	if got := m.StripedReadBandwidth(m.Stripes); got != full {
		t.Fatalf("full-stripe read %.3g, want %.3g", got, full)
	}
	if m.StripedReadBandwidth(10*m.Stripes) != full {
		t.Fatal("over-sharding must saturate at the read aggregate")
	}
	// Bebop's read path outpaces its write path.
	if full <= m.PFSBandwidth {
		t.Fatal("full-stripe read aggregate should exceed the write aggregate")
	}
	// A model without striping/read parameters keeps the aggregate.
	legacy := &Model{PFSBandwidth: 1e9}
	if legacy.StripedReadBandwidth(8) != 1e9 {
		t.Fatal("legacy model must fall back to the aggregate bandwidth")
	}
}

func TestShardedRecoverySeconds(t *testing.T) {
	m := Bebop()
	const procs = 2048
	enc, raw := 2.0e9, 8.0e9
	schemes := []Scheme{Uncompressed, LosslessCompressed, LossyCompressed}
	// shards ≤ 1 prices exactly like the serial monolithic restore.
	for _, sch := range schemes {
		want := m.RecoverySeconds(procs, enc, raw, sch)
		for _, s := range []int{-1, 0, 1} {
			if got := m.ShardedRecoverySeconds(procs, enc, raw, sch, s); got != want {
				t.Fatalf("scheme %d shards=%d: %.6f != RecoverySeconds %.6f", sch, s, got, want)
			}
		}
	}
	// Monotonically non-increasing in shard count up to (and past) the
	// stripe saturation point, for every scheme.
	for _, sch := range schemes {
		prev := m.ShardedRecoverySeconds(procs, enc, raw, sch, 1)
		for s := 2; s <= 2*m.Stripes; s++ {
			got := m.ShardedRecoverySeconds(procs, enc, raw, sch, s)
			if got > prev+1e-12 {
				t.Fatalf("scheme %d: recovery cost increased at %d shards (%.6f after %.6f)", sch, s, got, prev)
			}
			prev = got
		}
	}
	// The streaming pipeline overlaps read with decompression, so a
	// sharded lossy restore strictly beats the serial one...
	mono := m.ShardedRecoverySeconds(procs, enc, raw, LossyCompressed, 1)
	s8 := m.ShardedRecoverySeconds(procs, enc, raw, LossyCompressed, 8)
	full := m.ShardedRecoverySeconds(procs, enc, raw, LossyCompressed, m.Stripes)
	if !(s8 < mono) {
		t.Fatalf("sharding must speed up recovery: mono=%.2f s8=%.2f", mono, s8)
	}
	// ...and past saturation nothing changes (no per-object penalty on
	// the read side).
	if over := m.ShardedRecoverySeconds(procs, enc, raw, LossyCompressed, 4*m.Stripes); over != full {
		t.Fatalf("over-sharded recovery %.4f != saturated %.4f", over, full)
	}
	// The transfer term is max(read, decompress) + fixed per-rank
	// costs: verify against the explicit formula at full striping.
	read := enc / m.StripedReadBandwidth(m.Stripes)
	dec := raw / (m.DecompressPerCore * procs)
	wantFull := m.PerRankSeconds*procs + math.Max(read, dec) + m.StaticPerRankSeconds*procs
	if d := full - wantFull; d > 1e-9 || d < -1e-9 {
		t.Fatalf("full-stripe recovery %.6f, want %.6f", full, wantFull)
	}
}

// TestStageHelpersSumToFusedCosts: the per-phase helpers
// (cmd/solve's modeled cost table) must decompose the fused checkpoint
// costs exactly, for every scheme, shard count, and write model — a
// calibration change cannot skew the breakdown against the totals.
func TestStageHelpersSumToFusedCosts(t *testing.T) {
	m := Bebop()
	const procs, encoded, raw = 2048, 3.2e9, 78.8e9
	for _, sch := range []Scheme{Uncompressed, LosslessCompressed, LossyCompressed} {
		sum := m.compressSeconds(procs, raw, sch) + m.WriteStageSeconds(procs, encoded, 1, false)
		if got := m.CheckpointSeconds(procs, encoded, raw, sch); !approxEq(sum, got) {
			t.Errorf("scheme %v: stages sum to %g, CheckpointSeconds %g", sch, sum, got)
		}
		for _, shards := range []int{1, 8, 48, 96} {
			sum := m.compressSeconds(procs, raw, sch) + m.WriteStageSeconds(procs, encoded, shards, true)
			if got := m.ShardedCheckpointSeconds(procs, encoded, raw, sch, shards); !approxEq(sum, got) {
				t.Errorf("scheme %v shards %d: stages sum to %g, ShardedCheckpointSeconds %g", sch, shards, sum, got)
			}
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

func TestABFTRecoverySeconds(t *testing.T) {
	m := Bebop()
	// One 2,048-rank block of the CG checkpoint state (78.8 GB / 2048)
	// re-gathered over Omni-Path plus 30 local iterations at 0.5 s.
	block := 78.8e9 / 2048
	got := m.ABFTRecoverySeconds(block, 30, 0.5)
	want := m.PerRankSeconds + block/m.InterconnectBandwidth + 30*0.5
	if !approxEq(got, want) {
		t.Fatalf("ABFTRecoverySeconds = %g, want %g", got, want)
	}
	// The tier's raison d'être: no PFS term — it must be far below even
	// the cheapest modeled restart of the same state.
	restart := m.RecoverySeconds(2048, 78.8e9, 78.8e9, Uncompressed)
	if got >= restart {
		t.Fatalf("ABFT recovery %g s not below the PFS restart %g s", got, restart)
	}
	// Negative local iterations clamp to zero.
	if m.ABFTRecoverySeconds(block, -5, 0.5) != m.ABFTRecoverySeconds(block, 0, 0.5) {
		t.Fatal("negative local iterations must clamp to zero")
	}
	// Legacy literals without the interconnect field stay finite via
	// the node-local memory fallback.
	legacy := &Model{PerRankSeconds: 0.01, MemCopyPerCore: 4e9}
	if v := legacy.ABFTRecoverySeconds(block, 0, 0); math.IsInf(v, 0) || math.IsNaN(v) {
		t.Fatalf("legacy model ABFT cost not finite: %g", v)
	}
}

func TestCodecRates(t *testing.T) {
	m := Bebop()
	raw := 78.8e9
	// The schemes' default codecs are pinned to the scheme-level
	// calibration, so codec-aware and scheme-level pricing agree for
	// the paper's configurations.
	if got, want := m.CodecCompressSeconds(2048, raw, "sz", LossyCompressed), m.compressSeconds(2048, raw, LossyCompressed); !approxEq(got, want) {
		t.Fatalf("sz codec pricing %g != scheme pricing %g", got, want)
	}
	if got, want := m.CodecCompressSeconds(2048, raw, "gzip(deflate)", LosslessCompressed), m.compressSeconds(2048, raw, LosslessCompressed); !approxEq(got, want) {
		t.Fatalf("gzip codec pricing %g != scheme pricing %g", got, want)
	}
	// The fti Lossless encoder's composite name resolves to the codec.
	if got, want := m.CodecCompressSeconds(2048, raw, "lossless/gzip(deflate)", LosslessCompressed), raw/(m.CodecRates["gzip(deflate)"].CompressPerCore*2048); !approxEq(got, want) {
		t.Fatalf("lossless/gzip(deflate) priced %g, want the gzip rate %g", got, want)
	}
	// zfp's dedicated rate outruns the sz calibration.
	if c, s := m.CodecCompressSeconds(2048, raw, "zfp", LossyCompressed), m.compressSeconds(2048, raw, LossyCompressed); c >= s {
		t.Fatalf("zfp compress %g not below sz-calibrated %g", c, s)
	}
	// Unknown codecs and legacy literals fall back to the scheme rate.
	if got, want := m.CodecCompressSeconds(2048, raw, "mystery", LossyCompressed), m.compressSeconds(2048, raw, LossyCompressed); !approxEq(got, want) {
		t.Fatalf("unknown codec priced %g, want scheme fallback %g", got, want)
	}
	legacy := &Model{CompressPerCore: 77e6, LosslessPerCore: 100e6, DecompressPerCore: 192e6}
	if got, want := legacy.CodecCompressSeconds(2048, raw, "zfp", LossyCompressed), raw/(77e6*2048); !approxEq(got, want) {
		t.Fatalf("legacy literal priced %g, want %g", got, want)
	}
	// Uncompressed transfers cost nothing to encode regardless of name.
	if got := m.CodecCompressSeconds(2048, raw, "sz", Uncompressed); got != 0 {
		t.Fatalf("uncompressed encode cost %g, want 0", got)
	}
}
