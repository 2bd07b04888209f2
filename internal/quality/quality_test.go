package quality

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/fti"
	"repro/internal/obs"
	"repro/internal/sz"
)

func metricValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	snap := reg.Snapshot()
	for i := range snap.Metrics {
		if snap.Metrics[i].Name == name && len(snap.Metrics[i].Labels) == 0 {
			return snap.Metrics[i].Value
		}
	}
	return 0
}

func rampState(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 + math.Sin(float64(i)/40)*0.5 + float64(i%17)*1e-3
	}
	return x
}

func TestSampleSaveDeterministic(t *testing.T) {
	a := New(Config{SampleEvery: 4})
	want := map[int]bool{1: true, 2: false, 3: false, 4: false, 5: true, 9: true}
	for seq, w := range want {
		if got := a.SampleSave(seq, seq*10); got != w {
			t.Errorf("SampleSave(seq=%d) = %v, want %v", seq, got, w)
		}
	}
	every := New(Config{SampleEvery: 1})
	exh := New(Config{SampleEvery: 7, Exhaustive: true})
	for seq := 1; seq <= 10; seq++ {
		if !every.SampleSave(seq, 0) {
			t.Errorf("SampleEvery=1 skipped seq %d", seq)
		}
		if !exh.SampleSave(seq, 0) {
			t.Errorf("Exhaustive skipped seq %d", seq)
		}
	}
}

func TestEncodePathAuditRecordsBoundedDistortion(t *testing.T) {
	const bound = 1e-3
	x := rampState(4096)
	enc := fti.SZ{Params: sz.Params{Mode: sz.PWRel, ErrorBound: bound}}
	blob, st, err := encodeStats(enc, x)
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{SampleEvery: 1})
	a.ObserveResidual(9, 0.25)
	a.ObserveResidual(10, 0.125)
	a.ObserveVector(1, 10, "x", x, blob, enc, &st)

	recs := a.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Seq != 1 || rec.Iteration != 10 || rec.Vector != "x" {
		t.Fatalf("record identity wrong: %+v", rec)
	}
	if rec.Audit != "encode-path" {
		t.Fatalf("audit mode %q, want encode-path", rec.Audit)
	}
	if !rec.Lossy || !rec.Relative {
		t.Fatalf("PWRel record should be lossy+relative: %+v", rec)
	}
	if rec.MaxError <= 0 || rec.MaxError > bound {
		t.Fatalf("observed max error %g outside (0, %g]", rec.MaxError, bound)
	}
	if rec.Violated || rec.BoundRatio > 1 {
		t.Fatalf("bound was honored but record says violated (ratio %g)", rec.BoundRatio)
	}
	if rec.CompressionRatio <= 1 {
		t.Fatalf("compression ratio %g, want > 1", rec.CompressionRatio)
	}
	if rec.ResidualAtSave != 0.125 {
		t.Fatalf("residual at save %g, want the iteration-10 observation 0.125", rec.ResidualAtSave)
	}
	if rec.PSNR <= 0 {
		t.Fatalf("lossy reconstruction should report finite positive PSNR, got %g", rec.PSNR)
	}
	d := a.DistortionFor(1)
	if d == nil || d.MaxError != rec.MaxError || d.Vectors != 1 {
		t.Fatalf("distortion aggregate wrong: %+v", d)
	}
	if a.DistortionFor(2) != nil {
		t.Fatal("unsampled sequence must have no distortion aggregate")
	}
}

// encodeStats is an audited encode: the bytes and the stats Encode
// accumulated while it wrote them.
func encodeStats(enc fti.Encoder, x []float64) ([]byte, codec.Stats, error) {
	var st codec.Stats
	blob, err := enc.Encode(nil, x, &st)
	return blob, st, err
}

// corruptEncoder violates its declared contract: the stored bytes
// decode to values shifted by 10× the advertised absolute bound. The
// test hands the auditor no encode-path stats for it, so the violation
// must be caught through the decode path.
type corruptEncoder struct {
	fti.Raw
	bound float64
}

func (corruptEncoder) Name() string { return "corrupt" }

func (e corruptEncoder) Encode(dst []byte, x []float64, _ *codec.Stats) ([]byte, error) {
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = v + 10*e.bound
	}
	return e.Raw.Encode(dst, y, nil)
}

func (e corruptEncoder) BoundInfo() fti.BoundInfo {
	return fti.BoundInfo{Bound: e.bound, Lossy: true}
}

// TestCraftedDistortionDetected is the detection satellite: a
// checkpoint whose decoded state carries an out-of-bound error must be
// flagged — the violation counter increments and the record names the
// violating vector and iteration.
func TestCraftedDistortionDetected(t *testing.T) {
	const bound = 1e-4
	x := rampState(512)
	enc := corruptEncoder{bound: bound}
	blob, err := enc.Encode(nil, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	a := New(Config{SampleEvery: 1})
	a.Instrument(reg, obs.NewTracer())
	a.ObserveVector(3, 42, "x", x, blob, enc, nil)

	if got := a.Violations(); got != 1 {
		t.Fatalf("Violations() = %d, want 1", got)
	}
	if got := metricValue(t, reg, obs.MQualityViolationsTotal); got != 1 {
		t.Fatalf("%s = %g, want 1", obs.MQualityViolationsTotal, got)
	}
	recs := a.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	rec := recs[0]
	if !rec.Violated {
		t.Fatal("out-of-bound distortion not flagged")
	}
	if rec.Vector != "x" || rec.Iteration != 42 || rec.Seq != 3 {
		t.Fatalf("violation must name the vector and iteration: %+v", rec)
	}
	if rec.Audit != "decode" {
		t.Fatalf("audit mode %q, want decode (no encode-path stats)", rec.Audit)
	}
	if rec.BoundRatio < 9 {
		t.Fatalf("bound ratio %g, want ≈10 (10× the bound)", rec.BoundRatio)
	}
	d := a.DistortionFor(3)
	if d == nil || !d.Violated {
		t.Fatalf("distortion aggregate must carry the violation: %+v", d)
	}
}

// lyingEncoder pairs corrupt bytes with encode-path stats that claim
// zero error — only the exhaustive decode cross-check can expose it.
type lyingEncoder struct{ corruptEncoder }

func (e lyingEncoder) Encode(dst []byte, x []float64, st *codec.Stats) ([]byte, error) {
	if st != nil {
		*st = codec.Stats{Elements: len(x), Bound: e.bound, Lossy: true}
	}
	return e.corruptEncoder.Encode(dst, x, nil)
}

func TestExhaustiveCrossCheckCatchesUnderreportedError(t *testing.T) {
	const bound = 1e-4
	x := rampState(256)
	enc := lyingEncoder{corruptEncoder{bound: bound}}
	blob, st, err := encodeStats(enc, x)
	if err != nil {
		t.Fatal(err)
	}

	// Without Exhaustive the lie stands: encode-path stats are trusted.
	trusting := New(Config{SampleEvery: 1})
	trusting.ObserveVector(1, 5, "x", x, blob, enc, &st)
	if trusting.Violations() != 0 {
		t.Fatal("non-exhaustive audit should trust encode-path stats")
	}

	exhaustive := New(Config{Exhaustive: true})
	exhaustive.ObserveVector(1, 5, "x", x, blob, enc, &st)
	if exhaustive.Violations() != 1 {
		t.Fatal("exhaustive cross-check missed the under-reported error")
	}
	rec := exhaustive.Records()[0]
	if rec.Audit != "encode-path+decode" {
		t.Fatalf("audit mode %q, want encode-path+decode", rec.Audit)
	}
}

func TestRecoveryAttributionLosslessReplayIsZero(t *testing.T) {
	a := New(Config{})
	for it := 1; it <= 10; it++ {
		a.ObserveResidual(it, 1/float64(it))
	}
	a.ObserveFailure() // failure at iteration 10, residual 0.1
	a.ObserveRecovery(2, "checkpoint", 5, 1.0/5)
	// Replay iterations 6..10 exactly: the residual re-reaches the
	// failure value after precisely the rolled-back segment.
	for it := 6; it <= 10; it++ {
		a.ObserveResidual(it, 1/float64(it))
	}
	es := a.RecoveryEntries()
	if len(es) != 1 {
		t.Fatalf("got %d entries, want 1", len(es))
	}
	e := es[0]
	if !e.Resolved || e.ReacquireIterations != 5 || e.RealizedNPrime != 0 {
		t.Fatalf("lossless replay must attribute N'=0 over 5 iterations: %+v", e)
	}
	if e.FailureIteration != 10 || e.FailureResidual != 0.1 || e.AdoptedSeq != 2 {
		t.Fatalf("failure context wrong: %+v", e)
	}
}

func TestRecoveryAttributionLossyDelay(t *testing.T) {
	reg := obs.New()
	a := New(Config{})
	a.Instrument(reg, nil)
	for it := 1; it <= 10; it++ {
		a.ObserveResidual(it, 1/float64(it))
	}
	a.ObserveFailure()
	a.ObserveRecovery(1, "checkpoint", 5, 0.9)
	// The distorted restart needs 7 iterations to re-reach the
	// iteration-10 residual: 2 beyond the 5-iteration replay.
	resids := []float64{0.8, 0.5, 0.3, 0.2, 0.15, 0.12, 0.1}
	for i, r := range resids {
		a.ObserveResidual(6+i, r)
	}
	e := a.RecoveryEntries()[0]
	if !e.Resolved || e.ReacquireIterations != 7 || e.RealizedNPrime != 2 {
		t.Fatalf("want N'=2 over 7 iterations, got %+v", e)
	}
	if got := metricValue(t, reg, obs.MQualityExtraIterTotal); got != 2 {
		t.Fatalf("%s = %g, want 2", obs.MQualityExtraIterTotal, got)
	}
	if got := metricValue(t, reg, obs.MQualityReacquireIterations); got != 7 {
		t.Fatalf("%s = %g, want 7", obs.MQualityReacquireIterations, got)
	}
}

func TestRecoveryAttributionImmediateResolve(t *testing.T) {
	a := New(Config{})
	a.ObserveResidual(50, 0.25)
	a.ObserveFailure()
	// ABFT reconstructs the failure-point state exactly: the residual
	// after adoption already matches, nothing to reacquire.
	a.ObserveRecovery(0, "abft", 50, 0.25)
	e := a.RecoveryEntries()[0]
	if !e.Resolved || e.RealizedNPrime != 0 || e.ReacquireIterations != 0 {
		t.Fatalf("exact reconstruction must resolve immediately with N'=0: %+v", e)
	}
	if e.Distortion != nil {
		t.Fatal("no checkpoint adopted, distortion must be nil")
	}
}

func TestRecoveryDemoteRetrySupersedes(t *testing.T) {
	a := New(Config{})
	a.ObserveResidual(20, 0.5)
	a.ObserveFailure()
	// First adoption is rejected before any step runs; the chain
	// demotes to an older checkpoint. One attribution entry results.
	a.ObserveRecovery(4, "checkpoint", 18, 2.0)
	a.ObserveRecovery(3, "previous-checkpoint", 12, 3.0)
	es := a.RecoveryEntries()
	if len(es) != 1 {
		t.Fatalf("demote-retry must supersede in place, got %d entries", len(es))
	}
	if es[0].Tier != "previous-checkpoint" || es[0].AdoptedSeq != 3 {
		t.Fatalf("surviving entry is not the retried tier: %+v", es[0])
	}
}

func TestVerdictClassifiesStabilityRegion(t *testing.T) {
	const bound = 1e-4
	x := rampState(1024)
	enc := fti.SZ{Params: sz.Params{Mode: sz.PWRel, ErrorBound: bound}}
	save := func(a *Auditor, seq, iter int, resid float64) {
		t.Helper()
		a.ObserveResidual(iter, resid)
		blob, st, err := encodeStats(enc, x)
		if err != nil {
			t.Fatal(err)
		}
		a.ObserveVector(seq, iter, "x", x, blob, enc, &st)
	}

	// ‖b‖ = 1, c = 1: threshold at save is simply the residual there.
	inside := New(Config{SampleEvery: 1, BNorm: 1})
	save(inside, 1, 10, 0.5) // bound 1e-4 ≤ 0.5: inside
	v := inside.Verdict()
	if !v.Defined || !v.Inside || v.CheckpointsInside != 1 || v.CheckpointsOutside != 0 {
		t.Fatalf("verdict should be inside: %+v", v)
	}
	if v.WorstMargin <= 0 || v.Region != StabilityRegion {
		t.Fatalf("inside verdict must carry positive margin and region: %+v", v)
	}

	mixed := New(Config{SampleEvery: 1, BNorm: 1})
	save(mixed, 1, 10, 0.5)  // inside
	save(mixed, 2, 90, 1e-6) // threshold 1e-6 < bound 1e-4: outside
	v = mixed.Verdict()
	if !v.Defined || v.Inside || v.CheckpointsOutside != 1 || v.CheckpointsInside != 1 {
		t.Fatalf("verdict should be outside with a 1/1 split: %+v", v)
	}
	if v.WorstMargin >= 0 {
		t.Fatalf("outside verdict must have negative worst margin, got %g", v.WorstMargin)
	}

	// No ‖b‖ → undefined, and undefined never claims Inside.
	unknown := New(Config{SampleEvery: 1})
	save(unknown, 1, 10, 0.5)
	if v = unknown.Verdict(); v.Defined || v.Inside {
		t.Fatalf("verdict without BNorm must be undefined: %+v", v)
	}
}

func TestRecordCapEvictsAndCounts(t *testing.T) {
	x := rampState(64)
	enc := fti.Raw{}
	blob, st, err := encodeStats(enc, x)
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{SampleEvery: 1, MaxRecords: 2})
	for seq := 1; seq <= 3; seq++ {
		a.ObserveVector(seq, seq*10, "x", x, blob, enc, &st)
	}
	recs := a.Records()
	if len(recs) != 2 || a.Dropped() != 1 {
		t.Fatalf("cap=2 after 3 audits: %d records, %d dropped", len(recs), a.Dropped())
	}
	if recs[0].Seq != 2 || recs[1].Seq != 3 {
		t.Fatalf("oldest record must be evicted first: %+v", recs)
	}
	if !recs[0].Exact || recs[0].Lossy {
		t.Fatalf("raw encoding must audit as exact and non-lossy: %+v", recs[0])
	}
}

func TestReportFillAndWriteJSON(t *testing.T) {
	const bound = 1e-3
	x := rampState(512)
	enc := fti.SZ{Params: sz.Params{Mode: sz.PWRel, ErrorBound: bound}}
	blob, st, err := encodeStats(enc, x)
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{SampleEvery: 1, BNorm: 1})
	a.ObserveResidual(10, 0.5)
	a.ObserveVector(1, 10, "x", x, blob, enc, &st)
	a.ObserveFailure()
	a.ObserveRecovery(1, "checkpoint", 10, 0.5)

	rep := &RunReport{Run: RunInfo{Solver: "cg", Scheme: "lossy", Exit: "ok"}}
	a.Fill(rep)
	if rep.Schema != ReportSchema {
		t.Fatalf("schema %q, want %q", rep.Schema, ReportSchema)
	}
	if len(rep.Checkpoints) != 1 || len(rep.Recoveries) != 1 || !rep.Stability.Defined {
		t.Fatalf("report sections incomplete: %+v", rep)
	}
	if rep.Recoveries[0].Distortion == nil {
		t.Fatal("adopted-checkpoint recovery must carry its distortion")
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if back["schema"] != ReportSchema {
		t.Fatalf("round-trip schema %v", back["schema"])
	}
	for _, key := range []string{"run", "checkpoints", "recoveries", "stability"} {
		if _, ok := back[key]; !ok {
			t.Fatalf("report JSON missing %q", key)
		}
	}
}

func TestNilAuditorIsSafe(t *testing.T) {
	var a *Auditor
	a.Instrument(obs.New(), obs.NewTracer())
	a.SetSpanClock(func() float64 { return 0 })
	if a.SampleSave(1, 1) {
		t.Fatal("nil auditor must not request audits")
	}
	a.ObserveVector(1, 1, "x", []float64{1}, []byte{0}, fti.Raw{}, nil)
	a.ObserveResidual(1, 1)
	a.ObserveFailure()
	a.ObserveRecovery(1, "checkpoint", 1, 1)
	if a.Records() != nil || a.RecoveryEntries() != nil || a.DistortionFor(1) != nil {
		t.Fatal("nil auditor must report empty state")
	}
	if a.Dropped() != 0 || a.Violations() != 0 {
		t.Fatal("nil auditor counters must be zero")
	}
	v := a.Verdict()
	if v.Defined {
		t.Fatal("nil auditor verdict must be undefined")
	}
	rep := &RunReport{}
	a.Fill(rep)
	if rep.Schema != ReportSchema {
		t.Fatal("nil auditor Fill must still stamp the schema")
	}
}
