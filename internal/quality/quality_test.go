package quality

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/fti"
	"repro/internal/obs"
	"repro/internal/sz"
)

func metricValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	if md := reg.Snapshot().Get(name); md != nil {
		return md.Value
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
	for seq := 1; seq <= 10; seq++ {
		if !every.SampleSave(seq, 0) {
			t.Errorf("SampleEvery=1 skipped seq %d", seq)
		}
	}
}

// TestEncodePathAuditRecordsBoundedDistortion: the audit of a save as
// the encoder wrote it records the decoded distortion within the bound.
func TestEncodePathAuditRecordsBoundedDistortion(t *testing.T) {
	const bound = 1e-3
	x := rampState(4096)
	enc := fti.SZ{Params: sz.Params{Mode: sz.PWRel, ErrorBound: bound}}
	blob, err := enc.Encode(nil, x)
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{SampleEvery: 1})
	a.ObserveResidual(9, 0.25)
	a.ObserveResidual(10, 0.125)
	a.ObserveVector(1, 10, "x", x, blob, enc)

	recs := a.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Seq != 1 || rec.Iteration != 10 || rec.Vector != "x" {
		t.Fatalf("record identity wrong: %+v", rec)
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

// TestDistortionForReusedSeqIsTheNewestSave: a save aborted under seq
// 11 leaves its records behind, and the next save reuses the number.
// The aggregate a recovery of seq 11 reports is the newer save's alone.
func TestDistortionForReusedSeqIsTheNewestSave(t *testing.T) {
	x := rampState(1024)
	enc := fti.SZ{Params: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4}}
	blob, err := enc.Encode(nil, x)
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{SampleEvery: 1})
	a.ObserveVector(10, 250, "x", x, blob, enc)
	a.ObserveVector(11, 260, "x", x, blob, enc) // aborted
	a.ObserveVector(11, 275, "x", x, blob, enc) // adopted
	d := a.DistortionFor(11)
	if d == nil || d.Seq != 11 || d.Iteration != 275 || d.Vectors != 1 {
		t.Fatalf("DistortionFor(11) = %+v, want the iteration-275 save's one vector", d)
	}
	if d := a.DistortionFor(10); d == nil || d.Iteration != 250 || d.Vectors != 1 {
		t.Fatalf("DistortionFor(10) = %+v", d)
	}
}

// TestResidualAtSaveIsTheSaversReading: a record carries the residual
// observed at its own save's iteration, and none from another save.
func TestResidualAtSaveIsTheSaversReading(t *testing.T) {
	x := rampState(256)
	enc := fti.Raw{}
	blob, err := enc.Encode(nil, x)
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{SampleEvery: 1})
	a.ObserveResidual(20, 0.5)
	a.ObserveVector(1, 20, "p", x, blob, enc)
	a.ObserveVector(1, 20, "x", x, blob, enc)
	a.ObserveVector(2, 30, "x", x, blob, enc) // opened without a reading
	recs := a.Records()
	if recs[0].ResidualAtSave != 0.5 || recs[1].ResidualAtSave != 0.5 || recs[2].ResidualAtSave != 0 {
		t.Fatalf("residuals at save %g, %g, %g; want 0.5, 0.5, 0",
			recs[0].ResidualAtSave, recs[1].ResidualAtSave, recs[2].ResidualAtSave)
	}
	if d := a.DistortionFor(1); d == nil || d.Vectors != 2 || d.Iteration != 20 {
		t.Fatalf("DistortionFor(1) = %+v, want both vectors of the save", d)
	}
}

// corruptEncoder violates its declared contract: the stored bytes
// decode to values shifted by 10× the advertised absolute bound.
type corruptEncoder struct {
	fti.Raw
	bound float64
}

func (corruptEncoder) Name() string { return "corrupt" }

func (e corruptEncoder) Encode(dst []byte, x []float64) ([]byte, error) {
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = v + 10*e.bound
	}
	return e.Raw.Encode(dst, y)
}

func (e corruptEncoder) BoundInfo([]float64) fti.BoundInfo {
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
	blob, err := enc.Encode(nil, x)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	a := New(Config{SampleEvery: 1})
	a.Instrument(reg, obs.NewTracer())
	a.ObserveVector(3, 42, "x", x, blob, enc)

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
	if rec.BoundRatio < 9 {
		t.Fatalf("bound ratio %g, want ≈10 (10× the bound)", rec.BoundRatio)
	}
	d := a.DistortionFor(3)
	if d == nil || !d.Violated {
		t.Fatalf("distortion aggregate must carry the violation: %+v", d)
	}
}

// undecodableEncoder writes raw images that it then refuses to decode:
// a checkpoint a restore would reject.
type undecodableEncoder struct{ fti.Raw }

func (undecodableEncoder) Name() string { return "undecodable" }

func (undecodableEncoder) DecodeInto([]float64, []byte) error {
	return errors.New("undecodable")
}

// TestUndecodableSaveIsViolated: a save whose blob does not decode is a
// violation, counted and recorded with finite numbers, not a clean save.
func TestUndecodableSaveIsViolated(t *testing.T) {
	reg := obs.New()
	a := New(Config{SampleEvery: 1})
	a.Instrument(reg, nil)
	ck := fti.New(fti.NewMemStorage(), undecodableEncoder{})
	ck.SetSaveAudit(a)
	x := rampState(256)
	ck.Protect("x", &x)
	if _, err := ck.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := a.Violations(); got != 1 {
		t.Fatalf("Violations() = %d, want 1", got)
	}
	if got := metricValue(t, reg, obs.MQualityViolationsTotal); got != 1 {
		t.Fatalf("%s = %g, want 1", obs.MQualityViolationsTotal, got)
	}
	rec := a.Records()[0]
	if rec.Exact || rec.Vector != "x" {
		t.Fatalf("undecodable save recorded as %+v", rec)
	}
	for _, v := range []float64{rec.MaxError, rec.MeanError, rec.RMSE, rec.PSNR, rec.BoundRatio, rec.PeakValue, rec.CompressionRatio} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite field in %+v", rec)
		}
	}
}

// TestNonFiniteExactValuesAuditFinite: ±Inf and NaN that an exact codec
// carries verbatim decode bitwise identical, so they audit as exact and
// the run report still encodes.
func TestNonFiniteExactValuesAuditFinite(t *testing.T) {
	x := rampState(300)
	x[7], x[100], x[200] = math.Inf(1), math.Inf(-1), math.NaN()
	a := New(Config{SampleEvery: 1})
	for seq, enc := range []fti.Encoder{fti.Raw{}, fti.Lossless{Codec: codec.BlockedFlate{}}} {
		blob, err := enc.Encode(nil, x)
		if err != nil {
			t.Fatal(err)
		}
		a.ObserveVector(seq+1, 10, "x", x, blob, enc)
		if rec := a.Records()[seq]; rec.MaxError != 0 || !rec.Exact || rec.Violated {
			t.Fatalf("%s: %+v", enc.Name(), rec)
		}
	}
	rep := &RunReport{}
	a.Fill(rep)
	if err := rep.WriteJSON(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestVerdictClassifiesStabilityRegion(t *testing.T) {
	const bound = 1e-4
	x := rampState(1024)
	enc := fti.SZ{Params: sz.Params{Mode: sz.PWRel, ErrorBound: bound}}
	save := func(a *Auditor, seq, iter int, resid float64) {
		t.Helper()
		a.ObserveResidual(iter, resid)
		blob, err := enc.Encode(nil, x)
		if err != nil {
			t.Fatal(err)
		}
		a.ObserveVector(seq, iter, "x", x, blob, enc)
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

// TestRecordCapEvictsAndCounts: past DefaultMaxRecords the oldest
// record goes first, one per audit — twice round the ring and one more
// — and what is left reads oldest-first, each save's aggregate with it.
func TestRecordCapEvictsAndCounts(t *testing.T) {
	x := rampState(64)
	enc := fti.Raw{}
	blob, err := enc.Encode(nil, x)
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{SampleEvery: 1})
	const audits = 2*DefaultMaxRecords + 1
	for seq := 1; seq <= audits; seq++ {
		a.ObserveVector(seq, seq*10, "x", x, blob, enc)
	}
	recs := a.Records()
	if len(recs) != DefaultMaxRecords || a.Dropped() != audits-DefaultMaxRecords {
		t.Fatalf("cap=%d after %d audits: %d records, %d dropped", DefaultMaxRecords, audits, len(recs), a.Dropped())
	}
	for i, rec := range recs {
		if want := audits - DefaultMaxRecords + 1 + i; rec.Seq != want || rec.Iteration != 10*want {
			t.Fatalf("record %d is seq %d (iteration %d), want %d: the oldest must be evicted first", i, rec.Seq, rec.Iteration, want)
		}
	}
	oldest := recs[0].Seq
	if a.DistortionFor(oldest-1) != nil || a.DistortionFor(oldest) == nil || a.DistortionFor(audits).Iteration != 10*audits {
		t.Fatal("the evicted checkpoint's aggregate must go with its record, and only it")
	}
	if !recs[0].Exact || recs[0].Lossy {
		t.Fatalf("raw encoding must audit as exact and non-lossy: %+v", recs[0])
	}
}

func TestReportFillAndWriteJSON(t *testing.T) {
	const bound = 1e-3
	x := rampState(512)
	enc := fti.SZ{Params: sz.Params{Mode: sz.PWRel, ErrorBound: bound}}
	blob, err := enc.Encode(nil, x)
	if err != nil {
		t.Fatal(err)
	}
	a := New(Config{SampleEvery: 1, BNorm: 1})
	a.ObserveResidual(10, 0.5)
	a.ObserveVector(1, 10, "x", x, blob, enc)

	rep := &RunReport{Run: RunInfo{Solver: "cg", Scheme: "lossy", Exit: "ok"}}
	a.Fill(rep)
	if rep.Schema != ReportSchema {
		t.Fatalf("schema %q, want %q", rep.Schema, ReportSchema)
	}
	if len(rep.Checkpoints) != 1 || !rep.Stability.Defined {
		t.Fatalf("report sections incomplete: %+v", rep)
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
	for _, key := range []string{"run", "checkpoints", "stability"} {
		if _, ok := back[key]; !ok {
			t.Fatalf("report JSON missing %q", key)
		}
	}
}

func TestNilAuditorIsSafe(t *testing.T) {
	var a *Auditor
	a.Instrument(obs.New(), obs.NewTracer())
	if a.SampleSave(1, 1) {
		t.Fatal("nil auditor must not request audits")
	}
	a.ObserveVector(1, 1, "x", []float64{1}, []byte{0}, fti.Raw{})
	a.ObserveResidual(1, 1)
	if a.Records() != nil || a.DistortionFor(1) != nil {
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

// Violations counts audited vectors whose observed error exceeded
// the requested bound. Nil-safe.
func (a *Auditor) Violations() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for i := range a.records {
		if a.records[i].Violated {
			n++
		}
	}
	return n
}
