// Package quality is the numerical-telemetry layer of the lossy
// checkpointing pipeline: it audits the distortion each committed
// checkpoint actually introduced (observed vs. requested error bound,
// PSNR, achieved compression ratio) and attributes the convergence
// delay each recovery actually cost (the paper's N′, realized rather
// than modeled, plus iterations until the post-restart residual
// re-reached the residual at failure).
//
// The central type is Auditor. It is strictly observational: it never
// touches solver state, so instrumented runs produce bitwise-identical
// convergence trajectories to uninstrumented ones. Every method is
// nil-safe (a nil *Auditor is a no-op) and concurrency-safe (the async
// checkpointer invokes the save audit from its background goroutine).
//
// Distortion statistics come from the encoders' own encode-path
// accumulators (the codec.Stats fti.Encoder.Encode fills), so the
// common case needs no audit decode at all; every audited save when
// Exhaustive is set is cross-checked by decoding the just-written blob
// into pooled scratch with the encoder's DecodeInto and comparing
// pointwise against the live vector under its BoundInfo.
package quality

import (
	"math"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/fti"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Config tunes the auditor. The zero value is usable: sample every
// DefaultSampleEvery-th checkpoint, keep DefaultMaxRecords records.
type Config struct {
	// SampleEvery audits every n-th committed save (by sequence
	// number, so sampling is deterministic and independent of
	// timing). 0 means DefaultSampleEvery; 1 audits every save.
	SampleEvery int
	// Exhaustive audits every save and additionally decode-verifies
	// every audited vector even when the encoder reports encode-path
	// stats, cross-checking the accumulators against a real decode.
	Exhaustive bool
	// MaxRecords caps retained per-vector records; older records are
	// dropped (and counted) once the cap is hit. 0 means
	// DefaultMaxRecords.
	MaxRecords int
	// BNorm is ‖b‖ of the system being solved; needed (with
	// StabilityC) for the stability verdict. 0 leaves the verdict
	// undefined.
	BNorm float64
	// StabilityC is the c in the adaptive bound eb = c·‖r‖/‖b‖ that
	// delimits the Fox et al. inline-ZFP stability region. 0 means 1.
	StabilityC float64
}

// Defaults for Config zero values.
const (
	DefaultSampleEvery = 4
	DefaultMaxRecords  = 4096
)

// Record is one audited vector of one committed checkpoint.
type Record struct {
	Seq       int    `json:"seq"`
	Iteration int    `json:"iteration"`
	Vector    string `json:"vector"`
	Elements  int    `json:"elements"`

	// Errors are in the bound's native metric: absolute, or
	// relative when Relative is set.
	MaxError       float64 `json:"max_error"`
	MeanError      float64 `json:"mean_error"`
	RMSE           float64 `json:"rmse"`
	PSNR           float64 `json:"psnr"` // 0 when Exact (would be +Inf)
	RequestedBound float64 `json:"requested_bound"`
	BoundRatio     float64 `json:"bound_ratio"` // MaxError/RequestedBound; ≤1 means the bound held
	Relative       bool    `json:"relative"`
	Lossy          bool    `json:"lossy"`
	Exact          bool    `json:"exact"` // reconstruction was bitwise error-free

	RawBytes         int     `json:"raw_bytes"`
	EncodedBytes     int     `json:"encoded_bytes"`
	CompressionRatio float64 `json:"compression_ratio"`
	PeakValue        float64 `json:"peak_value"`

	// Audit records how the stats were obtained: "encode-path",
	// "decode", or "encode-path+decode" (exhaustive cross-check).
	Audit    string `json:"audit"`
	Violated bool   `json:"violated"`

	// ResidualAtSave is the solver residual norm nearest (at or
	// before) the checkpoint's iteration, when the driver feeds
	// residuals; 0 otherwise.
	ResidualAtSave float64 `json:"residual_at_save,omitempty"`
}

// Distortion aggregates a checkpoint's audited vectors — the shape a
// RecoveryReport tags adopted state with.
type Distortion struct {
	Seq            int     `json:"seq"`
	Iteration      int     `json:"iteration"`
	Vectors        int     `json:"vectors"`
	MaxError       float64 `json:"max_error"`
	MeanError      float64 `json:"mean_error"`
	RequestedBound float64 `json:"requested_bound"`
	Relative       bool    `json:"relative"`
	Lossy          bool    `json:"lossy"`
	Violated       bool    `json:"violated"`

	sumErr float64
	elems  int
}

// residRing is a fixed window of recent (iteration, residual)
// observations for residual-at-save lookup.
const residRing = 1024

// Auditor implements fti.SaveAudit plus the post-recovery
// convergence-delay attribution. All methods are nil-safe and
// mutex-guarded.
type Auditor struct {
	mu  sync.Mutex
	cfg Config

	reg   *obs.Registry
	tr    *obs.Tracer
	clock func() float64 // span-timestamp override (sim virtual time)

	records []Record
	dropped int
	bySeq   map[int]*Distortion
	seqs    []int // insertion order, for pruning bySeq alongside records

	// Residual trajectory window.
	iters  [residRing]int
	resids [residRing]float64
	rn     int // total observations (ring head = rn % residRing)

	lastIter  int
	lastResid float64
	haveResid bool

	entries    []RecoveryEntry
	pendingIdx int // index into entries of the unresolved entry, -1 if none
	failIter   int
	failResid  float64
	haveFail   bool
}

// The Auditor plugs straight into the checkpointer's audit hook.
var _ fti.SaveAudit = (*Auditor)(nil)

// New builds an Auditor. Pass the result to Manager.InstrumentQuality
// (or sim.Config.Quality) and feed residuals via ObserveResidual.
func New(cfg Config) *Auditor {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = DefaultSampleEvery
	}
	if cfg.Exhaustive {
		cfg.SampleEvery = 1
	}
	if cfg.MaxRecords <= 0 {
		cfg.MaxRecords = DefaultMaxRecords
	}
	if cfg.StabilityC <= 0 {
		cfg.StabilityC = 1
	}
	return &Auditor{
		cfg:        cfg,
		bySeq:      make(map[int]*Distortion),
		pendingIdx: -1,
	}
}

// Instrument attaches a metrics registry and tracer; nil+nil
// detaches. Nil-safe.
func (a *Auditor) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.reg, a.tr = reg, tr
	a.mu.Unlock()
}

// SetSpanClock overrides the timestamp source for emitted spans —
// the simulator points this at its virtual clock so real and
// simulated runs share one span schema. nil restores the tracer's
// own clock. Nil-safe.
func (a *Auditor) SetSpanClock(fn func() float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.clock = fn
	a.mu.Unlock()
}

// SampleSave implements fti.SaveAudit: deterministic sequence-based
// sampling, so which checkpoints get audited never depends on timing.
func (a *Auditor) SampleSave(seq, iteration int) bool {
	if a == nil {
		return false
	}
	a.mu.Lock()
	every := a.cfg.SampleEvery
	a.mu.Unlock()
	if every <= 1 {
		return true
	}
	// seq is 1-based; always audit the first checkpoint.
	return (seq-1)%every == 0
}

// ObserveVector implements fti.SaveAudit. It runs on the saver's
// goroutine — the solver thread for sync checkpoints, the async
// pipeline's background goroutine otherwise — and must not retain
// live or blob.
func (a *Auditor) ObserveVector(seq, iteration int, name string, live []float64, blob []byte, enc fti.Encoder, st *codec.Stats) {
	if a == nil {
		return
	}
	wallStart := time.Now()

	var s codec.Stats
	audit := "encode-path"
	if st != nil {
		s = *st
	}
	a.mu.Lock()
	exhaustive := a.cfg.Exhaustive
	a.mu.Unlock()

	if st == nil || exhaustive {
		ds, ok := a.decodeStats(live, blob, enc)
		if ok {
			if st == nil {
				s, audit = ds, "decode"
			} else {
				audit = "encode-path+decode"
				// Cross-check: the decode must agree with (be bounded
				// by) the encode-path accumulators; keep the larger
				// observed error so a disagreement surfaces as a
				// violation rather than vanishing.
				if ds.MaxErr > s.MaxErr {
					s.MaxErr = ds.MaxErr
				}
				if ds.SumErr > s.SumErr {
					s.SumErr, s.SumSqAbs = ds.SumErr, ds.SumSqAbs
				}
			}
		} else if st == nil {
			// Encoder offers neither stats nor a decodable stream we
			// can check; nothing to record.
			return
		}
	}

	rec := Record{
		Seq:            seq,
		Iteration:      iteration,
		Vector:         name,
		Elements:       s.Elements,
		MaxError:       s.MaxErr,
		MeanError:      s.MeanErr(),
		RMSE:           s.RMSE(),
		RequestedBound: s.Bound,
		Relative:       s.Relative,
		Lossy:          s.Lossy,
		Exact:          s.MaxErr == 0,
		RawBytes:       8 * len(live),
		EncodedBytes:   len(blob),
		PeakValue:      s.MaxAbsValue,
		Audit:          audit,
	}
	if psnr := s.PSNR(); !math.IsInf(psnr, 0) && !math.IsNaN(psnr) {
		rec.PSNR = psnr
	}
	if rec.RequestedBound > 0 {
		rec.BoundRatio = rec.MaxError / rec.RequestedBound
		rec.Violated = rec.MaxError > rec.RequestedBound
	}
	if len(blob) > 0 {
		rec.CompressionRatio = float64(rec.RawBytes) / float64(len(blob))
	}
	wallDur := time.Since(wallStart).Seconds()

	a.mu.Lock()
	rec.ResidualAtSave = a.residualAtLocked(iteration)
	a.appendRecordLocked(rec)
	reg, tr := a.reg, a.tr
	ts, dur := a.spanTimeLocked(tr, wallDur)
	a.mu.Unlock()

	if reg != nil {
		reg.Counter(obs.MQualityAuditsTotal).Inc()
		reg.Histogram(obs.MQualityAuditSeconds, obs.LatencyBuckets()).Observe(wallDur)
		if rec.RequestedBound > 0 {
			reg.Gauge(obs.MQualityErrorRatio).Set(rec.BoundRatio)
		}
		if rec.CompressionRatio > 0 {
			reg.Gauge(obs.MQualityCompressionRatio).Set(rec.CompressionRatio)
		}
		if rec.Violated {
			reg.Counter(obs.MQualityViolationsTotal).Inc()
		}
	}
	if tr != nil {
		args := map[string]float64{
			"seq":       float64(seq),
			"iter":      float64(iteration),
			"max_error": rec.MaxError,
			"bound":     rec.RequestedBound,
			"ratio":     rec.CompressionRatio,
		}
		if rec.Violated {
			args["violated"] = 1
		}
		tr.Complete(obs.TrackPipeline, obs.CatQuality, obs.SpanQualityAudit, ts, dur, args)
		if rec.Violated {
			tr.InstantAt(obs.TrackPipeline, obs.CatQuality, obs.SpanQualityViolation, ts)
		}
	}
}

// spanTimeLocked returns the span timestamp and duration: virtual
// clock with zero duration when a span clock is installed, wall time
// otherwise.
func (a *Auditor) spanTimeLocked(tr *obs.Tracer, wallDur float64) (ts, dur float64) {
	if a.clock != nil {
		return a.clock(), 0
	}
	if tr != nil {
		return tr.Now() - wallDur, wallDur
	}
	return 0, wallDur
}

// decodeStats decodes blob into pooled scratch and accumulates
// pointwise errors against live, in the metric of the encoder's
// declared bound.
func (a *Auditor) decodeStats(live []float64, blob []byte, enc fti.Encoder) (codec.Stats, bool) {
	if enc == nil || len(live) == 0 {
		return codec.Stats{}, false
	}
	bi := enc.BoundInfo()
	scratch := parallel.GetFloat64s(len(live))[:len(live)]
	defer parallel.PutFloat64s(scratch)
	if err := enc.DecodeInto(scratch, blob); err != nil {
		return codec.Stats{}, false
	}
	st := codec.Stats{
		Elements: len(live),
		Bound:    bi.Bound,
		Relative: bi.Relative,
		Lossy:    bi.Lossy,
	}
	for i, v := range live {
		av := math.Abs(v)
		if av > st.MaxAbsValue {
			st.MaxAbsValue = av
		}
		d := math.Abs(v - scratch[i])
		st.SumSqAbs += d * d
		if bi.Relative && v != 0 {
			d /= av
		}
		if d > st.MaxErr {
			st.MaxErr = d
		}
		st.SumErr += d
	}
	return st, true
}

// appendRecordLocked stores rec (bounded) and folds it into the
// per-checkpoint distortion aggregate.
func (a *Auditor) appendRecordLocked(rec Record) {
	if len(a.records) >= a.cfg.MaxRecords {
		a.records = append(a.records[:0], a.records[1:]...)
		a.dropped++
	}
	a.records = append(a.records, rec)

	d := a.bySeq[rec.Seq]
	if d == nil {
		d = &Distortion{Seq: rec.Seq, Iteration: rec.Iteration}
		a.bySeq[rec.Seq] = d
		a.seqs = append(a.seqs, rec.Seq)
		// Prune the oldest aggregates alongside the record cap.
		for len(a.seqs) > a.cfg.MaxRecords {
			delete(a.bySeq, a.seqs[0])
			a.seqs = a.seqs[1:]
		}
	}
	d.Vectors++
	if rec.MaxError > d.MaxError {
		d.MaxError = rec.MaxError
	}
	d.sumErr += rec.MeanError * float64(rec.Elements)
	d.elems += rec.Elements
	if d.elems > 0 {
		d.MeanError = d.sumErr / float64(d.elems)
	}
	if rec.Lossy {
		d.Lossy = true
	}
	if rec.RequestedBound > d.RequestedBound {
		d.RequestedBound = rec.RequestedBound
		d.Relative = rec.Relative
	}
	if rec.Violated {
		d.Violated = true
	}
}

// residualAtLocked returns the observed residual at the latest
// iteration ≤ iter, or 0 when none is known.
func (a *Auditor) residualAtLocked(iter int) float64 {
	n := a.rn
	if n > residRing {
		n = residRing
	}
	best, bestIter, found := 0.0, -1, false
	for i := 0; i < n; i++ {
		idx := (a.rn - 1 - i) % residRing
		if a.iters[idx] <= iter && a.iters[idx] > bestIter {
			best, bestIter, found = a.resids[idx], a.iters[idx], true
		}
	}
	if !found {
		return 0
	}
	return best
}

// DistortionFor returns a copy of the audited distortion aggregate
// for checkpoint sequence seq, or nil if that save was not sampled.
// Nil-safe.
func (a *Auditor) DistortionFor(seq int) *Distortion {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	d := a.bySeq[seq]
	if d == nil {
		return nil
	}
	cp := *d
	return &cp
}

// Records returns a copy of the retained per-vector audit records.
// Nil-safe.
func (a *Auditor) Records() []Record {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Record(nil), a.records...)
}

// Dropped reports how many audit records were evicted by the
// MaxRecords cap. Nil-safe.
func (a *Auditor) Dropped() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.dropped
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
