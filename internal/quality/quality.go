// Package quality is the numerical-telemetry layer of the lossy
// checkpointing pipeline: it audits the distortion each committed
// checkpoint actually introduced (observed vs. requested error bound,
// PSNR, achieved compression ratio) and judges the run's lossy saves
// against the inline-compression stability region. The paper's N′ is
// not the auditor's: a run's extra iterations are its own iteration
// count's, read off core.Outcome against a failure-free solve.
//
// The central type is Auditor. It is strictly observational: it never
// touches solver state, so instrumented runs produce bitwise-identical
// convergence trajectories to uninstrumented ones. Every method is
// nil-safe (a nil *Auditor is a no-op) and concurrency-safe (the async
// checkpointer invokes the save audit from its background goroutine).
//
// Distortion is measured on what a restore would adopt: every audited
// vector's just-written blob is decoded into pooled scratch with the
// encoder's DecodeInto and compared pointwise with the live vector
// under the encoder's BoundInfo for it. The encoder is never asked what
// it distorted, so a lying or buggy codec is caught, not trusted.
package quality

import (
	"math"
	"sync"
	"time"

	"repro/internal/fti"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Config tunes the auditor. The zero value is usable: sample every
// DefaultSampleEvery-th checkpoint. The auditor keeps the newest
// DefaultMaxRecords per-vector records; older records are dropped (and
// counted) once the cap is hit.
type Config struct {
	// SampleEvery audits every n-th committed save (by sequence
	// number, so sampling is deterministic and independent of
	// timing). 0 means DefaultSampleEvery; 1 audits every save.
	SampleEvery int
	// BNorm is ‖b‖ of the system being solved; needed for the
	// stability verdict. 0 leaves the verdict undefined.
	BNorm float64
}

// Defaults for Config zero values, and the record cap.
const (
	DefaultSampleEvery = 4
	DefaultMaxRecords  = 4096
)

// stabilityC is the c in the adaptive bound eb = c·‖r‖/‖b‖ that
// delimits the Fox et al. inline-ZFP stability region.
const stabilityC = 1.0

// Record is one audited vector of one committed checkpoint.
type Record struct {
	Seq       int    `json:"seq"`
	Iteration int    `json:"iteration"`
	Vector    string `json:"vector"`
	Elements  int    `json:"elements"`

	// Errors are those of the decoded blob, in the bound's native
	// metric: absolute, or relative when Relative is set.
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

	// Violated: an element broke the bound (sz.TestErrorBoundOracle's
	// rule), or the blob did not decode at all.
	Violated bool `json:"violated"`

	// ResidualAtSave is the solver residual norm nearest (at or
	// before) the checkpoint's iteration, when the driver feeds
	// residuals; 0 otherwise.
	ResidualAtSave float64 `json:"residual_at_save,omitempty"`
}

// Distortion aggregates a checkpoint's audited vectors — the shape a
// RecoveryEntry tags an adopted checkpoint with.
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

// Auditor implements fti.SaveAudit. All methods are nil-safe and
// mutex-guarded.
type Auditor struct {
	mu  sync.Mutex
	cfg Config

	reg *obs.Registry
	tr  *obs.Tracer

	records []Record
	dropped int
	bySeq   map[int]*Distortion
	seqs    []int // insertion order, for pruning bySeq alongside records

	// Residual trajectory window.
	iters  [residRing]int
	resids [residRing]float64
	rn     int // total observations (ring head = rn % residRing)
}

// The Auditor plugs straight into the checkpointer's audit hook.
var _ fti.SaveAudit = (*Auditor)(nil)

// New builds an Auditor. Pass the result to Manager.InstrumentQuality;
// core.Drive feeds it residuals on a measured run (a modelled run is
// unobserved). Its spans are on the tracer's wall clock.
func New(cfg Config) *Auditor {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = DefaultSampleEvery
	}
	return &Auditor{cfg: cfg, bySeq: make(map[int]*Distortion)}
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
func (a *Auditor) ObserveVector(seq, iteration int, name string, live []float64, blob []byte, enc fti.Encoder) {
	if a == nil {
		return
	}
	wallStart := time.Now()
	bi := enc.BoundInfo(live)
	d := decodeDistortion(live, blob, enc, bi)
	rec := Record{
		Seq:            seq,
		Iteration:      iteration,
		Vector:         name,
		Elements:       len(live),
		MaxError:       d.maxErr,
		MeanError:      d.mean(),
		RMSE:           d.rmse(),
		PSNR:           d.psnr(),
		RequestedBound: bi.Bound,
		Relative:       bi.Relative,
		Lossy:          bi.Lossy,
		Exact:          d.maxErr == 0 && !d.violated,
		RawBytes:       8 * len(live),
		EncodedBytes:   len(blob),
		PeakValue:      d.peak,
		Violated:       d.violated,
	}
	if rec.RequestedBound > 0 {
		rec.BoundRatio = rec.MaxError / rec.RequestedBound
	}
	if len(blob) > 0 {
		rec.CompressionRatio = float64(rec.RawBytes) / float64(len(blob))
	}
	wallDur := time.Since(wallStart).Seconds()

	a.mu.Lock()
	rec.ResidualAtSave = a.residualAtLocked(iteration)
	a.appendRecordLocked(rec)
	reg, tr := a.reg, a.tr
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
		ts := tr.Now() - wallDur
		tr.Complete(obs.TrackPipeline, obs.CatQuality, obs.SpanQualityAudit, ts, wallDur, args)
		if rec.Violated {
			tr.InstantAt(obs.TrackPipeline, obs.CatQuality, obs.SpanQualityViolation, ts)
		}
	}
}

// distortion is one decoded vector's pointwise errors against the
// live one, in the bound's native metric (sumSq in the value domain).
type distortion struct {
	n                           int
	maxErr, sumErr, sumSq, peak float64
	violated                    bool
}

func (d distortion) mean() float64 {
	if d.n == 0 {
		return 0
	}
	return d.sumErr / float64(d.n)
}

func (d distortion) rmse() float64 {
	if d.n == 0 {
		return 0
	}
	return math.Sqrt(d.sumSq / float64(d.n))
}

// psnr is 20·log10(peak/RMSE) in dB; 0 where that is not finite (an
// exact reconstruction, an all-zero vector).
func (d distortion) psnr() float64 {
	if rmse := d.rmse(); rmse > 0 && d.peak > 0 {
		return 20 * math.Log10(d.peak/rmse)
	}
	return 0
}

// decodeDistortion decodes blob into pooled scratch and compares it
// with live under bi, by sz.TestErrorBoundOracle's rule: an absolute
// error within Bound, or a relative one within Bound·|v|·(1+1e-10)
// with zeros and subnormals exact. A bitwise-identical element is
// exact, so a NaN or an infinity an exact codec carries verbatim adds
// no error; any other element whose error is not finite breaks the
// bound and stays out of the sums, as does a blob that does not decode.
func decodeDistortion(live []float64, blob []byte, enc fti.Encoder, bi fti.BoundInfo) distortion {
	d := distortion{n: len(live)}
	scratch := parallel.GetFloat64s(len(live))[:len(live)]
	defer parallel.PutFloat64s(scratch)
	if err := enc.DecodeInto(scratch, blob); err != nil {
		d.violated = true
		return d
	}
	for i, v := range live {
		av := math.Abs(v)
		if av > d.peak && !math.IsInf(av, 1) {
			d.peak = av
		}
		if math.Float64bits(v) == math.Float64bits(scratch[i]) {
			continue
		}
		e := math.Abs(v - scratch[i])
		limit := bi.Bound
		if bi.Relative {
			limit = 0
			if av >= 0x1p-1022 { // the smallest normal float64
				limit = bi.Bound * av * (1 + 1e-10)
			}
		}
		if !(e <= limit) {
			d.violated = true
		}
		if math.IsInf(e, 0) || math.IsNaN(e) {
			continue
		}
		d.sumSq += e * e
		if bi.Relative && v != 0 {
			e /= av
		}
		d.maxErr = max(d.maxErr, e)
		d.sumErr += e
	}
	return d
}

// appendRecordLocked stores rec (bounded) and folds it into the
// per-checkpoint distortion aggregate.
func (a *Auditor) appendRecordLocked(rec Record) {
	if len(a.records) >= DefaultMaxRecords {
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
		for len(a.seqs) > DefaultMaxRecords {
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

// ObserveResidual feeds one solver residual observation (iteration,
// residual norm) into the window ResidualAtSave is read from. Call once
// per iteration, after the solver step; it is read-only with respect to
// solver state. Nil-safe.
func (a *Auditor) ObserveResidual(iter int, rnorm float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.iters[a.rn%residRing] = iter
	a.resids[a.rn%residRing] = rnorm
	a.rn++
	a.mu.Unlock()
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
