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

	// ResidualAtSave is the solver residual norm the saver read when
	// it opened this save (ObserveResidual at the save's iteration);
	// 0 when the save was not opened through a core.Manager.
	ResidualAtSave float64 `json:"residual_at_save,omitempty"`
}

// Distortion aggregates one save's audited vectors — the shape a
// RecoveryEntry tags an adopted checkpoint with. DistortionFor derives
// it from the retained records.
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
}

// Auditor implements fti.SaveAudit. All methods are nil-safe and
// mutex-guarded.
type Auditor struct {
	mu  sync.Mutex
	cfg Config

	reg *obs.Registry
	tr  *obs.Tracer

	records       []Record // a ring once full: at(0), the oldest, is at head
	head, dropped int

	// The residual the saver read when it opened the newest save, and
	// that save's iteration. One pair is enough: a save is audited
	// before the next one is opened (an async save is drained first).
	saveIter  int
	saveResid float64
}

// The Auditor plugs straight into the checkpointer's audit hook.
var _ fti.SaveAudit = (*Auditor)(nil)

// New builds an Auditor. Pass the result to Manager.InstrumentQuality,
// which hands it the residual of every save it opens (a modelled run is
// unobserved). Its spans are on the tracer's wall clock.
func New(cfg Config) *Auditor {
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = DefaultSampleEvery
	}
	return &Auditor{cfg: cfg}
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
	if iteration == a.saveIter {
		rec.ResidualAtSave = a.saveResid
	}
	if len(a.records) < DefaultMaxRecords {
		a.records = append(a.records, rec)
	} else { // evict the oldest
		a.records[a.head], a.head = rec, (a.head+1)%len(a.records)
		a.dropped++
	}
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

// ObserveResidual records the residual norm rnorm the saver read at
// iteration iter, as it opened a save: the ResidualAtSave of that
// save's records. core.Manager calls it for every save it opens; it is
// read-only with respect to solver state. Nil-safe.
func (a *Auditor) ObserveResidual(iter int, rnorm float64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.saveIter, a.saveResid = iter, rnorm
	a.mu.Unlock()
}

// DistortionFor aggregates the retained records of the newest save
// under sequence seq, or returns nil if no such save was sampled (or
// its records were evicted). A save's records are contiguous, one per
// vector name, so the walk back from the newest record of seq stops at
// another sequence or at a name it has already seen: a save aborted
// under seq, whose number the next save reused, is not merged into it.
// Nil-safe.
func (a *Auditor) DistortionFor(seq int) *Distortion {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	end := len(a.records)
	for end > 0 && a.at(end-1).Seq != seq {
		end--
	}
	if end == 0 {
		return nil
	}
	start, seen := end-1, map[string]bool{a.at(end - 1).Vector: true}
	for start > 0 && a.at(start-1).Seq == seq && !seen[a.at(start-1).Vector] {
		start--
		seen[a.at(start).Vector] = true
	}
	d := &Distortion{Seq: seq, Iteration: a.at(start).Iteration}
	var sumErr float64
	var elems int
	for k := start; k < end; k++ {
		rec := a.at(k)
		d.Vectors++
		d.MaxError = max(d.MaxError, rec.MaxError)
		sumErr += rec.MeanError * float64(rec.Elements)
		elems += rec.Elements
		d.Lossy = d.Lossy || rec.Lossy
		d.Violated = d.Violated || rec.Violated
		if rec.RequestedBound > d.RequestedBound {
			d.RequestedBound, d.Relative = rec.RequestedBound, rec.Relative
		}
	}
	if elems > 0 {
		d.MeanError = sumErr / float64(elems)
	}
	return d
}

// Records returns a copy of the retained per-vector audit records.
// Nil-safe.
func (a *Auditor) Records() []Record {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return append(append([]Record(nil), a.records[a.head:]...), a.records[:a.head]...)
}

// at is the k-th oldest retained record; a.mu must be held.
func (a *Auditor) at(k int) *Record { return &a.records[(a.head+k)%len(a.records)] }

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
