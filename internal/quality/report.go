package quality

import (
	"encoding/json"
	"io"

	"repro/internal/obs"
)

// ReportSchema versions the run-report JSON layout. Consumers must
// check it before interpreting the rest of the document.
const ReportSchema = "lossyckpt.run-report/v4"

// StabilityRegion names the stability criterion the verdict is
// judged against: Fox, Diffenderfer et al.'s analysis of inline ZFP
// compression in iterative schemes, which is stable while the
// per-checkpoint relative error bound stays within c·‖r‖/‖b‖ of the
// current residual (the same region the paper's adaptive GMRES bound
// targets).
const StabilityRegion = "fox-inline-zfp"

// RunInfo identifies the run a report describes. Fields the driver
// does not know are left zero and omitted.
type RunInfo struct {
	Command       string  `json:"command,omitempty"`
	Solver        string  `json:"solver,omitempty"`
	Unknowns      int     `json:"unknowns,omitempty"`
	Operator      string  `json:"operator,omitempty"`       // the multiply's path: sparse.CSR.Kernel
	Precond       string  `json:"preconditioner,omitempty"` // "ic0/" + its factor's layout: precond.IC0.Kernel
	Scheme        string  `json:"scheme,omitempty"`
	Async         bool    `json:"async"`
	Shards        int     `json:"shards,omitempty"`
	ErrorBound    float64 `json:"error_bound,omitempty"`
	Adaptive      bool    `json:"adaptive,omitempty"`
	Interval      int     `json:"interval,omitempty"` // the fixed checkpoint cadence, in solver iterations
	Iterations    int     `json:"iterations,omitempty"`
	Converged     bool    `json:"converged"`
	FinalResidual float64 `json:"final_residual,omitempty"`
	WallSeconds   float64 `json:"wall_seconds,omitempty"`
	Injected      string  `json:"injected,omitempty"`
	// Exit is "ok" for a clean run, or a short description of the
	// error/injection path the run ended on — the report is emitted
	// on every exit path, not only success.
	Exit string `json:"exit,omitempty"`
	// The paper's ledger of a converged run that saw failures:
	// Iterations = FailureFreeIterations (N, the same system solved with
	// nothing failing) + ReplayedIterations (steps re-executed after
	// rollbacks) + ExtraIterations (N′, Eq. 8's extra iterations to
	// converge; negative when a restart sped convergence up). A zero
	// term is omitted, as are all three on any other run.
	FailureFreeIterations int `json:"failure_free_iterations,omitempty"`
	ReplayedIterations    int `json:"replayed_iterations,omitempty"`
	ExtraIterations       int `json:"extra_iterations,omitempty"`
}

// RecoveryEntry is one recovery of the run, in failure order: the
// solver's iteration counter when the failure struck, the tier that
// recovered it, the checkpoint it adopted (AdoptedSeq 0 for the ABFT
// and restart-zero tiers) and the iteration it rolled back to.
type RecoveryEntry struct {
	FailureIteration    int    `json:"failure_iteration"`
	Tier                string `json:"tier"`
	AdoptedSeq          int    `json:"adopted_seq,omitempty"`
	CheckpointIteration int    `json:"checkpoint_iteration"`
	// Distortion is the audited distortion of the adopted checkpoint,
	// when that save was sampled (nil for ABFT/zero-restart tiers and
	// unsampled checkpoints).
	Distortion *Distortion `json:"distortion,omitempty"`
}

// CostLine is one phase of the run's cost table (the text table
// cmd/solve prints is rendered from these).
type CostLine struct {
	Phase           string  `json:"phase"`
	ModeledSeconds  float64 `json:"modeled_seconds,omitempty"`
	MeasuredSeconds float64 `json:"measured_seconds,omitempty"`
	Count           int     `json:"count,omitempty"`
}

// StabilityVerdict classifies the run's lossy checkpoints against
// the inline-compression stability region: a checkpoint is inside
// when its requested relative error bound does not exceed
// StabilityC·(residual at save)/‖b‖.
type StabilityVerdict struct {
	Defined            bool   `json:"defined"`
	Inside             bool   `json:"inside"`
	Region             string `json:"region"`
	CheckpointsInside  int    `json:"checkpoints_inside"`
	CheckpointsOutside int    `json:"checkpoints_outside"`
	// WorstMargin is the minimum over audited lossy checkpoints of
	// (threshold − bound)/threshold; negative means some checkpoint
	// exceeded the region.
	WorstMargin float64 `json:"worst_margin"`
	StabilityC  float64 `json:"stability_c"`
	BNorm       float64 `json:"bnorm,omitempty"`
}

// RunReport is the structured, versioned artifact unifying the cost
// table, metrics snapshot, per-checkpoint quality records, the run's
// recoveries, and the stability verdict. cmd/solve writes it with
// -report-out.
type RunReport struct {
	Schema             string           `json:"schema"`
	GeneratedAtUnix    int64            `json:"generated_at_unix,omitempty"`
	Run                RunInfo          `json:"run"`
	Cost               []CostLine       `json:"cost,omitempty"`
	Checkpoints        []Record         `json:"checkpoints,omitempty"`
	CheckpointsDropped int              `json:"checkpoints_dropped,omitempty"`
	Recoveries         []RecoveryEntry  `json:"recoveries,omitempty"`
	Stability          StabilityVerdict `json:"stability"`
	Metrics            obs.Snapshot     `json:"metrics"`
}

// Verdict computes the stability verdict over the audited records.
// Undefined (Defined=false) when BNorm is unknown or no lossy
// checkpoint was audited. Nil-safe.
func (a *Auditor) Verdict() StabilityVerdict {
	// Inside stays false until the run is actually classified: an
	// undefined verdict never claims stability.
	v := StabilityVerdict{Region: StabilityRegion}
	if a == nil {
		return v
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	v.StabilityC, v.BNorm = stabilityC, a.cfg.BNorm
	if v.BNorm <= 0 {
		return v
	}
	first := true
	for i := range a.records {
		rec := &a.records[i]
		if !rec.Lossy || rec.RequestedBound <= 0 || rec.ResidualAtSave <= 0 {
			continue
		}
		threshold := v.StabilityC * rec.ResidualAtSave / v.BNorm
		rel := rec.RequestedBound
		if !rec.Relative {
			if rec.PeakValue <= 0 {
				continue
			}
			rel = rec.RequestedBound / rec.PeakValue
		}
		margin := (threshold - rel) / threshold
		if rel <= threshold {
			v.CheckpointsInside++
		} else {
			v.CheckpointsOutside++
		}
		if first || margin < v.WorstMargin {
			v.WorstMargin = margin
			first = false
		}
	}
	v.Defined = v.CheckpointsInside+v.CheckpointsOutside > 0
	v.Inside = v.Defined && v.CheckpointsOutside == 0
	return v
}

// Fill populates the quality-owned sections of a report: records and
// the stability verdict. Nil-safe — a nil auditor fills an (empty)
// verdict only.
func (a *Auditor) Fill(rep *RunReport) {
	if rep == nil {
		return
	}
	rep.Schema = ReportSchema
	rep.Stability = a.Verdict()
	if a == nil {
		return
	}
	rep.Checkpoints = a.Records()
	rep.CheckpointsDropped = a.Dropped()
}

// WriteJSON writes the report as indented JSON.
func (r *RunReport) WriteJSON(w io.Writer) error {
	if r.Schema == "" {
		r.Schema = ReportSchema
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
