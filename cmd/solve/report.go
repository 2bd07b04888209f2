package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/fti"
	"repro/internal/obs"
	"repro/internal/quality"
)

// reporter emits the end-of-run cost table, metrics summary, quality
// digest, and observability artifacts — all assembled from ONE
// quality.RunReport, so the text output and the -report-out file
// always agree. run creates it before anything can fail and defers
// emit, so rejected flags, setup errors, -scheme none and injected runs
// report the same way the happy path does. It also owns the registry +
// tracer pair behind the end-of-run artifacts; both stay nil (every
// hook in every instrumented layer a no-op) unless asked for.
type reporter struct {
	o   options
	reg *obs.Registry
	tr  *obs.Tracer

	// Filled in as run builds them; nil until then (and for good under
	// -scheme none, which checkpoints nothing).
	mgr             *core.Manager
	cm              *costModel
	qa              *quality.Auditor
	recoveries      []quality.RecoveryEntry
	measuredRestart float64

	start   time.Time
	runInfo quality.RunInfo
}

func newReporter(o options) *reporter {
	r := &reporter{o: o, measuredRestart: math.NaN(), start: time.Now()}
	r.runInfo = quality.RunInfo{
		Command:    o.args,
		Solver:     o.method,
		Scheme:     o.scheme,
		Async:      o.async,
		Shards:     o.shards,
		ErrorBound: o.eb,
		Adaptive:   o.adaptive,
		Injected:   o.inject,
	}
	if o.metricsOut != "" || o.traceOut != "" || o.quality {
		r.reg, r.tr = obs.New(), obs.NewTracer()
	}
	return r
}

// emit runs once, deferred by run: it assembles the versioned run
// report (run info, cost lines, quality sections, metrics snapshot),
// prints its digests and writes the artifacts.
func (r *reporter) emit() {
	var cost []quality.CostLine
	if r.mgr != nil && r.cm != nil {
		// Drain any in-flight async save first so LastInfo and the
		// registry describe the run's final state (no-op when sync).
		info, _ := r.mgr.WaitCheckpoint()
		cost = r.cm.printBreakdown(info, r.measuredRestart)
	}
	ri := r.runInfo
	if ri.Exit == "" {
		ri.Exit = "ok"
	}
	ri.WallSeconds = time.Since(r.start).Seconds()
	rep := &quality.RunReport{Run: ri, Cost: cost, GeneratedAtUnix: time.Now().Unix()}
	r.qa.Fill(rep)
	rep.Recoveries = r.recoveries
	if r.reg != nil {
		rep.Metrics = r.reg.Snapshot()
	}
	r.printMetricsSummary(rep.Metrics)
	r.printQualitySummary(rep)
	r.writeArtifacts(rep)
}

// printQualitySummary digests the quality sections of the report:
// audited saves, bound violations, the recoveries with the distortion
// of what each adopted, and the stability verdict.
func (r *reporter) printQualitySummary(rep *quality.RunReport) {
	if r.qa == nil {
		return
	}
	viol, worst := 0, 0.0
	for i := range rep.Checkpoints {
		rec := &rep.Checkpoints[i]
		if rec.Violated {
			viol++
		}
		if rec.BoundRatio > worst {
			worst = rec.BoundRatio
		}
	}
	fmt.Printf("quality: %d audited vector saves, %d bound violations, worst observed/requested %.3g\n",
		len(rep.Checkpoints), viol, worst)
	for _, e := range rep.Recoveries {
		dist := ""
		if e.Distortion != nil {
			dist = fmt.Sprintf(", adopted max-err %.3g", e.Distortion.MaxError)
		}
		fmt.Printf("  recovery@%-6d via %-18s (ckpt iter %d%s)\n",
			e.FailureIteration, e.Tier, e.CheckpointIteration, dist)
	}
	if v := rep.Stability; v.Defined {
		state := "INSIDE"
		if !v.Inside {
			state = "OUTSIDE"
		}
		fmt.Printf("stability (%s): %s — %d/%d audited lossy checkpoints within c·‖r‖/‖b‖, worst margin %.3g\n",
			v.Region, state, v.CheckpointsInside, v.CheckpointsInside+v.CheckpointsOutside, v.WorstMargin)
	}
}

// recoveries lists the run's recoveries in failure order, each tagged
// with the audited distortion of the checkpoint it adopted (a recovery
// chain always ends on the attempt that recovered, and only a
// checkpoint attempt carries a sequence number).
func recoveries(out *core.Outcome, qa *quality.Auditor) []quality.RecoveryEntry {
	rows := make([]quality.RecoveryEntry, len(out.RecoveryReports))
	for i, rep := range out.RecoveryReports {
		seq := rep.Attempts[len(rep.Attempts)-1].Seq
		rows[i] = quality.RecoveryEntry{
			FailureIteration:    out.FailureEvents[i].SolverIteration,
			Tier:                rep.Used.String(),
			AdoptedSeq:          seq,
			CheckpointIteration: rep.Iteration,
			Distortion:          qa.DistortionFor(seq),
		}
	}
	return rows
}

// printMetricsSummary renders the non-zero counters, gauges, and
// histogram aggregates from the report's snapshot — a digest of what
// -metrics-out exposes in full.
func (r *reporter) printMetricsSummary(snap obs.Snapshot) {
	printed := false
	for i := range snap.Metrics {
		md := &snap.Metrics[i]
		var line string
		switch {
		case md.Type == "histogram" && md.Count > 0:
			line = fmt.Sprintf("  %-52s count=%-6d mean=%-10.4g p99=%.4g",
				md.Name, md.Count, md.Sum/float64(md.Count), md.Quantile(0.99))
		case md.Type != "histogram" && md.Value != 0:
			line = fmt.Sprintf("  %-52s %g", md.Name, md.Value)
		default:
			continue // zero-valued: present in the snapshot, noise here
		}
		if !printed {
			fmt.Printf("metrics summary (non-zero; full snapshot via -metrics-out):\n")
			printed = true
		}
		fmt.Println(line)
	}
}

func (r *reporter) writeArtifacts(rep *quality.RunReport) {
	write := func(path, what string, emit func(io.Writer) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err == nil {
			err = emit(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "solve: writing %s: %v\n", what, err)
			return
		}
		fmt.Printf("%s written to %s\n", what, path)
	}
	if r.reg != nil {
		write(r.o.metricsOut, "metrics snapshot", r.reg.WriteJSON)
		write(r.o.traceOut, "chrome trace", r.tr.WriteChrome)
	}
	write(r.o.reportOut, "run report", rep.WriteJSON)
}

// printBreakdown renders the per-phase checkpoint/restart cost table:
// what the in-process run measured (fti.Info stage timings and the
// mean checkpoint recovery) beside, for encode, write and restart, the
// cluster model's price at the paper's scale and the save's measured
// ratio. The two columns are different machines by design — the point
// is seeing each phase's model beside a real measurement of the same
// code path. The same rows come back as structured cost lines for the
// run report (NaN "not measured" sentinels become 0, which omitempty
// drops — NaN is not valid JSON).
func (c *costModel) printBreakdown(info fti.Info, measuredRestart float64) []quality.CostLine {
	if info.Bytes == 0 {
		return nil // no checkpoint was ever committed; nothing to break down
	}
	_, raw := c.bytes(info)
	modEncode, modWrite := c.checkpoint(info)
	modRestart := c.recovery(info)
	ms := func(s float64) string {
		if math.IsNaN(s) {
			return "      -"
		}
		return fmt.Sprintf("%10.4g", 1e3*s)
	}
	measCapture, captureNote := info.CaptureSeconds, ""
	if measCapture == 0 {
		measCapture, captureNote = math.NaN(), "   (in-process sync capture happens inside the save)"
	}
	fmt.Printf("per-checkpoint phase costs — modeled at %d ranks vs measured in-process (ms):\n", ranks)
	fmt.Printf("  %-8s %12s %12s\n", "phase", "modeled", "measured")
	fmt.Printf("  %-8s %12s %12s%s\n", "capture", ms(math.NaN()), ms(measCapture), captureNote)
	fmt.Printf("  %-8s %12s %12s\n", "encode", ms(modEncode), ms(info.EncodeSeconds))
	if c.scheme != core.Traditional && info.EncodeSeconds > 0 {
		// Measured per-codec encode throughput beside the model's
		// per-core rate: the in-process figure is this machine's cores
		// over every byte the save encoded, the modeled one is one Bebop
		// core.
		measMBs := float64(info.RawBytes) / info.EncodeSeconds / 1e6
		modMBs := raw / c.mdl.CompressSeconds(1, raw, c.scheme) / 1e6
		fmt.Printf("  %-8s %12.4g %12.4g   (encode MB/s, codec %s; modeled is per Bebop core)\n",
			"enc-MB/s", modMBs, measMBs, info.EncoderName)
	}
	fmt.Printf("  %-8s %12s %12s\n", "write", ms(modWrite), ms(info.WriteSeconds))
	fmt.Printf("  %-8s %12s %12s   (measured: mean checkpoint recovery)\n", "restart", ms(modRestart), ms(measuredRestart))
	fin := func(s float64) float64 {
		if math.IsNaN(s) {
			return 0
		}
		return s
	}
	return []quality.CostLine{
		{Phase: "capture", MeasuredSeconds: fin(measCapture)},
		{Phase: "encode", ModeledSeconds: modEncode, MeasuredSeconds: info.EncodeSeconds},
		{Phase: "write", ModeledSeconds: modWrite, MeasuredSeconds: info.WriteSeconds},
		{Phase: "restart", ModeledSeconds: modRestart, MeasuredSeconds: fin(measuredRestart)},
	}
}
