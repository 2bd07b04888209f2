package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fti"
	"repro/internal/obs"
	"repro/internal/quality"
)

// reporter emits the end-of-run cost table, metrics summary, quality
// digest, and observability artifacts — all assembled
// from ONE quality.RunReport, so the text output, -report-out file,
// and /report endpoint always agree. run creates it before anything
// can fail and defers emit, so rejected flags, setup errors, -scheme
// none and injected runs report the same way the happy path does. It
// also owns the registry + tracer pair that backs the live endpoint and
// the end-of-run artifacts; both stay nil (every hook in every
// instrumented layer a no-op) unless asked for.
type reporter struct {
	o   options
	reg *obs.Registry
	tr  *obs.Tracer
	mu  sync.Mutex // guards runInfo and final

	// Filled in as run builds them; nil until then (and for good under
	// -scheme none, which checkpoints nothing).
	mgr             *core.Manager
	cm              *costModel
	qa              *quality.Auditor
	measuredRestart float64

	start   time.Time
	runInfo quality.RunInfo
	final   *quality.RunReport
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
	if o.debugAddr != "" || o.metricsOut != "" || o.traceOut != "" || o.quality {
		r.reg, r.tr = obs.New(), obs.NewTracer()
	}
	if o.debugAddr != "" {
		r.serveDebug(o.debugAddr)
	}
	return r
}

// serveDebug exposes the live registry, tracer and run report (plus
// pprof) on a background HTTP listener. Snapshots are taken per
// request, so hitting /metrics mid-run observes the solve without
// pausing it.
func (r *reporter) serveDebug(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.reg.WriteProm(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.tr.WriteChrome(w)
	})
	mux.HandleFunc("/report", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.snapshotReport().WriteJSON(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		if err := http.ListenAndServe(addr, mux); err != nil {
			fmt.Fprintln(os.Stderr, "solve: debug server:", err)
		}
	}()
	fmt.Printf("debug endpoint: http://%s/{metrics,trace,report,debug/pprof}\n", addr)
}

// update mutates the run-description fields under the reporter's lock
// (the /report handler reads them concurrently with the solve).
func (r *reporter) update(fn func(*quality.RunInfo)) {
	r.mu.Lock()
	fn(&r.runInfo)
	r.mu.Unlock()
}

// buildReport assembles the versioned run report from the current
// state: run info, cost lines, quality sections, metrics snapshot.
func (r *reporter) buildReport(cost []quality.CostLine) *quality.RunReport {
	r.mu.Lock()
	ri := r.runInfo
	r.mu.Unlock()
	if ri.Exit == "" {
		ri.Exit = "ok"
	}
	ri.WallSeconds = time.Since(r.start).Seconds()
	rep := &quality.RunReport{Run: ri, Cost: cost, GeneratedAtUnix: time.Now().Unix()}
	r.qa.Fill(rep)
	if r.reg != nil {
		rep.Metrics = r.reg.Snapshot()
	}
	return rep
}

// snapshotReport backs /report: the final report once emit has run,
// else a live view built on demand. The live view has no cost lines —
// those need the Manager's committed Info, which cannot be probed
// concurrently with the solver thread.
func (r *reporter) snapshotReport() *quality.RunReport {
	r.mu.Lock()
	final := r.final
	r.mu.Unlock()
	if final != nil {
		return final
	}
	rep := r.buildReport(nil)
	if rep.Run.Exit == "ok" {
		// The disposition is only known once emit runs; a mid-run
		// snapshot must not claim a clean exit.
		rep.Run.Exit = "running"
	}
	return rep
}

// emit runs once, deferred by run.
func (r *reporter) emit() {
	var cost []quality.CostLine
	if r.mgr != nil && r.cm != nil {
		// Drain any in-flight async save first so LastInfo and the
		// registry describe the run's final state (no-op when sync).
		info, _ := r.mgr.WaitCheckpoint()
		cost = r.cm.printBreakdown(info, r.measuredRestart)
	}
	rep := r.buildReport(cost)
	r.mu.Lock()
	r.final = rep
	r.mu.Unlock()
	r.printMetricsSummary(rep.Metrics)
	r.printQualitySummary(rep)
	r.writeArtifacts(rep)
}

// printQualitySummary digests the quality sections of the report:
// audited saves, bound violations, per-recovery convergence-delay
// attribution, and the stability verdict.
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
		delay := "unresolved (run ended before the failure-time residual was reacquired)"
		if e.Resolved {
			delay = fmt.Sprintf("realized N'=%d, residual reacquired in %d iterations",
				e.RealizedNPrime, e.ReacquireIterations)
		}
		dist := ""
		if e.Distortion != nil {
			dist = fmt.Sprintf(", adopted max-err %.3g", e.Distortion.MaxError)
		}
		fmt.Printf("  recovery@%-6d via %-18s (ckpt iter %d%s): %s\n",
			e.FailureIteration, e.Tier, e.CheckpointIteration, dist, delay)
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

// printMetricsSummary renders the non-zero counters, gauges, and
// histogram aggregates from the report's snapshot — a digest of what
// -metrics-out (or /metrics) exposes in full.
func (r *reporter) printMetricsSummary(snap obs.Snapshot) {
	printed := false
	for i := range snap.Metrics {
		md := &snap.Metrics[i]
		name := md.Name
		for _, l := range md.Labels {
			name += fmt.Sprintf("{%s=%q}", l.Key, l.Value)
		}
		var line string
		switch {
		case md.Type == "histogram" && md.Count > 0:
			line = fmt.Sprintf("  %-52s count=%-6d mean=%-10.4g p99=%.4g",
				name, md.Count, md.Sum/float64(md.Count), md.Quantile(0.99))
		case md.Type != "histogram" && md.Value != 0:
			line = fmt.Sprintf("  %-52s %g", name, md.Value)
		default:
			continue // zero-valued: present in the snapshot, noise here
		}
		if !printed {
			fmt.Printf("metrics summary (non-zero; full snapshot via -metrics-out or /metrics):\n")
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
// the cluster model's 2,048-rank prediction next to what the in-process
// run actually measured (fti.Info stage timings and the measured
// restart). The two columns are different machines by design — the
// point is seeing each phase's model beside a real measurement of the
// same code path. The same rows come back as structured cost lines for
// the run report (NaN "not measured" sentinels become 0, which
// omitempty drops — NaN is not valid JSON).
func (c *costModel) printBreakdown(info fti.Info, measuredRestart float64) []quality.CostLine {
	if info.Bytes == 0 {
		return nil // no checkpoint was ever committed; nothing to break down
	}
	modCapture := c.mdl.CaptureSeconds(2048, c.raw)
	// The stage helpers share the fused cost model's terms, so the
	// per-phase rows always sum to the cost the run was priced with: the
	// codec-aware encode rate is pinned to the scheme-level calibration
	// for the schemes' default codecs (sz, gzip) and falls back to it for
	// codecs without a CodecRates entry.
	modEncode := c.mdl.CodecCompressSeconds(2048, c.raw, info.EncoderName, c.scheme)
	modWrite := c.mdl.WriteStageSeconds(2048, float64(info.Bytes), max(info.Shards, 1), c.o.striped)
	modRestart := c.recovery(info)
	ms := func(s float64) string {
		if math.IsNaN(s) {
			return "      -"
		}
		return fmt.Sprintf("%10.4g", 1e3*s)
	}
	measCapture := math.NaN()
	if info.CaptureSeconds > 0 {
		measCapture = info.CaptureSeconds
	}
	fmt.Printf("per-checkpoint phase costs — modeled at 2048 ranks vs measured in-process (ms):\n")
	fmt.Printf("  %-8s %12s %12s\n", "phase", "modeled", "measured")
	fmt.Printf("  %-8s %12s %12s   (in-process sync capture happens inside the save)\n", "capture", ms(modCapture), ms(measCapture))
	fmt.Printf("  %-8s %12s %12s\n", "encode", ms(modEncode), ms(info.EncodeSeconds))
	if c.scheme != cluster.Uncompressed && info.EncodeSeconds > 0 {
		// Measured per-codec encode throughput beside the model's
		// per-core rate: the in-process figure is this machine's cores,
		// the modeled one is one Bebop core.
		measMBs := c.raw / info.EncodeSeconds / 1e6
		modMBs := c.raw / c.mdl.CodecCompressSeconds(1, c.raw, info.EncoderName, c.scheme) / 1e6
		fmt.Printf("  %-8s %12.4g %12.4g   (encode MB/s, codec %s; modeled is per Bebop core)\n",
			"enc-MB/s", modMBs, measMBs, info.EncoderName)
	}
	fmt.Printf("  %-8s %12s %12s\n", "write", ms(modWrite), ms(info.WriteSeconds))
	fmt.Printf("  %-8s %12s %12s   (measured only on simulated failure runs)\n", "restart", ms(modRestart), ms(measuredRestart))
	fin := func(s float64) float64 {
		if math.IsNaN(s) {
			return 0
		}
		return s
	}
	return []quality.CostLine{
		{Phase: "capture", ModeledSeconds: modCapture, MeasuredSeconds: fin(measCapture)},
		{Phase: "encode", ModeledSeconds: modEncode, MeasuredSeconds: info.EncodeSeconds},
		{Phase: "write", ModeledSeconds: modWrite, MeasuredSeconds: info.WriteSeconds},
		{Phase: "restart", ModeledSeconds: modRestart, MeasuredSeconds: fin(measuredRestart)},
	}
}
