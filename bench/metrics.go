package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/model"
)

// metricDef is one row of the benchmark's contract. BENCHMARK.json
// repeats these tables; bench_test.go holds the two together.
type metricDef struct {
	name, unit string
	bound      float64 // end-to-end only: share of the parent's median it may worsen by
}

// End-to-end metrics, from the untraced pass. Lower is better for all.
// Timings are read at steadyQ; the text report adds the sample count,
// the median and the highest percentile with ten samples beyond it.
var endToEnd = []metricDef{
	{"tts_s", "s", 0.25},           // per solve, first Step to converged and drained, every operation at its steady cost
	{"setup_s", "s", 0.25},         // steady cost over reps: matrix, RHS, preconditioner, solver, dir, Fsck, Resilient, Manager
	{"iters_total", "steps", 0.15}, // mean Step calls per solve: productive + replayed + N'
	{"ckpt_stall_ms", "ms", 0.25},  // steady solver-visible Manager.Checkpoint, pooled over reps (the paper's C)
	{"recovery_ms", "ms", 0.25},    // steady solver-visible RecoverTiered that restored a checkpoint (the paper's R)
	{"ckpt_bytes", "bytes", 0.10},  // mean stored bytes per committed checkpoint
	{"peak_rss_mb", "MB", 0.25},    // VmHWM of the process at exit
}

// Per-layer metrics, from the traced pass. Times and counts are per
// solve (mean over the run's reps) unless the name says otherwise.
var perLayer = []metricDef{
	{name: "sparse.spmv_s", unit: "s"},
	{name: "sparse.spmv_calls", unit: "count"},
	{name: "sparse.spmv_gbps_computed", unit: "GB/s"},
	{name: "vec.reduce_s", unit: "s"},
	{name: "vec.reduce_calls", unit: "count"},
	{name: "precond.apply_s", unit: "s"},
	{name: "precond.apply_calls", unit: "count"},
	{name: "precond.setup_s", unit: "s"},
	{name: "solver.step_s", unit: "s"},
	{name: "solver.other_s", unit: "s"},
	{name: "solver.steps", unit: "steps"},
	{name: "solver.baseline_s", unit: "s"},
	{name: "solver.baseline_iters", unit: "steps"},
	{name: "solver.baseline_1p_s", unit: "s"},
	{name: "parallel.speedup", unit: "ratio"},
	{name: "fti.capture_s", unit: "s"},
	{name: "fti.encode_s", unit: "s"},
	{name: "fti.write_s", unit: "s"},
	{name: "fti.encode_mbps", unit: "MB/s"},
	{name: "fti.ratio", unit: "ratio"},
	{name: "fti.saves", unit: "count"},
	{name: "fti.failed_saves", unit: "count"},
	{name: "fti.backpressure_s", unit: "s"},
	{name: "fti.background_s", unit: "s"},
	{name: "fti.drain_s", unit: "s"},
	{name: "storage.write_s", unit: "s"},
	{name: "storage.write_calls", unit: "count"},
	{name: "storage.write_bytes", unit: "bytes"},
	{name: "storage.write_mbps", unit: "MB/s"},
	{name: "storage.read_s", unit: "s"},
	{name: "storage.read_calls", unit: "count"},
	{name: "storage.read_bytes", unit: "bytes"},
	{name: "storage.list_calls", unit: "count"},
	{name: "storage.delete_calls", unit: "count"},
	{name: "shard.objects_per_save", unit: "count"},
	{name: "shard.write_ms", unit: "ms"},
	{name: "shard.mono_write_ms", unit: "ms"},
	{name: "shard.fanout_speedup", unit: "ratio"},
	{name: "core.ckpt_stall_s", unit: "s"},
	{name: "core.ckpt_stall_tail_ms", unit: "ms"},
	{name: "core.ckpt_calls", unit: "count"},
	{name: "core.recover_s", unit: "s"},
	{name: "core.recoveries", unit: "count"},
	{name: "core.recover_read_bytes", unit: "bytes"},
	{name: "core.recover_decode_restart_s", unit: "s"},
	{name: "core.tier_restart_zero", unit: "count"},
	{name: "core.replayed_iters", unit: "steps"},
	{name: "core.extra_iters", unit: "steps"},
	{name: "ledger.compute_s", unit: "s"},
	{name: "ledger.ckpt_s", unit: "s"},
	{name: "ledger.recover_s", unit: "s"},
	{name: "ledger.drain_s", unit: "s"},
	{name: "ledger.harness_s", unit: "s"},
	{name: "ledger.sum_over_wall", unit: "ratio"},
	{name: "model.tts_pred_s", unit: "s"},
	{name: "model.tts_rel_err", unit: "ratio"},
	{name: "model.young_interval_iters", unit: "steps"},
	{name: "harness.trace_overhead", unit: "ratio"},
}

// quantile returns the q-quantile of d (nearest rank below), 0 for no
// samples.
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(q*float64(len(s)-1))]
}

func median(d []time.Duration) time.Duration { return quantile(d, 0.5) }

func mean(d []time.Duration) time.Duration {
	var s time.Duration
	for _, v := range d {
		s += v
	}
	return s / time.Duration(max(1, len(d)))
}

// tail returns the highest percentile of d that still has ten samples
// beyond it, and which percentile that is; with fewer than twenty
// samples it reports the median.
func tail(d []time.Duration) (time.Duration, float64) {
	n := len(d)
	if n < 20 {
		return median(d), 50
	}
	return quantile(d, float64(n-11)/float64(n-1)), 100 * float64(n-10) / float64(n)
}

// steadyQ is the quantile the end-to-end timings are read at: the
// lower decile. The sandbox's vCPUs slow down by 20% to 250% for
// seconds to minutes at a time, and the driver rejects a benchmark
// whose metrics spread across ten runs by more than their bound. Over
// eight consecutive jacobi runs in such a spell the stopwatch mean
// ranged 3.0–7.1 s, the median-based figure 2.5–7.9 s, the lower
// quartile 2.1–3.4 s and the lower decile 1.9–2.8 s (2.0 s when
// quiet). Every operation the harness times runs hundreds of times
// per run with the same work, so the lower decile of its durations is
// what the operation costs when the machine is not being slowed, and
// that is what a change to the program moves.
const steadyQ = 0.10

func steady(d []time.Duration) time.Duration { return quantile(d, steadyQ) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, and 0 where the layer did no work on this workload.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pooled gathers one kind of operation's durations from every rep.
func pooled(reps []*repResult, op int) []time.Duration {
	var all []time.Duration
	for _, r := range reps {
		all = append(all, r.ops[op]...)
	}
	return all
}

// steadyTTS is time-to-solution per solve with every operation at its
// steady cost: for each kind of operation, and for steps each position
// in the Krylov cycle, the number of times it ran times the steady
// quantile of its durations, plus the harness's own time as measured.
// One solve at a time from one goroutine means nothing overlaps, so
// the stopwatch time is exactly this sum with the raw durations (the
// traced pass asserts that); only the durations are replaced.
func steadyTTS(reps []*repResult) time.Duration {
	var total time.Duration
	for op := 0; op < nOp; op++ {
		d := pooled(reps, op)
		total += time.Duration(len(d)) * steady(d)
	}
	for pos := range reps[0].stepsByPos {
		var d []time.Duration
		for _, r := range reps {
			d = append(d, r.stepsByPos[pos]...)
		}
		total += time.Duration(len(d)) * steady(d)
	}
	for _, r := range reps {
		total += r.lg.cat[catHarness]
	}
	return total / time.Duration(len(reps))
}

func setupsOf(reps []*repResult) []time.Duration {
	var d []time.Duration
	for _, r := range reps {
		d = append(d, r.setup)
	}
	return d
}

// endToEndMetrics reduces an untraced run's reps to the contract's
// end-to-end metrics.
func endToEndMetrics(reps []*repResult, peakRSSMB float64) map[string]float64 {
	var steps, bytes, saves int
	for _, r := range reps {
		steps += r.steps
		for _, info := range r.infos {
			bytes += info.Bytes
			saves++
		}
	}
	return map[string]float64{
		"tts_s":         steadyTTS(reps).Seconds(),
		"setup_s":       steady(setupsOf(reps)).Seconds(),
		"iters_total":   ratio(float64(steps), float64(len(reps))),
		"ckpt_stall_ms": ms(steady(pooled(reps, opStall))),
		"recovery_ms":   ms(steady(pooled(reps, opRecover))),
		"ckpt_bytes":    ratio(float64(bytes), float64(saves)),
		"peak_rss_mb":   peakRSSMB,
	}
}

// traceExtras are the traced pass's measurements outside the reps.
type traceExtras struct {
	baseline      *repResult    // fault-free solve at default GOMAXPROCS
	baseline1p    time.Duration // the same solve in a GOMAXPROCS=1 child
	monoWrite     time.Duration // mean monolithic write of the same state; 0 unless sharded
	twins         []*repResult  // untraced runs of the first reps' schedules
	spmvBytesCall int           // computed bytes one SpMV moves
}

// perLayerMetrics reduces a traced run's reps to the per-layer
// metrics: per-solve means of what the decorators, the Manager's own
// reports and the ledger saw.
func perLayerMetrics(w workload, reps []*repResult, x traceExtras) map[string]float64 {
	n := float64(len(reps))
	var (
		lg                                    ledger
		lc                                    layerClock
		writes, reads                         opCount
		lists, deletes, steps, ckptCalls      int
		replayed, readBytes                   int
		saves, raw, stored, failedSaves       int
		tts, precondSetup                     time.Duration
		capture, encode, write                float64
		backpressure, background, asyncFailed float64
	)
	for _, r := range reps {
		for c := range lg.cat {
			lg.cat[c] += r.lg.cat[c]
		}
		lc.add(r.layers)
		writes.add(r.writes)
		reads.add(r.reads)
		lists += r.lists
		deletes += r.deletes
		steps += r.steps
		ckptCalls += r.ckptCalls
		replayed += r.replayed
		readBytes += r.readBytes
		tts += r.tts
		precondSetup += r.precondSetup
		for _, info := range r.infos {
			saves++
			raw += info.RawBytes
			stored += info.Bytes
			capture += info.CaptureSeconds
			encode += info.EncodeSeconds
			write += info.WriteSeconds
		}
		backpressure += r.async.BackpressureSeconds
		background += r.async.EncodeWriteSeconds
		asyncFailed += float64(r.async.FailedSaves)
	}
	failedSaves = ckptCalls - saves
	if w.cfg.Async {
		failedSaves = int(asyncFailed)
	} else {
		// A synchronous save captures in the caller, so Info carries no
		// capture time: it is what the stall spent outside encode and write.
		capture = lg.cat[catCkpt].Seconds() - encode - write
	}

	stalls, restartZero := pooled(reps, opStall), len(pooled(reps, opRestartZero))
	recoveries := len(pooled(reps, opRecover)) + restartZero
	stallTail, _ := tail(stalls)
	step := lg.cat[catCompute].Seconds()
	baseIters := float64(x.baseline.steps)
	baseline := steadyTTS([]*repResult{x.baseline}) // as the GOMAXPROCS=1 child reports its own
	extra := float64(steps-len(reps)*x.baseline.steps-replayed) / n

	// The paper's model (Eq. 2) fed what the stopwatch saw: iteration
	// time, C, R, the failure rate per wall second and the realised N'.
	tit := ratio(step, float64(steps))
	c := ratio(lg.cat[catCkpt].Seconds(), float64(len(stalls)))
	rc := ratio(lg.cat[catRecover].Seconds(), float64(recoveries))
	lambda := ratio(float64(recoveries), tts.Seconds())
	pred := model.ExpectedTotalTime(baseIters+extra, tit, lambda, c, rc)

	writeMS := 1e3 * ratio(write, float64(saves))
	monoMS, fanout := writeMS, 1.0
	if x.monoWrite > 0 {
		monoMS = ms(x.monoWrite)
		fanout = ratio(monoMS, writeMS)
	}

	return map[string]float64{
		"sparse.spmv_s":             lc.spmv.Seconds() / n,
		"sparse.spmv_calls":         float64(lc.spmvCalls) / n,
		"sparse.spmv_gbps_computed": ratio(float64(lc.spmvCalls)*float64(x.spmvBytesCall)/1e9, lc.spmv.Seconds()),
		"vec.reduce_s":              lc.reduce.Seconds() / n,
		"vec.reduce_calls":          float64(lc.reduceCalls) / n,
		"precond.apply_s":           lc.precond.Seconds() / n,
		"precond.apply_calls":       float64(lc.precondCalls) / n,
		"precond.setup_s":           precondSetup.Seconds() / n,
		"solver.step_s":             step / n,
		"solver.other_s":            (step - lc.spmv.Seconds() - lc.reduce.Seconds() - lc.precond.Seconds()) / n,
		"solver.steps":              float64(steps) / n,
		"solver.baseline_s":         baseline.Seconds(),
		"solver.baseline_iters":     baseIters,
		"solver.baseline_1p_s":      x.baseline1p.Seconds(),
		"parallel.speedup":          ratio(x.baseline1p.Seconds(), baseline.Seconds()),

		"fti.capture_s":      capture / n,
		"fti.encode_s":       encode / n,
		"fti.write_s":        write / n,
		"fti.encode_mbps":    ratio(float64(raw)/1e6, encode),
		"fti.ratio":          ratio(float64(raw), float64(stored)),
		"fti.saves":          float64(saves) / n,
		"fti.failed_saves":   float64(failedSaves) / n,
		"fti.backpressure_s": backpressure / n,
		"fti.background_s":   background / n,
		"fti.drain_s":        lg.cat[catDrain].Seconds() / n,

		"storage.write_s":      writes.busy.Seconds() / n,
		"storage.write_calls":  float64(writes.calls) / n,
		"storage.write_bytes":  float64(writes.bytes) / n,
		"storage.write_mbps":   ratio(float64(writes.bytes)/1e6, writes.busy.Seconds()),
		"storage.read_s":       reads.busy.Seconds() / n,
		"storage.read_calls":   float64(reads.calls) / n,
		"storage.read_bytes":   float64(reads.bytes) / n,
		"storage.list_calls":   float64(lists) / n,
		"storage.delete_calls": float64(deletes) / n,

		"shard.objects_per_save": ratio(float64(writes.calls), float64(saves)),
		"shard.write_ms":         writeMS,
		"shard.mono_write_ms":    monoMS,
		"shard.fanout_speedup":   fanout,

		"core.ckpt_stall_s":             lg.cat[catCkpt].Seconds() / n,
		"core.ckpt_stall_tail_ms":       ms(stallTail),
		"core.ckpt_calls":               float64(ckptCalls) / n,
		"core.recover_s":                lg.cat[catRecover].Seconds() / n,
		"core.recoveries":               float64(recoveries) / n,
		"core.recover_read_bytes":       float64(readBytes) / n,
		"core.recover_decode_restart_s": (lg.cat[catRecover] - reads.busy).Seconds() / n,
		"core.tier_restart_zero":        float64(restartZero) / n,
		"core.replayed_iters":           float64(replayed) / n,
		"core.extra_iters":              extra,

		"ledger.compute_s":     step / n,
		"ledger.ckpt_s":        lg.cat[catCkpt].Seconds() / n,
		"ledger.recover_s":     lg.cat[catRecover].Seconds() / n,
		"ledger.drain_s":       lg.cat[catDrain].Seconds() / n,
		"ledger.harness_s":     lg.cat[catHarness].Seconds() / n,
		"ledger.sum_over_wall": ratio(lg.sum().Seconds(), tts.Seconds()),

		"model.tts_pred_s":           finite(pred),
		"model.tts_rel_err":          finite(ratio(pred-tts.Seconds()/n, tts.Seconds()/n)),
		"model.young_interval_iters": ratio(model.YoungInterval(ratio(1, lambda), c), tit),

		"harness.trace_overhead": ratio(steadyTTS(reps[:len(x.twins)]).Seconds(), steadyTTS(x.twins).Seconds()),
	}
}

// finite maps the model's "never finishes" (+Inf) to 0: JSON has no
// infinity, and 0 is not a time the model can otherwise predict.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return v
}
