// Command bench measures wall-clock time-to-solution of the repo's
// iterative solvers under a seeded failure schedule, driving the real
// loop from outside: solver.RunToConvergence with
// core.Manager.Checkpoint and RecoverTiered over
// fti.Resilient(fti.DirStorage), real fsync, no virtual clock.
//
// One invocation is one workload and one pass: -trace 0 prints the
// end-to-end metrics, -trace 1 the per-layer ones, as the last line of
// standard output (see ../BENCHMARK.json and README.md). Without
// -workload it runs both passes of all four, each in a child process.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strings"
	"time"

	"repro/internal/core"
)

// baselineChildEnv, when set to "workload:grid:ckptdir", turns the process into
// the GOMAXPROCS=1 baseline child: one fault-free solve, result on
// standard output.
const baselineChildEnv = "BENCH_BASELINE_CHILD"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if spec := os.Getenv(baselineChildEnv); spec != "" {
		os.Exit(baselineChild(spec))
	}
	name := flag.String("workload", "", "workload to run; empty runs every workload, both passes")
	seed := flag.Int64("seed", 1, "seed of the failure schedules")
	seconds := flag.Float64("seconds", runSeconds, "measuring time to size the run for; reps scale with it")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, decorators off; 1: per-layer metrics, decorators on")
	ckptRoot := flag.String("ckptdir", ".bench_build/ckpt", "directory that holds the per-rep checkpoint directories")
	checkRepeat := flag.Bool("check-repeat", false, "run ten seeds of every workload twice and compare the two sets as the driver does")
	flag.Parse()

	var err error
	switch {
	case *checkRepeat:
		err = runCheckRepeat(*seconds, *ckptRoot)
	case *name == "":
		err = runAll(*seed, *seconds, *ckptRoot)
	default:
		err = runOne(*name, *seed, *seconds, *trace == 1, *ckptRoot)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errFailedOps makes the command exit non-zero after the result line
// has been printed.
var errFailedOps = errors.New("operations failed")

// runOne runs one pass of one workload in this process and prints the
// report and the result line.
func runOne(name string, seed int64, seconds float64, traced bool, ckptRoot string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	passStart := time.Now()
	printMachine(w, seed, w.repsFor(seconds), ckptRoot)

	reps, x, err := w.measure(ckptRoot, seed, seconds, traced)
	if err != nil {
		return err
	}
	var values map[string]float64
	defs := endToEnd
	if traced {
		values, defs = perLayerMetrics(w, reps, x), perLayer
	} else {
		values = endToEndMetrics(reps, peakRSSMB())
	}

	res := result{Metrics: map[string]metricValue{}}
	all := reps
	if traced {
		all = append(append([]*repResult{x.baseline}, x.twins...), reps...)
	}
	for _, r := range all {
		res.Attempted += r.attempted
		res.Failed += len(r.failures)
		for _, f := range r.failures {
			fmt.Printf("FAILED %s: %s\n", w.name, f)
		}
	}
	res.Correct = res.Failed == 0

	fmt.Printf("workload %s seed %d trace %v reps %d pass_wall_s %.3f\n", w.name, seed, traced, len(reps), time.Since(passStart).Seconds())
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value", d.name)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Printf("  %-32s %14.6g %s%s\n", d.name, v, d.unit, sampleNote(d.name, reps))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errFailedOps
	}
	return nil
}

// sampleNote is what the text report adds to a timing metric: the
// sample count, the median and the tail percentile, and for tts_s the
// stopwatch mean the steady figure stands beside.
func sampleNote(name string, reps []*repResult) string {
	var d []time.Duration
	switch name {
	case "tts_s":
		for _, r := range reps {
			d = append(d, r.tts)
		}
		return fmt.Sprintf("  (n=%d solves, stopwatch mean %.6g s)", len(d), mean(d).Seconds())
	case "setup_s":
		d = setupsOf(reps)
	case "ckpt_stall_ms":
		d = pooled(reps, opStall)
	case "recovery_ms":
		d = pooled(reps, opRecover)
	default:
		return ""
	}
	t, p := tail(d)
	return fmt.Sprintf("  (n=%d, median %.6g ms, p%.0f %.6g ms)", len(d), ms(median(d)), p, ms(t))
}

// repsFor scales the calibrated rep count with the measuring time.
func (w workload) repsFor(seconds float64) int {
	return max(1, int(math.Round(float64(w.reps)*seconds/runSeconds)))
}

// measure is one pass: an untimed warm-up, then the reps. The traced
// pass adds the fault-free baselines, untraced twins of the first reps
// (for the tracing overhead and the determinism check) and, for a
// sharded workload, the monolithic write of the same state.
func (w workload) measure(ckptRoot string, seed int64, seconds float64, traced bool) ([]*repResult, traceExtras, error) {
	var x traceExtras
	if err := w.warmUp(ckptRoot); err != nil {
		return nil, x, err
	}
	if traced {
		var err error
		if x.baseline, err = w.runRep(ckptRoot, nil, false); err != nil {
			return nil, x, err
		}
		if x.baseline1p, err = w.baseline1p(ckptRoot); err != nil {
			return nil, x, err
		}
		x.spmvBytesCall = 16*w.nnz() + 8*(w.unknowns()+1) + 2*8*w.unknowns() // values, column indices, row pointers, x once, dst
	}
	n := w.repsFor(seconds)
	twins := 0
	if traced {
		twins = max(1, n/4)
	}
	var reps []*repResult
	for i := 0; i < n; i++ {
		r, err := w.runRep(ckptRoot, &schedule{seed: seed, rep: i, reps: n, gap: w.gap}, traced)
		if err != nil {
			return nil, x, err
		}
		reps = append(reps, r)
		if traced && w.cfg.Scheme != core.Lossy {
			extra := r.steps - x.baseline.steps - r.replayed
			r.check(extra == 0, "rep %d: exact restore cost %d iterations beyond the replayed ones", i, extra)
		}
		if i < twins {
			t, err := w.runRep(ckptRoot, &schedule{seed: seed, rep: i, reps: n, gap: w.gap}, false)
			if err != nil {
				return nil, x, err
			}
			r.check(t.steps == r.steps && t.storedBytes() == r.storedBytes(),
				"rep %d: traced took %d steps and stored %d bytes, untraced %d and %d",
				i, r.steps, r.storedBytes(), t.steps, t.storedBytes())
			x.twins = append(x.twins, t)
		}
	}
	if traced && w.cfg.Shards > 1 {
		var err error
		if x.monoWrite, err = w.monolithicWrite(ckptRoot); err != nil {
			return nil, x, err
		}
	}
	return reps, x, nil
}

// warmUp fills pools and the page cache before the first timed rep:
// ten steps, one checkpoint and one restore on a throw-away system.
func (w workload) warmUp(ckptRoot string) error {
	sys, err := w.build(ckptRoot, false)
	if err != nil {
		return err
	}
	defer sys.close()
	for i := 0; i < 10; i++ {
		sys.slv.Step()
	}
	if _, err := sys.mgr.Checkpoint(); err != nil {
		return err
	}
	if _, err := sys.mgr.WaitCheckpoint(); err != nil {
		return err
	}
	_, err = sys.mgr.RecoverTiered(make([]float64, len(sys.b)))
	return err
}

// monolithicWrite saves the state of a ten-step solve five times
// through a Manager with sharding off and returns the mean write time:
// what the sharded workload's fan-out is compared against.
func (w workload) monolithicWrite(ckptRoot string) (time.Duration, error) {
	w.cfg.Shards, w.cfg.StorageWorkers = 0, 0
	sys, err := w.build(ckptRoot, false)
	if err != nil {
		return 0, err
	}
	defer sys.close()
	for i := 0; i < 10; i++ {
		sys.slv.Step()
	}
	const saves = 5
	var total float64
	for i := 0; i < saves; i++ {
		info, err := sys.mgr.Checkpoint()
		if err != nil {
			return 0, err
		}
		total += info.WriteSeconds
	}
	return time.Duration(total / saves * float64(time.Second)), nil
}

// baseline1p runs the fault-free solve in a child with GOMAXPROCS=1:
// the single-thread baseline parallel.speedup is measured against.
func (w workload) baseline1p(ckptRoot string) (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1", fmt.Sprintf("%s=%s:%d:%s", baselineChildEnv, w.name, w.grid, ckptRoot))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("GOMAXPROCS=1 baseline child: %w", err)
	}
	var ns int64
	if _, err := fmt.Sscan(string(out), &ns); err != nil {
		return 0, fmt.Errorf("GOMAXPROCS=1 baseline child printed %q: %w", out, err)
	}
	return time.Duration(ns), nil
}

// baselineChild is the child side of baseline1p.
func baselineChild(spec string) int {
	f := strings.SplitN(spec, ":", 3)
	if len(f) != 3 {
		fmt.Fprintf(os.Stderr, "bench baseline child: malformed %s=%q\n", baselineChildEnv, spec)
		return 1
	}
	w, err := findWorkload(f[0])
	if err == nil {
		_, err = fmt.Sscan(f[1], &w.grid)
	}
	var r *repResult
	if err == nil {
		r, err = w.runRep(f[2], nil, false)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench baseline child:", err)
		return 1
	}
	fmt.Println(int64(steadyTTS([]*repResult{r})))
	return 0
}
