package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fti"
)

// solve runs one invocation in-process and returns what it printed.
func solve(t *testing.T, args ...string) (string, error) {
	t.Helper()
	o, err := parseOptions(args)
	if err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	runErr := func() error {
		defer func() { os.Stdout = stdout }() // also when run panics
		return run(o)
	}()
	f.Close()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// TestRejectedCombinations: every combination of flags the run could
// not honour is refused by name — none is accepted and then ignored —
// and a refusal still leaves a run report behind.
func TestRejectedCombinations(t *testing.T) {
	for _, c := range []struct {
		args string
		want string // must appear in the error
	}{
		{"-adaptive -interval 5 -mtti 100", "-adaptive and -interval"},
		{"-inject proc@5 -mtti 100", "-inject and -mtti"},
		{"-recovery-tiers -scheme none", "-recovery-tiers needs a checkpoint scheme"},
		{"-recovery-tiers -method gmres", `not supported for method "gmres"`},
		{"-method gmres -inject abft+proc@5", `kind "abft"`},
		{"-inject abft@5", "needs -recovery-tiers"},
		{"-scheme none -mtti 100", "-mtti needs a checkpoint scheme"},
		{"-scheme none -inject proc@5", "-inject needs a checkpoint scheme"},
		{"-scheme none -adaptive", "-adaptive needs a checkpoint scheme"},
		{"-method bicg", `unknown method "bicg"`},
		{"-scheme zip", `unknown scheme "zip"`},
		{"-inject proc", "lacks '@iteration'"},
		{"-inject flood@3", `unknown injection kind "flood"`},
	} {
		report := filepath.Join(t.TempDir(), "report.json")
		_, err := solve(t, append(strings.Fields(c.args), "-grid", "6", "-report-out", report)...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("solve %s: error %v, want one naming %q", c.args, err, c.want)
			continue
		}
		if run := readReport(t, report)["run"].(map[string]any); !strings.Contains(run["exit"].(string), c.want) {
			t.Errorf("solve %s: report exit %q does not record the refusal", c.args, run["exit"])
		}
	}
}

// TestRejectedValues: a flag value the run could not honour is refused
// by flag name before anything is built — not a panic out of the
// matrix generator, not a silent default, not a truncation — and the
// refusal still leaves a run report behind.
func TestRejectedValues(t *testing.T) {
	for _, args := range []string{
		"-grid 0",
		"-grid -3",
		"-eb 0",
		"-eb -1e-4",
		"-interval -5 -mtti 100",
		"-interval 7.9 -inject proc@30",
		"-interval 7.9 -mtti 100",
		"-mtti -100",
		"-tit 0",
		"-tit -1",
		"-prior-mtti 0 -adaptive",
		"-maxiter -1",
		"-shards -2",
		"-storage-workers -3",
		"-storage-retries -1",
		"-storage-timeout -1s",
		"-scrub-interval -1s",
		"-storage-fault-rate -0.5",
		"-storage-fault-rate 2",
		"-quality-sample -3",
		"-quality-sample 0",
		// A value the run would not act on is refused too.
		"-prior-mtti 100",
		"-eb 0.5 -scheme traditional",
		"-storage-timeout 1s -storage-retries 0",
		"-storage-workers 3",
	} {
		flagName := strings.Fields(args)[0]
		report := filepath.Join(t.TempDir(), "report.json")
		err := func() (err error) {
			defer func() {
				if p := recover(); p != nil {
					err = fmt.Errorf("run panicked: %v", p)
				}
			}()
			_, err = solve(t, append(strings.Fields(args), "-report-out", report)...)
			return err
		}()
		if err == nil || !strings.HasPrefix(err.Error(), flagName+" ") {
			t.Errorf("solve %s: error %v, want a refusal naming %s", args, err, flagName)
			continue
		}
		if run := readReport(t, report)["run"].(map[string]any); !strings.HasPrefix(run["exit"].(string), "error: "+flagName+" ") {
			t.Errorf("solve %s: report exit %q does not record the refusal", args, run["exit"])
		}
	}
	// -report-out turns quality telemetry on, so the sampling cadence
	// without it is checked on its own.
	if _, err := solve(t, "-quality-sample", "2"); err == nil || !strings.HasPrefix(err.Error(), "-quality-sample ") {
		t.Errorf("solve -quality-sample 2: error %v, want a refusal naming -quality-sample", err)
	}
}

var (
	wallTime = regexp.MustCompile(`[0-9.e+-]+ ?ms`)
	residual = regexp.MustCompile(`[0-9]\.[0-9]+e-[0-9]+`)
)

// tierTable cuts the per-failure tier table out of a run's output and
// masks what the stopwatch and the last bits of a residual decide.
func tierTable(out string) []string {
	var table []string
	in := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "per-failure recovery tiers"):
			in = true
		case in && !strings.HasPrefix(line, "  "):
			return table
		case in:
			line = wallTime.ReplaceAllString(line, "T ms")
			table = append(table, residual.ReplaceAllString(line, "R"))
		}
	}
	return table
}

// TestInjectedTierTable pins the per-failure tier table of one seeded
// plan that walks every rung: an ABFT reconstruction, a chain that
// falls through a corrupted guard to restart-zero before any checkpoint
// exists, a latent manifest corruption, and a failure inside a save
// whose chain then rejects guard and corrupted checkpoint alike.
// (10³ CG converges in 13 steps at the default tolerance; 1e-14 keeps
// it running past the plan's last event.)
func TestInjectedTierTable(t *testing.T) {
	out, err := solve(t, "-method", "cg", "-grid", "10", "-scheme", "lossy", "-rtol", "1e-14",
		"-recovery-tiers", "-inject", "proc@10,abft+proc@20,manifest+proc@30,midckpt@40")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"  @10     proc                     recovered via abft",
		"    abft                 accepted   T ms wall — 28 local its, modeled 28s, 0 B read",
		"  @20     abft+proc                recovered via restart-zero",
		"    abft                 rejected: abft: retained state failed checksum verification T ms wall — 0 local its, modeled 0.014s, 0 B read",
		"    restart-zero         accepted   T ms wall — all progress lost, modeled 30.3s",
		"  @30     manifest+proc            recovered via abft",
		"    abft                 accepted   T ms wall — 28 local its, modeled 28s, 0 B read",
		"  @40     midckpt                  recovered via restart-zero",
		"    abft                 rejected: abft: verification failed: reconstructed residual R exceeds 4.0× retained R T ms wall — 0 local its, modeled 0.014s, 0 B read",
		"    checkpoint           rejected: CRC mismatch (corrupt checkpoint) T ms wall — seq 1, 2840 B read, modeled 47.7s",
		"    restart-zero         accepted   T ms wall — all progress lost, modeled 30.3s",
	}
	if got := tierTable(out); !reflect.DeepEqual(got, want) {
		t.Errorf("tier table:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for _, line := range []string{
		"converged=true iterations=61 ",
		"recovery tiers: abft=2 checkpoint-restart=0 restart-zero=2 pfs-read-bytes=2840",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("output lacks %q:\n%s", line, out)
		}
	}
}

// TestInjectedRunReportsItsRestart: an injected run timed every
// recovery, so its phase table and its report's restart cost line carry
// the mean of its accepted checkpoint recoveries — the per-failure
// table's wall times — and a run whose failures never reached a
// checkpoint still prints the dash and omits the measurement.
func TestInjectedRunReportsItsRestart(t *testing.T) {
	accepted := regexp.MustCompile(`checkpoint +accepted +([0-9.e+-]+) ms wall`)
	for _, c := range []struct {
		plan     string
		restores int
	}{{"proc@8,proc@16", 2}, {"proc@3", 0}} {
		out, rep := reportedRun(t, "-method cg -grid 10 -scheme traditional -rtol 1e-14 -interval 5 -inject "+c.plan)
		var walls []float64
		for _, m := range accepted.FindAllStringSubmatch(out, -1) {
			ms, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				t.Fatal(err)
			}
			walls = append(walls, ms)
		}
		if len(walls) != c.restores {
			t.Fatalf("-inject %s: want %d checkpoint recoveries, got %v:\n%s", c.plan, c.restores, walls, out)
		}
		var row map[string]any
		for _, line := range rep["cost"].([]any) {
			if line := line.(map[string]any); line["phase"] == "restart" {
				row = line
			}
		}
		measured, ok := row["measured_seconds"].(float64)
		dash := regexp.MustCompile(`(?m)^  restart +\S+ +- `).MatchString(out)
		if c.restores == 0 {
			if ok || !dash {
				t.Errorf("-inject %s restored no checkpoint, yet measured %v s:\n%s", c.plan, row["measured_seconds"], out)
			}
			continue
		}
		mean := 0.0
		for _, ms := range walls {
			mean += ms / float64(len(walls))
		}
		if !ok || dash || math.Abs(1e3*measured-mean) > 0.01*mean {
			t.Errorf("-inject %s: restart measured %v s, the tier table's accepted recoveries average %g ms:\n%s", c.plan, row["measured_seconds"], mean, out)
		}
	}
}

// TestInjectWithoutGuard: -inject no longer needs an ABFT guard, so
// GMRES — which has none — can be driven on the real clock, async
// pipeline included; without rung 0 the chain starts at the latest
// checkpoint.
func TestInjectWithoutGuard(t *testing.T) {
	out, err := solve(t, "-method", "gmres", "-scheme", "lossy", "-async", "-rtol", "1e-12",
		"-inject", "proc@40,midckpt@80")
	if err != nil {
		t.Fatal(err)
	}
	table := strings.Join(tierTable(out), "\n")
	for _, want := range []string{"@40     proc ", "@80     midckpt ", "recovered via checkpoint", "checkpoint           accepted"} {
		if !strings.Contains(table, want) {
			t.Errorf("tier table lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(table, "abft") {
		t.Errorf("a chain without a guard attempted the ABFT rung:\n%s", table)
	}
	if !strings.Contains(out, "converged=true") || !strings.Contains(out, "aborted-in-flight=1") {
		t.Errorf("want a converged run with the midckpt save aborted:\n%s", out)
	}
}

// TestFailureInsideASave: a midckpt or crash event opens a save at its
// iteration — whether or not the cadence had one due there anyway (30)
// — the save never commits, and recovery stands on the checkpoint
// committed before it (iteration 20, seq 2), on the synchronous path
// and through the real async pipeline alike. A crashed save has already
// failed by the time it would be aborted: aborting it again must not
// take its predecessor with it.
func TestFailureInsideASave(t *testing.T) {
	for _, kind := range []string{"midckpt", "crash"} {
		for _, at := range []string{"25", "30"} {
			for _, mode := range []string{"-async=false", "-async"} {
				event := kind + "@" + at
				t.Run(event+mode, func(t *testing.T) {
					out, err := solve(t, "-method", "jacobi", "-grid", "8", "-interval", "10", mode, "-inject", event)
					if err != nil {
						t.Fatalf("%v\n%s", err, out)
					}
					want := []string{
						"  @" + at + "     " + kind,
						"    checkpoint           accepted   T ms wall — seq 2,",
					}
					table := tierTable(out)
					for i, prefix := range want {
						if i >= len(table) || !strings.HasPrefix(table[i], prefix) {
							t.Fatalf("tier table %q, want lines beginning %q", table, want)
						}
					}
					if !strings.Contains(table[0], "recovered via checkpoint") || !strings.Contains(out, " failures=1 ") {
						t.Errorf("want one failure recovered from the checkpoint before it:\n%s", out)
					}
					if kind == "crash" && !strings.Contains(out, "crash@"+at+": store revived; fsck: 2 committed") {
						t.Errorf("want the crashed store revived with both earlier checkpoints intact:\n%s", out)
					}
				})
			}
		}
	}
}

func readReport(t *testing.T, path string) map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no run report: %v", err)
	}
	var rep map[string]any
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

func keys(m map[string]any) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TestRunReport pins the run report's key set and its run block for a
// simulated run, an injected one, an injected adaptive one (the flag
// used to be recorded and ignored) and -scheme none (which used to
// write no report at all).
func TestRunReport(t *testing.T) {
	full := []string{"checkpoints", "cost", "generated_at_unix", "metrics", "recoveries", "run", "schema", "stability"}
	for _, c := range []struct {
		name, args string
		keys       []string
		run        map[string]any // wall_seconds, command, final_residual and operator (the machine's) are checked for presence only, preconditioner against the operator
	}{
		{
			name: "simulated", args: "-method jacobi -grid 8 -scheme lossy -mtti 150 -interval 40 -seed 3",
			keys: full,
			run: map[string]any{"solver": "jacobi", "unknowns": 512.0, "scheme": "lossy", "async": false, "shards": 1.0,
				"error_bound": 1e-4, "interval": 40.0, "iterations": 297.0, "converged": true, "exit": "ok",
				"failure_free_iterations": 257.0, "replayed_iterations": 40.0}, // N′ = 0 is omitted
		},
		{
			name: "injected", args: "-method cg -grid 8 -scheme traditional -rtol 1e-12 -interval 6 -shards 2 -inject proc@9,shard+proc@14",
			keys: full,
			run: map[string]any{"solver": "cg", "unknowns": 512.0, "scheme": "traditional", "async": false, "shards": 2.0,
				"error_bound": 1e-4, "interval": 6.0, "iterations": 27.0, "converged": true,
				"injected": "proc@9,shard+proc@14", "exit": "ok",
				"failure_free_iterations": 16.0, "replayed_iterations": 11.0}, // N′ = 0 is omitted
		},
		{
			name: "injected-adaptive", args: "-method cg -grid 8 -scheme lossy -rtol 1e-12 -adaptive -prior-mtti 1e-4 -inject proc@9",
			keys: full,
			run: map[string]any{"solver": "cg", "unknowns": 512.0, "scheme": "lossy", "async": false, "shards": 1.0,
				"error_bound": 1e-4, "adaptive": true, "converged": true, "injected": "proc@9", "exit": "ok"},
		},
		{
			name: "none", args: "-method cg -grid 8 -scheme none",
			keys: []string{"generated_at_unix", "metrics", "run", "schema", "stability"},
			run: map[string]any{"solver": "cg", "unknowns": 512.0, "scheme": "none", "async": false, "shards": 1.0,
				"error_bound": 1e-4, "iterations": 11.0, "converged": true, "exit": "ok"},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "report.json")
			out, err := solve(t, append(strings.Fields(c.args), "-report-out", path)...)
			if err != nil {
				t.Fatal(err)
			}
			rep := readReport(t, path)
			if got := keys(rep); !reflect.DeepEqual(got, c.keys) {
				t.Errorf("report keys %v, want %v", got, c.keys)
			}
			run := rep["run"].(map[string]any)
			for _, k := range []string{"command", "wall_seconds", "final_residual", "operator"} {
				if _, ok := run[k]; !ok {
					t.Errorf("run block lacks %q", k)
				}
				delete(run, k)
			}
			// The factor's layout follows what the operator declares: IC(0)
			// of a generated grid with a stencil summary is held by
			// diagonals, and only a CG run has a preconditioner to name.
			wantPre, wantLine := any(nil), "\n"
			if c.run["solver"] == "cg" {
				pre := "ic0/csr"
				if strings.Contains(out, "operator stencil7/avx2") {
					pre = "ic0/diag3"
				}
				wantPre, wantLine = pre, ", preconditioner "+pre+"\n"
			}
			if run["preconditioner"] != wantPre {
				t.Errorf("run block names preconditioner %v, want %v", run["preconditioner"], wantPre)
			}
			delete(run, "preconditioner")
			if c.name == "injected-adaptive" {
				// How many steps a wall-clock cadence takes is the machine's
				// business; that the controller ran, and that the ledger adds
				// up to what the run executed, is ours.
				terms := 0.0
				for _, k := range []string{"failure_free_iterations", "replayed_iterations", "extra_iterations"} {
					n, _ := run[k].(float64)
					terms += n
					delete(run, k)
				}
				if run["iterations"] != terms {
					t.Errorf("run executed %v iterations, its ledger sums to %v", run["iterations"], terms)
				}
				delete(run, "iterations")
				if !strings.Contains(out, "interval trajectory (wall-time") {
					t.Errorf("-adaptive -inject printed no interval trajectory:\n%s", out)
				}
			}
			if !reflect.DeepEqual(run, c.run) {
				t.Errorf("run block\n got %v\nwant %v", run, c.run)
			}
			if !strings.Contains(out, "operator stencil7/avx2"+wantLine) && !strings.Contains(out, "operator csr"+wantLine) {
				t.Errorf("system line names no operator path, or not the preconditioner's:\n%s", out)
			}
		})
	}
}

// TestIterationLedger: a converged run with failures prints the paper's
// ledger, E = N + R + N′. The same step-keyed plan replays the same
// five steps under every scheme; only the lossy restart costs extra
// iterations to converge.
func TestIterationLedger(t *testing.T) {
	for scheme, want := range map[string]string{
		"lossy":       "iterations: 27 = 16 failure-free + 5 replayed + 6 extra (N')\n",
		"traditional": "iterations: 21 = 16 failure-free + 5 replayed + 0 extra (N')\n",
		"lossless":    "iterations: 21 = 16 failure-free + 5 replayed + 0 extra (N')\n",
	} {
		out, err := solve(t, "-method", "cg", "-grid", "8", "-rtol", "1e-12", "-interval", "6",
			"-inject", "proc@9,proc@14", "-scheme", scheme)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, want) {
			t.Errorf("-scheme %s: output lacks %q:\n%s", scheme, want, out)
		}
	}
}

// TestShardsDoNotMovePrices: the shard layout changes what is written,
// not the modelled price. No -shards, -shards 1 and -shards 8 print the
// same Young interval, sim-time and checkpoint-time lines and report
// the same modelled cost column: every layout is priced as the paper's
// collective write.
func TestShardsDoNotMovePrices(t *testing.T) {
	modelled := func(layout ...string) []string {
		path := filepath.Join(t.TempDir(), "report.json")
		args := append([]string{"-method", "jacobi", "-grid", "32", "-scheme", "traditional",
			"-mtti", "2000", "-seed", "1", "-report-out", path}, layout...)
		out, err := solve(t, args...)
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		for _, line := range strings.Split(out, "\n") {
			for _, prefix := range []string{"Young-optimal interval:", "converged=", "checkpoint-time="} {
				if strings.HasPrefix(line, prefix) {
					lines = append(lines, line)
				}
			}
		}
		for _, c := range readReport(t, path)["cost"].([]any) {
			c := c.(map[string]any)
			lines = append(lines, fmt.Sprintf("cost %v modeled %v", c["phase"], c["modeled_seconds"]))
		}
		return lines
	}
	want := modelled()
	if len(want) != 7 {
		t.Fatalf("want 3 outcome lines and 4 cost rows, got:\n%s", strings.Join(want, "\n"))
	}
	for _, shards := range []string{"1", "8"} {
		if got := modelled("-shards", shards); !reflect.DeepEqual(got, want) {
			t.Errorf("-shards %s:\n%s\nwithout the flag:\n%s", shards, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// costRows returns the run report's modelled cost column by phase.
func costRows(t *testing.T, rep map[string]any) map[string]float64 {
	t.Helper()
	rows := map[string]float64{}
	for _, c := range rep["cost"].([]any) {
		c := c.(map[string]any)
		rows[c["phase"].(string)] = c["modeled_seconds"].(float64)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 cost rows, got %v", rows)
	}
	return rows
}

// rawBytes returns the bytes every save of the run captured, from the
// report's metrics: the runs here save the same vectors every time.
func rawBytes(t *testing.T, rep map[string]any) float64 {
	t.Helper()
	for _, m := range rep["metrics"].(map[string]any)["metrics"].([]any) {
		if m := m.(map[string]any); m["name"] == "fti_checkpoint_raw_bytes" {
			return m["sum"].(float64) / m["count"].(float64)
		}
	}
	t.Fatal("report carries no fti_checkpoint_raw_bytes")
	return 0
}

func approxSeconds(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// TestModelledClockOrdersSchemesAsFig10: the modelled clock prices each
// save at the ratio it measured, so on Jacobi the schemes finish in
// fig10's order — lossy before lossless before traditional — a
// traditional save costs fig10's Jacobi Tckp, and a lossy save's C in
// the cost table is cluster's rule at that save's ratio.
func TestModelledClockOrdersSchemesAsFig10(t *testing.T) {
	simTime := regexp.MustCompile(`sim-time=([0-9]+)s`)
	lastSave := regexp.MustCompile(`last checkpoint: ([0-9]+) bytes`)
	var times []float64
	for _, scheme := range []string{"lossy", "lossless", "traditional"} {
		path := filepath.Join(t.TempDir(), "report.json")
		out, err := solve(t, "-method", "jacobi", "-grid", "32", "-mtti", "2000", "-seed", "1",
			"-scheme", scheme, "-report-out", path)
		if err != nil {
			t.Fatal(err)
		}
		m, saved := simTime.FindStringSubmatch(out), lastSave.FindStringSubmatch(out)
		if m == nil || saved == nil {
			t.Fatalf("%s: no sim-time or last-checkpoint line:\n%s", scheme, out)
		}
		sec, _ := strconv.ParseFloat(m[1], 64)
		times = append(times, sec)
		switch scheme {
		case "traditional":
			if !strings.Contains(out, "C=122.98s)") {
				t.Errorf("a traditional save should cost fig10's 122.98 s:\n%s", out)
			}
		case "lossy":
			rep := readReport(t, path)
			bytes, _ := strconv.ParseFloat(saved[1], 64)
			base := cluster.PaperBaselines()["jacobi"]
			enc, raw := base.SaveBytes(core.Lossy, base.VectorBytes(2048), rawBytes(t, rep)/bytes)
			want := cluster.Bebop().CheckpointSeconds(2048, enc, raw, core.Lossy)
			if rows := costRows(t, rep); !approxSeconds(rows["encode"]+rows["write"], want) {
				t.Errorf("lossy save priced %g s (encode + write), the rule at its ratio gives %g s", rows["encode"]+rows["write"], want)
			}
		}
	}
	if !(times[0] < times[1] && times[1] < times[2]) {
		t.Errorf("sim-time lossy %g, lossless %g, traditional %g: want lossy < lossless < traditional", times[0], times[1], times[2])
	}
}

// TestCostTableMatchesWhatTheRunCharged: on a CG lossless -async run,
// whose saves carry x and p, the modelled capture row is the capture
// every save was charged, encode + write is the background C of the
// last save, and the measured encode rate is over every byte the save
// encoded.
func TestCostTableMatchesWhatTheRunCharged(t *testing.T) {
	dir := t.TempDir()
	report, trace := filepath.Join(dir, "report.json"), filepath.Join(dir, "trace.json")
	out, err := solve(t, "-method", "cg", "-grid", "32", "-scheme", "lossless", "-mtti", "2000", "-async",
		"-rtol", "1e-12", "-tit", "20", "-report-out", report, "-trace-out", trace)
	if err != nil {
		t.Fatal(err)
	}
	rep := readReport(t, report)
	rows := costRows(t, rep)
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string
			Dur  float64
			Args map[string]any
		}
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	captures, background := 0, 0.0
	for _, e := range tr.TraceEvents {
		switch {
		case e.Name == "capture":
			captures++
			if !approxSeconds(e.Dur/1e6, rows["capture"]) {
				t.Errorf("a save was charged a %g s capture, the cost table models %g s", e.Dur/1e6, rows["capture"])
			}
		case e.Name == "encode+write" && e.Args["aborted"] == nil:
			background = e.Dur / 1e6
		}
	}
	if captures < 2 {
		t.Fatalf("want several charged captures, got %d:\n%s", captures, out)
	}
	if !approxSeconds(background, rows["encode"]+rows["write"]) {
		t.Errorf("the last save's background write was charged %g s, encode + write model %g s", background, rows["encode"]+rows["write"])
	}
	measured := func(phase string) float64 {
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) >= 3 && f[0] == phase {
				v, err := strconv.ParseFloat(f[2], 64)
				if err == nil {
					return v
				}
			}
		}
		t.Fatalf("no measured %s row:\n%s", phase, out)
		return 0
	}
	raw := rawBytes(t, rep)
	if got := measured("enc-MB/s") * measured("encode") * 1e3; math.Abs(got-raw) > 1e-3*raw {
		t.Errorf("measured enc-MB/s × encode ms = %.0f B, the save encoded %.0f B", got, raw)
	}
}

// TestEmptyRecordMovesNoBytes: a record that wrote nothing — the
// restart from zero, a failed async save — is priced as moving no
// bytes under every scheme, never at a 0/0 ratio.
func TestEmptyRecordMovesNoBytes(t *testing.T) {
	mdl := cluster.Bebop()
	for _, scheme := range []core.Scheme{core.Traditional, core.Lossless, core.Lossy} {
		c := &costModel{mdl: mdl, base: cluster.PaperBaselines()["cg"], scheme: scheme}
		for _, p := range []struct {
			name      string
			got, want float64
		}{
			{"checkpoint", c.checkpoint(fti.Info{}), mdl.CheckpointSeconds(ranks, 0, 0, scheme)},
			{"recovery", c.recovery(fti.Info{}), mdl.RecoverySeconds(ranks, 0, 0, scheme)},
			{"capture", c.capture(fti.Info{}), 0},
		} {
			if p.got != p.want {
				t.Errorf("%v %s of an empty record: %g s, want %g s", scheme, p.name, p.got, p.want)
			}
		}
	}
}

// reportedRun runs one invocation with -report-out and returns its
// output and report.
func reportedRun(t *testing.T, args string) (string, map[string]any) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	out, err := solve(t, append(strings.Fields(args), "-report-out", path)...)
	if err != nil {
		t.Fatal(err)
	}
	return out, readReport(t, path)
}

// iterations returns one field, a solver iteration, of every entry of
// a report list.
func iterations(rep map[string]any, list, field string) []int {
	var its []int
	for _, e := range rep[list].([]any) {
		its = append(its, int(e.(map[string]any)[field].(float64)))
	}
	return its
}

// TestSameSavesOnEitherClock: -interval counts iterations on the
// modelled clock as it does under -inject, so a failure-free run saves
// at the same iterations either way — every 25th, with no drift from
// fractional save costs on the virtual clock.
func TestSameSavesOnEitherClock(t *testing.T) {
	const args = "-method jacobi -grid 16 -scheme lossless -rtol 1e-4 -interval 25 -quality-sample 1"
	_, modelled := reportedRun(t, args)
	_, injected := reportedRun(t, args+" -inject proc@100000")
	m, i := iterations(modelled, "checkpoints", "iteration"), iterations(injected, "checkpoints", "iteration")
	if len(m) < 5 || !reflect.DeepEqual(m, i) {
		t.Fatalf("modelled run saved at %v, injected run at %v", m, i)
	}
	for _, it := range m {
		if it%25 != 0 {
			t.Fatalf("saves at %v: %d is not a multiple of -interval 25", m, it)
		}
	}
}

// TestSavesNApartBetweenFailures: on the modelled clock with failures,
// two consecutive saves with no failure between them are exactly
// -interval iterations apart, whatever the fractional save and
// recovery costs before them left on the clock.
func TestSavesNApartBetweenFailures(t *testing.T) {
	_, rep := reportedRun(t, "-method jacobi -grid 16 -scheme lossless -mtti 200 -interval 25 -seed 7 -recovery-tiers -quality-sample 1")
	saves, failures := iterations(rep, "checkpoints", "iteration"), iterations(rep, "recoveries", "failure_iteration")
	if len(failures) < 3 {
		t.Fatalf("want several failures, got %v", failures)
	}
	pairs := 0
	for k := 1; k < len(saves); k++ {
		a, b := saves[k-1], saves[k]
		if slices.ContainsFunc(failures, func(f int) bool { return a < f && f < b }) {
			continue
		}
		pairs++
		if b-a != 25 {
			t.Errorf("saves at %d and %d with no failure between are %d apart, want 25 (saves %v, failures %v)", a, b, b-a, saves, failures)
		}
	}
	if pairs < 10 {
		t.Fatalf("only %d failure-free save pairs: saves %v, failures %v", pairs, saves, failures)
	}
}

// TestReportedIntervalIsTheRunsCadence: the report's interval is the
// iteration count the run saved at — on the Young default, the N the
// Young line prints, Young's τ rounded up to whole iterations.
func TestReportedIntervalIsTheRunsCadence(t *testing.T) {
	out, rep := reportedRun(t, "-method jacobi -grid 32 -scheme traditional -mtti 2000 -seed 1")
	m := regexp.MustCompile(`Young-optimal interval: ([0-9]+) iterations \(τ=([0-9]+) simulated seconds`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no Young-optimal interval line:\n%s", out)
	}
	if m[1] != "702" || m[2] != "701" {
		t.Errorf("Young line prints N=%s, τ=%s s; want 702 iterations for τ=701.37 s at t_it=1 s", m[1], m[2])
	}
	if got := rep["run"].(map[string]any)["interval"]; fmt.Sprint(got) != m[1] {
		t.Errorf("report interval %v, the run saved every %s iterations", got, m[1])
	}
}
