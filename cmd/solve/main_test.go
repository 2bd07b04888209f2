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
	"repro/internal/obs"
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
		{"-adaptive -prior-mtti 1 -interval 5", "-adaptive and -interval"},
		{"-adaptive", "-adaptive needs -prior-mtti"},
		{"-recovery-tiers -scheme none", "-recovery-tiers needs a checkpoint scheme"},
		{"-recovery-tiers -method gmres", `not supported for method "gmres"`},
		{"-method gmres -inject abft+proc@5", `kind "abft"`},
		{"-inject abft@5", "needs -recovery-tiers"},
		{"-scheme none -inject proc@5", "-inject needs a checkpoint scheme"},
		{"-scheme none -adaptive", "-adaptive needs a checkpoint scheme"},
		// Every flag that shapes the saves is refused under -scheme none
		// too, -report-out alone (which every row sets) excepted.
		{"-scheme none -async", "-async needs a checkpoint scheme"},
		{"-scheme none -interval 5", "-interval needs a checkpoint scheme"},
		{"-scheme none -ckptdir ckpt", "-ckptdir needs a checkpoint scheme"},
		{"-scheme none -shards 4", "-shards needs a checkpoint scheme"},
		{"-scheme none -storage-workers 2", "-storage-workers needs a checkpoint scheme"},
		{"-scheme none -storage-retries 2", "-storage-retries needs a checkpoint scheme"},
		{"-scheme none -storage-timeout 1s", "-storage-timeout needs a checkpoint scheme"},
		{"-scheme none -storage-fault-rate 0.1", "-storage-fault-rate needs a checkpoint scheme"},
		{"-scheme none -quality", "-quality needs a checkpoint scheme"},
		{"-scheme none -quality-sample 2", "-quality-sample needs a checkpoint scheme"},
		{"-scheme none -seed 7", "-seed needs a checkpoint scheme"},
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
	// The modelled clock lives in cmd/repro, and the background CRC
	// sweep is gone (the restore walk's fallback is the only repair):
	// their flags are unknown here.
	for _, f := range []string{"-mtti", "-tit", "-scrub-interval"} {
		if _, err := parseOptions([]string{f, "1"}); err == nil || !strings.Contains(err.Error(), "not defined: "+f) {
			t.Errorf("solve %s 1: error %v, want an unknown flag", f, err)
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
		"-interval -5",
		"-interval 7.9",
		"-interval 7.9 -inject proc@30",
		"-prior-mtti 0 -adaptive",
		"-maxiter -1",
		"-shards -2",
		"-storage-workers -3",
		"-storage-retries -1",
		"-storage-timeout -1s",
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
		"    abft                 accepted   T ms wall — 28 local its, 0 B read",
		"  @20     abft+proc                recovered via restart-zero",
		"    abft                 rejected: abft: retained state failed checksum verification T ms wall — 0 local its, 0 B read",
		"    restart-zero         accepted   T ms wall — all progress lost",
		"  @30     manifest+proc            recovered via abft",
		"    abft                 accepted   T ms wall — 28 local its, 0 B read",
		"  @40     midckpt                  recovered via restart-zero",
		"    abft                 rejected: abft: verification failed: reconstructed residual R exceeds 4.0× retained R T ms wall — 0 local its, 0 B read",
		"    checkpoint           rejected: CRC mismatch (corrupt checkpoint) T ms wall — seq 1, 2840 B read",
		"    restart-zero         accepted   T ms wall — all progress lost",
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

// TestRunReport pins the run report's key set and its run block for two
// injected runs, an injected adaptive one (the flag used to be recorded
// and ignored) and -scheme none (which used to write no report at all).
func TestRunReport(t *testing.T) {
	full := []string{"checkpoints", "cost", "generated_at_unix", "metrics", "recoveries", "run", "schema", "stability"}
	for _, c := range []struct {
		name, args string
		keys       []string
		run        map[string]any // wall_seconds, command, final_residual and operator (the machine's) are checked for presence only, preconditioner against the operator
	}{
		{
			name: "injected-lossy", args: "-method jacobi -grid 8 -scheme lossy -interval 40 -inject proc@100,proc@190",
			keys: full,
			run: map[string]any{"solver": "jacobi", "unknowns": 512.0, "scheme": "lossy", "async": false, "shards": 1.0,
				"error_bound": 1e-4, "interval": 40.0, "iterations": 306.0, "converged": true,
				"injected": "proc@100,proc@190", "exit": "ok",
				"failure_free_iterations": 257.0, "replayed_iterations": 50.0, "extra_iterations": -1.0},
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
// not the modeled column of the cost table. No -shards, -shards 1 and
// -shards 8 report the same modeled prices: every layout is priced as
// the paper's collective write.
func TestShardsDoNotMovePrices(t *testing.T) {
	for _, scheme := range []string{"traditional", "lossy"} {
		modeled := func(layout string) []string {
			_, rep := reportedRun(t, "-method jacobi -grid 16 -rtol 1e-4 -scheme "+scheme+layout)
			var rows []string
			for _, c := range rep["cost"].([]any) {
				c := c.(map[string]any)
				if c["modeled_seconds"] != nil {
					rows = append(rows, fmt.Sprintf("%v modeled %v", c["phase"], c["modeled_seconds"]))
				}
			}
			return rows
		}
		want := modeled("")
		if len(want) < 2 {
			t.Fatalf("-scheme %s: want modeled write and restart rows at least, got %q", scheme, want)
		}
		for _, layout := range []string{" -shards 1", " -shards 8"} {
			if got := modeled(layout); !reflect.DeepEqual(got, want) {
				t.Errorf("-scheme %s%s:\n%s\nwithout the flag:\n%s", scheme, layout, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}
	}
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

// TestCostTableMatchesWhatTheRunCharged: on a Jacobi lossy run and a CG
// lossless -async one, whose saves carry x and p, the modeled encode +
// write is cluster's checkpoint rule at the last save's measured ratio,
// the measured encode rate is over every byte the save encoded, and the
// capture row is measured only — the pipeline's copy under -async,
// nothing for a sync save, which copies nothing.
func TestCostTableMatchesWhatTheRunCharged(t *testing.T) {
	lastSave := regexp.MustCompile(`last checkpoint: ([0-9]+) bytes`)
	for _, c := range []struct {
		method string
		scheme core.Scheme
		args   string
	}{
		{"jacobi", core.Lossy, "-method jacobi -grid 32 -scheme lossy -rtol 1e-4"},
		{"cg", core.Lossless, "-method cg -grid 32 -scheme lossless -rtol 1e-12 -async"},
	} {
		out, rep := reportedRun(t, c.args)
		saved := lastSave.FindStringSubmatch(out)
		if saved == nil {
			t.Fatalf("%s: no last-checkpoint line:\n%s", c.args, out)
		}
		rows := map[string]map[string]any{}
		for _, r := range rep["cost"].([]any) {
			r := r.(map[string]any)
			rows[r["phase"].(string)] = r
		}
		raw := rawBytes(t, rep)
		bytes, _ := strconv.ParseFloat(saved[1], 64)
		base := cluster.PaperBaselines()[c.method]
		enc, rawAtScale := base.SaveBytes(c.scheme, base.VectorBytes(ranks), raw/bytes)
		want := cluster.Bebop().CheckpointSeconds(ranks, enc, rawAtScale, c.scheme)
		if got := rows["encode"]["modeled_seconds"].(float64) + rows["write"]["modeled_seconds"].(float64); !approxSeconds(got, want) {
			t.Errorf("%s: save priced %g s (encode + write), the rule at its ratio gives %g s", c.args, got, want)
		}
		capture := rows["capture"]
		if _, modeled := capture["modeled_seconds"]; modeled {
			t.Errorf("%s: the capture row carries a modeled cost: %v", c.args, capture)
		}
		if _, measured := capture["measured_seconds"]; measured != strings.HasSuffix(c.args, "-async") {
			t.Errorf("%s: capture row %v, want a measured capture exactly under -async", c.args, capture)
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
			t.Fatalf("%s: no measured %s row:\n%s", c.args, phase, out)
			return 0
		}
		if got := measured("enc-MB/s") * measured("encode") * 1e3; math.Abs(got-raw) > 1e-3*raw {
			t.Errorf("%s: measured enc-MB/s × encode ms = %.0f B, the save encoded %.0f B", c.args, got, raw)
		}
	}
}

// TestEmptyRecordMovesNoBytes: a record that wrote nothing — the
// restart from zero, a failed async save — is priced as moving no
// bytes under every scheme, never at a 0/0 ratio.
func TestEmptyRecordMovesNoBytes(t *testing.T) {
	mdl := cluster.Bebop()
	for _, scheme := range []core.Scheme{core.Traditional, core.Lossless, core.Lossy} {
		c := &costModel{mdl: mdl, base: cluster.PaperBaselines()["cg"], scheme: scheme}
		encode, write := c.checkpoint(fti.Info{})
		for _, p := range []struct {
			name      string
			got, want float64
		}{
			{"checkpoint", encode + write, mdl.CheckpointSeconds(ranks, 0, 0, scheme)},
			{"recovery", c.recovery(fti.Info{}), mdl.RecoverySeconds(ranks, 0, 0, scheme)},
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

// TestSavesNApartBetweenFailures: two consecutive saves with no failure
// between them are exactly -interval iterations apart, however many
// failures and recoveries came before them.
func TestSavesNApartBetweenFailures(t *testing.T) {
	_, rep := reportedRun(t, "-method jacobi -grid 16 -scheme lossless -interval 25 -recovery-tiers -quality-sample 1 -inject proc@110,proc@260,proc@480,proc@700")
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

// TestRecoveryDistortionIsTheAdoptedSave: a failure aborts save 3 at
// iteration 13, and the save at 15 reuses its sequence number. The
// recovery that adopts seq 3 reports that save's distortion — its
// iteration, its two vectors — not the aborted save's merged into it.
func TestRecoveryDistortionIsTheAdoptedSave(t *testing.T) {
	_, rep := reportedRun(t, "-method cg -grid 16 -scheme traditional -interval 5 -quality-sample 1 -inject midckpt@13,proc@17")
	recs := rep["recoveries"].([]any)
	if len(recs) != 2 {
		t.Fatalf("want 2 recoveries, got %v", recs)
	}
	for _, r := range recs {
		e := r.(map[string]any)
		d, ok := e["distortion"].(map[string]any)
		if !ok || d["seq"] != e["adopted_seq"] || d["iteration"] != e["checkpoint_iteration"] || d["vectors"] != 2.0 {
			t.Errorf("recovery %v: distortion is not the adopted save's two vectors", e)
		}
	}
	if last := recs[1].(map[string]any); last["adopted_seq"] != 3.0 || last["checkpoint_iteration"] != 15.0 {
		t.Fatalf("second recovery adopted %v at %v, want seq 3 at 15", last["adopted_seq"], last["checkpoint_iteration"])
	}
}

// TestReportedIntervalIsTheRunsCadence: left at 0, -interval is 25 —
// the interval the report and the output name, and the one the run
// saved at.
func TestReportedIntervalIsTheRunsCadence(t *testing.T) {
	out, rep := reportedRun(t, "-method jacobi -grid 16 -scheme lossless -rtol 1e-4 -quality-sample 1")
	if !strings.Contains(out, "checkpoint interval: 25 iterations\n") {
		t.Errorf("output names no 25-iteration interval:\n%s", out)
	}
	if got := rep["run"].(map[string]any)["interval"]; got != 25.0 {
		t.Errorf("report interval %v, want 25", got)
	}
	saves := iterations(rep, "checkpoints", "iteration")
	if len(saves) < 10 {
		t.Fatalf("want a save every 25 iterations of a 523-step solve, got %v", saves)
	}
	for k, it := range saves {
		if it != 25*(k+1) {
			t.Fatalf("saves at %v, want every 25th iteration", saves)
		}
	}
}

// TestInjectedRunGolden pins the deterministic half of a measured run:
// per method, scheme and one step-keyed plan that fails a process and
// then a save, the iteration ledger E = N + R + N′, the bytes of the
// last checkpoint and the tiers the recoveries took. One more plan
// corrupts the newest of two committed checkpoints before a process
// fails: the restore walk must reject it by its CRC and fall back to
// the one before, and that row pins the whole tier table. Each row runs
// twice, the second with every observer attached (-metrics-out,
// -trace-out, and -report-out, which brings the quality auditor), and
// both runs must give the recorded values: observers are pure.
func TestInjectedRunGolden(t *testing.T) {
	ledger := regexp.MustCompile(`(?m)^iterations: (.+) \(N'\)$`)
	lastSave := regexp.MustCompile(`(?m)^last checkpoint: ([0-9]+) bytes`)
	tier := regexp.MustCompile(`(?m)^  @[0-9]+ .* recovered via (\S+)$`)
	plans := map[string]string{
		"cg":     "-method cg -grid 16 -interval 5 -inject proc@7,midckpt@13",
		"jacobi": "-method jacobi -grid 16 -rtol 1e-4 -inject proc@110,midckpt@260",
		"gmres":  "-method gmres -grid 12 -interval 10 -inject proc@37,midckpt@64",
		// Saves at 5 and 10; the one at 10 is damaged at 12.
		"cg-corrupt-newest": "-method cg -grid 16 -interval 5 -inject manifest+proc@12",
	}
	tables := map[string][]string{ // the whole tier table, where a plan pins it
		"cg-corrupt-newest": {
			"  @12     manifest+proc            recovered via previous-checkpoint",
			"    checkpoint           rejected: CRC mismatch (corrupt checkpoint) T ms wall — seq 2, 2161 B read",
			"    previous-checkpoint  accepted   T ms wall — seq 1, 2320 B read",
		},
	}
	for _, row := range []struct {
		plan, scheme, ledger, bytes string
		tiers                       []string
	}{
		{"cg", "traditional", "23 = 18 failure-free + 5 replayed + 0 extra", "65577", []string{"checkpoint", "checkpoint"}},
		{"cg", "lossless", "23 = 18 failure-free + 5 replayed + 0 extra", "37018", []string{"checkpoint", "checkpoint"}},
		{"cg", "lossy", "27 = 18 failure-free + 5 replayed + 4 extra", "2091", []string{"checkpoint", "checkpoint"}},
		{"jacobi", "traditional", "543 = 523 failure-free + 20 replayed + 0 extra", "32791", []string{"checkpoint", "checkpoint"}},
		{"jacobi", "lossless", "543 = 523 failure-free + 20 replayed + 0 extra", "5369", []string{"checkpoint", "checkpoint"}},
		{"jacobi", "lossy", "543 = 523 failure-free + 20 replayed + 0 extra", "2069", []string{"checkpoint", "checkpoint"}},
		{"gmres", "traditional", "124 = 113 failure-free + 11 replayed + 0 extra", "13845", []string{"checkpoint", "checkpoint"}},
		{"gmres", "lossless", "124 = 113 failure-free + 11 replayed + 0 extra", "5758", []string{"checkpoint", "checkpoint"}},
		{"gmres", "lossy", "110 = 113 failure-free + 11 replayed + -14 extra", "1142", []string{"checkpoint", "checkpoint"}},
		{"cg-corrupt-newest", "lossy", "29 = 18 failure-free + 7 replayed + 4 extra", "2091", []string{"previous-checkpoint"}},
	} {
		for run := 1; run <= 2; run++ {
			args := strings.Fields(plans[row.plan] + " -scheme " + row.scheme)
			if run == 2 {
				dir := t.TempDir()
				args = append(args, "-metrics-out", filepath.Join(dir, "metrics.json"),
					"-trace-out", filepath.Join(dir, "trace.json"), "-report-out", filepath.Join(dir, "report.json"))
			}
			out, err := solve(t, args...)
			if err != nil {
				t.Fatalf("%v: %v", args, err)
			}
			if run == 2 {
				observedOnce(t, strings.Join(args, " "), out, filepath.Dir(args[len(args)-1]))
			}
			var ledgerGot, bytesGot string
			if m := ledger.FindStringSubmatch(out); m != nil {
				ledgerGot = m[1]
			}
			if m := lastSave.FindStringSubmatch(out); m != nil {
				bytesGot = m[1]
			}
			var tiers []string
			for _, m := range tier.FindAllStringSubmatch(out, -1) {
				tiers = append(tiers, m[1])
			}
			if ledgerGot != row.ledger || bytesGot != row.bytes || !reflect.DeepEqual(tiers, row.tiers) {
				t.Errorf("%s, run %d: E %q, last checkpoint %s B, tiers %v; want E %q, %s B, tiers %v:\n%s",
					strings.Join(args, " "), run, ledgerGot, bytesGot, tiers, row.ledger, row.bytes, row.tiers, out)
			}
			if want, ok := tables[row.plan]; ok && !reflect.DeepEqual(tierTable(out), want) {
				t.Errorf("%s, run %d: tier table:\n%s\nwant:\n%s",
					strings.Join(args, " "), run, strings.Join(tierTable(out), "\n"), strings.Join(want, "\n"))
			}
		}
	}
}

// TestObserversCountEachEventOnce runs, with -metrics-out and
// -trace-out, the injected shapes TestInjectedRunGolden's rows do not
// take — an async pipeline with a failure inside a save, a sharded
// store with a lost shard, and a storage crash mid-commit, sync and
// async — and reads each run's printed tallies off the kept counters
// and spans.
func TestObserversCountEachEventOnce(t *testing.T) {
	for _, args := range []string{
		"-method gmres -scheme lossy -async -rtol 1e-12 -inject proc@40,midckpt@80",
		"-method cg -grid 8 -scheme traditional -rtol 1e-12 -interval 6 -shards 2 -inject proc@9,shard+proc@14",
		"-method jacobi -grid 8 -interval 10 -async=false -inject crash@25",
		"-method jacobi -grid 8 -interval 10 -async -inject crash@30",
	} {
		dir := t.TempDir()
		out, err := solve(t, append(strings.Fields(args), "-metrics-out", filepath.Join(dir, "metrics.json"),
			"-trace-out", filepath.Join(dir, "trace.json"))...)
		if err != nil {
			t.Fatalf("%s: %v\n%s", args, err, out)
		}
		observedOnce(t, args, out, dir)
	}
}

// observedOnce checks that the metrics snapshot and Chrome trace a run
// wrote to dir count each lifecycle event once, against what the run
// printed: Σ core_recoveries_<tier>_total = failures=, per tier the "recovery
// tiers:" line (a step-keyed plan never interrupts a recovery),
// fti_checkpoints_total − core_checkpoints_aborted_total =
// checkpoints=, one failure instant per failure, one tier span on the
// recovery track per attempt of the tier table, and no other recovery
// span.
func observedOnce(t *testing.T, args, out, dir string) {
	t.Helper()
	printed := func(re string) []int {
		m := regexp.MustCompile(re).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("%s: output has no %q line:\n%s", args, re, out)
		}
		var v []int
		for _, f := range m[1:] {
			n, _ := strconv.Atoi(f)
			v = append(v, n)
		}
		return v
	}
	tally := printed(` failures=([0-9]+) checkpoints=([0-9]+)\n`)
	failures, checkpoints := tally[0], tally[1]
	tiers := printed(`recovery tiers: abft=([0-9]+) checkpoint-restart=([0-9]+) restart-zero=([0-9]+) `)
	attempts := 0
	for _, line := range tierTable(out) {
		if strings.HasPrefix(line, "    ") {
			attempts++
		}
	}

	var snap obs.Snapshot
	var trace struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			Tid           int
		}
	}
	for file, v := range map[string]any{"metrics.json": &snap, "trace.json": &trace} {
		data, err := os.ReadFile(filepath.Join(dir, file))
		if err == nil {
			err = json.Unmarshal(data, v)
		}
		if err != nil {
			t.Fatalf("%s: %s: %v", args, file, err)
		}
	}
	count := func(name string) int {
		if md := snap.Get(name); md != nil {
			return int(md.Value)
		}
		return 0
	}
	tier := func(t core.RecoveryTier) int { return count(obs.MCoreRecoveriesTotal[t]) }
	got := []int{tier(core.TierABFT), tier(core.TierCheckpoint) + tier(core.TierPreviousCheckpoint), tier(core.TierRestartZero)}
	if !reflect.DeepEqual(got, tiers) || got[0]+got[1]+got[2] != failures {
		t.Errorf("%s: %v abft/checkpoint/restart-zero = %v, printed %v with failures=%d", args, obs.MCoreRecoveriesTotal, got, tiers, failures)
	}
	saves, aborted := count(obs.MFTICheckpointsTotal), count(obs.MCoreCheckpointsAbortedTotal)
	if saves-aborted != checkpoints {
		t.Errorf("%s: %s %d − %s %d, printed checkpoints=%d", args, obs.MFTICheckpointsTotal, saves, obs.MCoreCheckpointsAbortedTotal, aborted, checkpoints)
	}
	var instants, tierSpans int
	for _, e := range trace.TraceEvents {
		switch {
		case e.Ph == "M":
		case e.Name == obs.SpanFailure:
			instants++
		case strings.HasPrefix(e.Name, obs.SpanTierPrefix) && e.Tid == obs.TrackRecovery:
			tierSpans++
		case e.Cat == obs.CatRecovery || e.Tid == obs.TrackRecovery:
			t.Errorf("%s: recovery span %q on track %d is not one of the chain's attempts", args, e.Name, e.Tid)
		}
	}
	if instants != failures || tierSpans != attempts {
		t.Errorf("%s: %d failure instants and %d tier spans, printed failures=%d and %d attempts", args, instants, tierSpans, failures, attempts)
	}
}
