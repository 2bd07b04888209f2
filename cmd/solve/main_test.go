package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
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
		"-mtti -100",
		"-maxiter -1",
		"-shards -2",
		"-storage-retries -1",
		"-quality-sample -3",
		"-quality-sample 0",
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
		"    abft                 rejected: abft: retained state failed checksum verification T ms wall — 0 local its, modeled 0.0108s, 0 B read",
		"    restart-zero         accepted   T ms wall — all progress lost, modeled 30.3s",
		"  @30     manifest+proc            recovered via abft",
		"    abft                 accepted   T ms wall — 28 local its, modeled 28s, 0 B read",
		"  @40     midckpt                  recovered via restart-zero",
		"    abft                 rejected: abft: verification failed: reconstructed residual R exceeds 4.0× retained R T ms wall — 0 local its, modeled 0.0108s, 0 B read",
		"    checkpoint           rejected: CRC mismatch (corrupt checkpoint) T ms wall — seq 1, 2840 B read, modeled 30.3s",
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
				"error_bound": 1e-4, "interval": 40.0, "iterations": 295.0, "converged": true, "exit": "ok"},
		},
		{
			name: "injected", args: "-method cg -grid 8 -scheme traditional -rtol 1e-12 -interval 6 -shards 2 -inject proc@9,shard+proc@14",
			keys: full,
			run: map[string]any{"solver": "cg", "unknowns": 512.0, "scheme": "traditional", "async": false, "shards": 2.0,
				"error_bound": 1e-4, "interval": 6.0, "iterations": 27.0, "converged": true,
				"injected": "proc@9,shard+proc@14", "exit": "ok"},
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
				// business; that the controller ran is ours.
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
