package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/core"
)

// TestMain lets the test binary stand in for the harness binary when
// the traced pass re-executes itself as the GOMAXPROCS=1 child.
func TestMain(m *testing.M) {
	if spec := os.Getenv(baselineChildEnv); spec != "" {
		os.Exit(baselineChild(spec))
	}
	os.Exit(m.Run())
}

// tiny shrinks a workload to a 16³ grid and one rep, with failures
// close enough together that the short solve still sees some.
func tiny(w workload) workload {
	w.grid, w.reps = 16, 1
	w.gap = map[string]int{"cg": 8, "gmres": 20, "jacobi": 50}[w.method]
	return w
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// The four configurations at tiny grids through the code path the
// benchmark takes: both passes, every check, every metric.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			root := t.TempDir()
			passes := map[bool]map[string]float64{}
			steps := map[bool]int{}
			for _, traced := range []bool{false, true} {
				reps, x, err := w.measure(root, 1, runSeconds, traced)
				if err != nil {
					t.Fatal(err)
				}
				defs, values := endToEnd, endToEndMetrics(reps, peakRSSMB())
				all := reps
				if traced {
					defs, values = perLayer, perLayerMetrics(w, reps, x)
					all = append(append(all, x.baseline), x.twins...)
				}
				for _, r := range all {
					for _, f := range r.failures {
						t.Errorf("traced=%v: %s", traced, f)
					}
				}
				if len(reps) != 1 || len(reps[0].ops[opRecover]) == 0 || len(reps[0].infos) == 0 {
					t.Fatalf("traced=%v: want 1 rep with recoveries and checkpoints, got %d reps, %d recoveries, %d checkpoints",
						traced, len(reps), len(reps[0].ops[opRecover]), len(reps[0].infos))
				}
				for _, d := range defs {
					if v, ok := values[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("metric %s: value %v, present %v", d.name, v, ok)
					}
				}
				if len(values) != len(defs) {
					t.Errorf("traced=%v: %d metrics computed, %d declared", traced, len(values), len(defs))
				}
				passes[traced], steps[traced] = values, reps[0].steps
			}
			if steps[true] != steps[false] {
				t.Errorf("traced pass took %d steps, untraced %d", steps[true], steps[false])
			}
			pl := passes[true]
			if s := pl["ledger.sum_over_wall"]; s < 0.99 || s > 1.01 {
				t.Errorf("ledger.sum_over_wall = %v", s)
			}
			if got, want := pl["solver.steps"], passes[false]["iters_total"]; got != want {
				t.Errorf("solver.steps = %v, iters_total = %v", got, want)
			}
			if w.cfg.Scheme != core.Lossy && pl["core.extra_iters"] != 0 {
				t.Errorf("exact restore: core.extra_iters = %v", pl["core.extra_iters"])
			}
			if left, _ := os.ReadDir(root); len(left) != 0 {
				t.Errorf("%d checkpoint directories left behind", len(left))
			}
		})
	}
}

// A decorated store must see, and leave behind, exactly what a bare
// one does: same object names, same bytes, and the shard batch path
// still taken (one object per shard plus the manifest).
func TestCountingStorageDoesNotChangeWhatIsWritten(t *testing.T) {
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			dirs := map[bool]map[string]string{}
			for _, traced := range []bool{false, true} {
				sys, err := w.build(t.TempDir(), traced)
				if err != nil {
					t.Fatal(err)
				}
				defer sys.close()
				for c := 0; c < 3; c++ {
					for i := 0; i < w.cfg.Interval; i++ {
						sys.slv.Step()
					}
					if _, err := sys.mgr.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := sys.mgr.WaitCheckpoint(); err != nil {
					t.Fatal(err)
				}
				files := map[string]string{}
				entries, err := os.ReadDir(sys.dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					data, err := os.ReadFile(filepath.Join(sys.dir, e.Name()))
					if err != nil {
						t.Fatal(err)
					}
					files[e.Name()] = string(data)
				}
				dirs[traced] = files
				if traced {
					if got, want := sys.store.writes.count().calls, 3*(max(w.cfg.Shards, 1)+min(w.cfg.Shards, 1)); got != want {
						t.Errorf("decorator saw %d writes for 3 checkpoints, want %d", got, want)
					}
				}
			}
			if len(dirs[true]) == 0 || len(dirs[true]) != len(dirs[false]) {
				t.Fatalf("decorated run left %d objects, bare run %d", len(dirs[true]), len(dirs[false]))
			}
			for name, data := range dirs[false] {
				if dirs[true][name] != data {
					t.Errorf("object %s differs between the bare and the decorated run", name)
				}
			}
		})
	}
}

// BENCHMARK.json is the driver's copy of the tables in metrics.go and
// workload.go; this holds the two together.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, runSeconds = %d", doc.RunSeconds, runSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workload.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || !nameRE.MatchString(w.name) {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in workload.go", i, doc.Workloads[i].Name, w.name)
		}
	}
	for _, side := range []struct {
		what string
		json []jsonMetric
		defs []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(side.json) != len(side.defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in metrics.go", side.what, len(side.json), len(side.defs))
		}
		for i, d := range side.defs {
			j := side.json[i]
			if j.Name != d.name || j.Unit != d.unit || j.Bound != d.bound || !nameRE.MatchString(d.name) {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in metrics.go", side.what, i, j, d)
			}
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(v, n=4) of the same lists.
	for _, c := range []struct{ v, want []float64 }{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 0.2, 7.7, 1.5, 9.0, 4.4, 2.2}, []float64{1.5, 3.1, 7.7}},
	} {
		q1, q2, q3 := quartiles(c.v)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %v, want %v", c.v, i, got, c.want[i])
			}
		}
	}
}

// Every rep of a run gets a different slot of each window, and the
// same seed gives the same schedule.
func TestScheduleCoversWindow(t *testing.T) {
	const reps, gap = 10, 40
	for window := 0; window < 3; window++ {
		seen := map[int]bool{}
		for rep := 0; rep < reps; rep++ {
			a := &schedule{seed: 7, rep: rep, reps: reps, gap: gap, window: window}
			b := &schedule{seed: 7, rep: rep, reps: reps, gap: gap, window: window}
			step := a.next()
			if step != b.next() {
				t.Fatalf("window %d rep %d: same seed, different step", window, rep)
			}
			if step <= window*gap || step > (window+1)*gap {
				t.Errorf("window %d rep %d: step %d outside the window", window, rep, step)
			}
			seen[(step-1-window*gap)*reps/gap] = true
		}
		if len(seen) != reps {
			t.Errorf("window %d: %d of %d slots used", window, len(seen), reps)
		}
	}
}
