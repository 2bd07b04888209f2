package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fti"
	"repro/internal/precond"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/sz"
	"repro/internal/vec"
)

// benchShape is a small version of one bench/ workload: the same
// method, scheme and Manager configuration on a system that solves in
// tens to hundreds of steps.
type benchShape struct {
	name     string
	build    func(t *testing.T, a *sparse.CSR, b []float64) solver.Checkpointable
	grid     int
	cfg      Config
	failures []int // harness steps a failure lands at
}

func benchShapes() []benchShape {
	cg := func(_ *testing.T, a *sparse.CSR, b []float64) solver.Checkpointable {
		return solver.NewCG(a, precond.NewJacobiFromMatrix(a), b, nil, solver.SeqSpace{}, solver.Options{RTol: 1e-9})
	}
	return []benchShape{
		{
			// Steps 15 and 30 are checkpoint iterations (the lossy restart
			// does not rewind the counter): the failure must strike first
			// and the checkpoint due on that step must not be taken.
			name: "cg-lossy-sync", build: cg, grid: 12,
			cfg:      Config{Scheme: Lossy, SZParams: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4}, Interval: 5},
			failures: []int{3, 15, 22, 30, 41},
		},
		{
			name: "cg-trad-sync-shard", build: cg, grid: 12,
			cfg:      Config{Scheme: Traditional, Interval: 5, Shards: 8, StorageWorkers: 2},
			failures: []int{4, 10, 20, 27},
		},
		{
			name: "gmres-lossy-async", grid: 12,
			build: func(_ *testing.T, a *sparse.CSR, b []float64) solver.Checkpointable {
				return solver.NewGMRES(a, nil, b, nil, 10, solver.SeqSpace{}, solver.Options{RTol: 1e-8})
			},
			// A failure one step after a capture meets the save in flight.
			cfg:      Config{Scheme: Lossy, Adaptive: true, AdaptiveC: 1, Async: true, Interval: 10},
			failures: []int{7, 21, 40, 58},
		},
		{
			name: "jacobi-lossless-failstorm", grid: 8,
			build: func(t *testing.T, a *sparse.CSR, b []float64) solver.Checkpointable {
				s, err := solver.NewStationary(solver.KindJacobi, a, b, nil, 0, solver.Options{RTol: 1e-6})
				if err != nil {
					t.Fatal(err)
				}
				return s
			},
			cfg:      Config{Scheme: Lossless, Interval: 25},
			failures: []int{10, 25, 26, 60, 100, 131, 175, 176, 210},
		},
	}
}

// shapeTrace is what the two loops must agree on.
type shapeTrace struct {
	steps, checkpoints, replayed int
	recovered                    []string // tier@iteration per failure
	x                            []float64
}

func (w benchShape) system(t *testing.T) (solver.Checkpointable, *Manager, []float64) {
	t.Helper()
	a := sparse.Poisson2D(w.grid)
	b := sparse.OnesRHS(a.Rows)
	s := w.build(t, a, b)
	cfg := w.cfg
	cfg.BNorm = vec.Norm2(b)
	m, err := NewManager(cfg, fti.NewMemStorage(), s)
	if err != nil {
		t.Fatal(err)
	}
	return s, m, make([]float64, a.Rows)
}

func solution(s solver.Checkpointable) []float64 {
	if g, ok := s.(*solver.GMRES); ok {
		return g.CurrentXInto(nil)
	}
	return append([]float64(nil), s.X()...)
}

// viaCallbackLoop is the hand-written loop bench/rep.go drives its four
// workloads with, kept here as the reference: RunToConvergence with a
// callback that strikes first (a checkpoint due on the failure's step is
// lost with the rest of the state), else checkpoints when Due, failures
// keyed to harness steps.
func (w benchShape) viaCallbackLoop(t *testing.T) shapeTrace {
	s, m, x0 := w.system(t)
	failAt := map[int]bool{}
	for _, f := range w.failures {
		failAt[f] = true
	}
	var tr shapeTrace
	pos, posAt := 0, map[int]int{0: 0}
	_, err := solver.RunToConvergence(s.(solver.Stepper), solver.Options{}, func(_ int, rnorm float64) error {
		tr.steps++
		pos++
		if s.(solver.Stepper).Converged(rnorm) {
			return nil // nothing strikes a finished solve
		}
		if failAt[tr.steps] {
			rr, err := m.RecoverTiered(x0)
			if err != nil {
				return err
			}
			tr.recovered = append(tr.recovered, fmt.Sprintf("%s@%d", rr.Used, rr.Iteration))
			back, known := posAt[rr.Iteration]
			if !known {
				t.Errorf("step %d: recovered to iteration %d, which was never checkpointed", tr.steps, rr.Iteration)
			}
			tr.replayed += pos - back
			pos = back
			return nil
		}
		if m.Due() {
			if _, err := m.Checkpoint(); err != nil {
				return err
			}
			tr.checkpoints++
			posAt[s.Iteration()] = pos
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.WaitCheckpoint(); err != nil {
		t.Fatal(err)
	}
	tr.x = solution(s)
	return tr
}

// viaDrive runs the same workload through the driver: measured costs,
// the Manager's iteration-count cadence, the same step-keyed failures.
func (w benchShape) viaDrive(t *testing.T) shapeTrace {
	s, m, x0 := w.system(t)
	src := &stepFailures{at: map[int]bool{}}
	for _, f := range w.failures {
		src.at[f] = true
	}
	out, err := Drive(DriveConfig{Stepper: s.(solver.Stepper), Manager: m, X0: x0, Failures: src})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Converged {
		t.Fatal("did not converge")
	}
	tr := shapeTrace{
		steps:       out.IterationsExecuted,
		checkpoints: out.Checkpoints + out.AbortedCheckpoints,
		replayed:    out.IterationsExecuted - out.ConvergenceIterations,
		x:           solution(s),
	}
	for _, rr := range out.RecoveryReports {
		tr.recovered = append(tr.recovered, fmt.Sprintf("%s@%d", rr.Used, rr.Iteration))
	}
	if out.Failures != len(tr.recovered) || out.AbortedCheckpoints != 0 {
		t.Errorf("failures=%d reports=%d aborted=%d: a step-keyed failure is one recovery and aborts nothing",
			out.Failures, len(tr.recovered), out.AbortedCheckpoints)
	}
	return tr
}

// TestDriveReproducesTheBenchLoop: on the four benchmark workload
// shapes the driver and the harness's hand-written loop execute the
// same steps, take the same checkpoints, recover every failure to the
// same iteration through the same rung, replay the same work, and end
// on the bitwise-identical iterate — including with a real async
// Manager, which is what the race detector is pointed at.
func TestDriveReproducesTheBenchLoop(t *testing.T) {
	for _, w := range benchShapes() {
		t.Run(w.name, func(t *testing.T) {
			want, got := w.viaCallbackLoop(t), w.viaDrive(t)
			if len(want.recovered) != len(w.failures) {
				t.Fatalf("reference loop saw %d of %d failures (solve too short: %d steps)", len(want.recovered), len(w.failures), want.steps)
			}
			if got.steps != want.steps || got.checkpoints != want.checkpoints || got.replayed != want.replayed {
				t.Errorf("driver: steps=%d checkpoints=%d replayed=%d; bench loop: steps=%d checkpoints=%d replayed=%d",
					got.steps, got.checkpoints, got.replayed, want.steps, want.checkpoints, want.replayed)
			}
			if !reflect.DeepEqual(got.recovered, want.recovered) {
				t.Errorf("recoveries differ:\ndriver     %v\nbench loop %v", got.recovered, want.recovered)
			}
			if !sameBits(got.x, want.x) {
				t.Error("final iterates are not bitwise identical")
			}
		})
	}
}
