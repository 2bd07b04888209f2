package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/fti"
	"repro/internal/precond"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/sz"
	"repro/internal/vec"
)

// runSeconds is BENCHMARK.json's run_seconds: the measuring time the
// rep counts below were calibrated to on the 2-vCPU sandbox.
const runSeconds = 10

// workload is one fixed configuration of system, solver, checkpoint
// scheme and failure rate. Sizes, cadences and reps are constants:
// both sides of an A/B must see identical inputs, so a run does a
// fixed amount of work (reps scale with -seconds) instead of looping
// until a deadline.
type workload struct {
	name   string
	grid   int    // Poisson 3-D grid edge; grid³ unknowns
	method string // cg (IC0-preconditioned), gmres (GMRES(30)), jacobi
	rtol   float64
	cfg    core.Config // Interval is the checkpoint cadence in solver iterations
	gap    int         // one failure per gap harness steps
	reps   int         // solves per run at runSeconds
}

// All four are Poisson 3-D, all-ones right-hand side, zero initial
// guess; BENCHMARK.json and README.md say why each was chosen. The
// grids are smaller than the issue's (100³/56³/40³): the driver makes
// 92 runs in 57 minutes, so a run has to fit in about 20 s, and the
// seed-to-seed spread of a lossy workload's iteration count falls with
// the number of solves a run averages over, not with their size.
var workloads = []workload{
	{
		name: "cg-lossy-sync",
		grid: 48, method: "cg", rtol: 1e-7,
		cfg: core.Config{Scheme: core.Lossy, SZParams: sz.Params{Mode: sz.PWRel, ErrorBound: lossyBound}, Interval: 5},
		gap: 40, reps: 30,
	},
	{
		name: "cg-trad-sync-shard",
		grid: 48, method: "cg", rtol: 1e-7,
		cfg: core.Config{Scheme: core.Traditional, Interval: 5, Shards: 8, StorageWorkers: 2},
		gap: 40, reps: 32,
	},
	{
		name: "gmres-lossy-async",
		grid: 36, method: "gmres", rtol: 1e-7,
		cfg: core.Config{Scheme: core.Lossy, Adaptive: true, AdaptiveC: 1, Async: true, Interval: 10},
		gap: 60, reps: 19,
	},
	{
		name: "jacobi-lossless-failstorm",
		grid: 32, method: "jacobi", rtol: 1e-4,
		cfg: core.Config{Scheme: core.Lossless, Interval: 25},
		gap: 100, reps: 5,
	},
}

// lossyBound is the SZ pointwise-relative bound of cg-lossy-sync (the
// paper's setting) and the fallback of the adaptive GMRES bound.
const lossyBound = 1e-4

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) unknowns() int { return w.grid * w.grid * w.grid }

// nnz is the 7-point stencil's entry count: 7 per row less the
// neighbours the six faces lack.
func (w workload) nnz() int { return 7*w.unknowns() - 6*w.grid*w.grid }

// workingSetBytes is the solver's resident data computed from the
// sizes: CSR matrix, IC0 factor (same pattern's lower triangle) and
// the method's vectors. Computed, not measured.
func (w workload) workingSetBytes() int {
	n, nnz := w.unknowns(), w.nnz()
	matrix := 16*nnz + 8*(n+1)
	switch w.method {
	case "cg":
		return matrix + 16*(nnz+n)/2 + 8*n + 6*8*n
	case "gmres":
		return matrix + (31+4)*8*n
	default:
		return matrix + 5*8*n
	}
}

// system is everything one rep rebuilds: the linear system, the
// solver, and the checkpoint stack cmd/solve deploys — DirStorage,
// Fsck at start-up, the Resilient retry wrapper, the Manager.
type system struct {
	a     *sparse.CSR
	b     []float64
	bnorm float64 // ‖b‖₂, the denominator of the adaptive (Theorem-3) bound
	slv   solver.Checkpointable
	gmres *solver.GMRES // non-nil for gmres: X() lags mid-cycle, CurrentX does not
	mgr   *core.Manager
	dir   string

	precondSetup time.Duration
	layers       *layerClock      // nil unless traced
	store        *countingStorage // nil unless traced
}

// build sets a system up in a fresh directory under ckptRoot. With
// traced set, the operator, space, preconditioner and storage are
// wrapped in the timing decorators; an untraced system runs the
// program's own types end to end.
func (w workload) build(ckptRoot string, traced bool) (*system, error) {
	s := &system{}
	s.a = sparse.Poisson3D(w.grid)
	s.b = sparse.OnesRHS(s.a.Rows)
	s.bnorm = vec.Norm2(s.b)
	opts := solver.Options{RTol: w.rtol}

	var op solver.Operator = s.a
	var space solver.Space = solver.SeqSpace{}
	var pre precond.Interface
	if w.method == "cg" {
		start := time.Now()
		ic, err := precond.NewIC0(s.a)
		if err != nil {
			return nil, fmt.Errorf("%s: IC0: %w", w.name, err)
		}
		s.precondSetup = time.Since(start)
		pre = ic
	}
	if traced {
		s.layers = &layerClock{}
		op = timedOperator{s.a, s.layers}
		space = timedSpace{space, s.layers}
		if pre != nil {
			pre = timedPrecond{pre, s.layers}
		}
	}
	switch w.method {
	case "cg":
		s.slv = solver.NewCG(op, pre, s.b, nil, space, opts)
	case "gmres":
		s.gmres = solver.NewGMRES(op, nil, s.b, nil, 30, space, opts)
		s.slv = s.gmres
	case "jacobi":
		// Stationary takes the concrete matrix, so no decorator reaches
		// its sweep: the whole step is solver.other_s.
		st, err := solver.NewStationary(solver.KindJacobi, s.a, s.b, nil, 0, opts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		s.slv = st
	default:
		return nil, fmt.Errorf("%s: unknown method %q", w.name, w.method)
	}

	if err := os.MkdirAll(ckptRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(ckptRoot, w.name+"-")
	if err != nil {
		return nil, err
	}
	s.dir = dir
	ds, err := fti.NewDirStorage(dir)
	if err != nil {
		return nil, err
	}
	if _, err := fti.Fsck(ds); err != nil {
		return nil, fmt.Errorf("%s: fsck: %w", w.name, err)
	}
	var base fti.Storage = ds
	if traced {
		s.store = &countingStorage{inner: ds}
		base = s.store
	}
	cfg := w.cfg
	cfg.BNorm = s.bnorm // read only when cfg.Adaptive
	s.mgr, err = core.NewManager(cfg, fti.NewResilient(base, fti.FaultPolicy{}), s.slv)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return s, nil
}

// close removes the rep's checkpoint directory.
func (s *system) close() error { return os.RemoveAll(s.dir) }

// x returns the solver's current iterate; for GMRES that is the
// mid-cycle materialisation a checkpoint captures, not the X() of the
// last cycle boundary.
func (s *system) x() []float64 {
	if s.gmres != nil {
		return s.gmres.CurrentX()
	}
	return s.slv.X()
}

// relResidual recomputes ‖b − A·x‖₂/‖b‖₂ with a serial loop of the
// harness's own, independent of the program's SpMV and reductions.
func (s *system) relResidual(x []float64) float64 {
	a := s.a
	var rr, bb float64
	for i := 0; i < a.Rows; i++ {
		r := s.b[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			r -= a.Val[k] * x[a.ColIdx[k]]
		}
		rr += r * r
		bb += s.b[i] * s.b[i]
	}
	return math.Sqrt(rr / bb)
}
