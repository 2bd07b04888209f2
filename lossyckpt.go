// Package lossyckpt is the public facade of this reproduction of
// "Improving Performance of Iterative Methods by Lossy Checkpointing"
// (Tao, Di, Liang, Chen, Cappello — HPDC'18): the names the programs
// under examples/ and the README's quickstart are written in, and no
// others. Everything else — codecs, the FTI-like checkpoint library,
// storage fault handling, ABFT recovery tiers, fault injection,
// observability, the analytic and cluster models, the experiment
// registry — lives under internal/ and is reached through cmd/solve,
// cmd/repro and cmd/szcomp.
//
// A minimal end-to-end use:
//
//	a := lossyckpt.Poisson3D(32)
//	b := lossyckpt.OnesRHS(a.Rows)
//	cg := lossyckpt.NewCG(a, nil, b, nil, lossyckpt.SeqSpace{}, lossyckpt.SolverOptions{RTol: 1e-7})
//	mgr, _ := lossyckpt.NewManager(lossyckpt.ManagerConfig{
//	    Scheme:   lossyckpt.Lossy,
//	    Interval: 100,
//	    SZParams: lossyckpt.SZParams{Mode: lossyckpt.PWRel, ErrorBound: 1e-4},
//	}, lossyckpt.NewMemStorage(), cg)
//	res, _ := lossyckpt.RunToConvergence(cg, lossyckpt.SolverOptions{}, func(it int, rnorm float64) error {
//	    if !mgr.Due() {
//	        return nil
//	    }
//	    _, err := mgr.Checkpoint()
//	    return err
//	})
//
// The Manager checkpoints the solver's dynamic state under one of the
// paper's three schemes and rolls it back with RecoverTiered(x0): the
// newest checkpoint that verifies, an older one, or the initial guess
// x0 (an ABFT guard, when configured, goes first); ManagerConfig.Async and
// ManagerConfig.Shards select the overlapped pipeline and the sharded
// storage layout. Drive walks the whole lifecycle — step, failure?,
// due?, capture/encode/write, commit or abort, recovery, rollback — for
// a solver and a Manager, on a fixed Interval or on the cadence an
// IntervalController re-plans from what each checkpoint cost and when
// each failure struck.
package lossyckpt

import (
	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/fti"
	"repro/internal/model"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/sz"
)

// ---- Sparse matrices and problem generators --------------------------------

// CSR is a compressed-sparse-row matrix.
type CSR = sparse.CSR

// NewMatrixBuilder returns a builder accumulating COO entries into a
// rows×cols CSR matrix.
func NewMatrixBuilder(rows, cols int) *sparse.Builder { return sparse.NewBuilder(rows, cols) }

// Poisson3D builds the paper's Eq. (15) operator on an n×n×n grid.
func Poisson3D(n int) *CSR { return sparse.Poisson3D(n) }

// Poisson2D builds the 5-point operator on an n×n grid.
func Poisson2D(n int) *CSR { return sparse.Poisson2D(n) }

// OnesRHS returns the all-ones right-hand side.
func OnesRHS(n int) []float64 { return sparse.OnesRHS(n) }

// SmoothField samples a smooth synthetic field (a realistic solver
// state / forcing).
func SmoothField(n int, seed int64) []float64 { return sparse.SmoothField(n, seed) }

// ---- Solvers ----------------------------------------------------------------

// SolverOptions configure convergence testing.
type SolverOptions = solver.Options

// SeqSpace is the sequential reduction space.
type SeqSpace = solver.SeqSpace

// NewCG constructs a preconditioned conjugate gradient solver; see
// solver.NewCG.
var NewCG = solver.NewCG

// NewGMRES constructs a restarted GMRES(k) solver; see solver.NewGMRES.
var NewGMRES = solver.NewGMRES

// RunToConvergence drives a solver to convergence with an optional
// per-iteration callback.
var RunToConvergence = solver.RunToConvergence

// ---- The paper's scheme ------------------------------------------------------

// Scheme selects traditional, lossless, or lossy checkpointing.
type Scheme = core.Scheme

// The three checkpointing schemes the paper compares.
const (
	Traditional = core.Traditional
	LosslessGz  = core.Lossless
	Lossy       = core.Lossy
)

// SZParams configure the SZ-like error-bounded compressor of the lossy
// scheme.
type SZParams = sz.Params

// PWRel is the pointwise-relative error-bound mode.
const PWRel = sz.PWRel

// ManagerConfig assembles a Manager.
type ManagerConfig = core.Config

// Manager wires a solver to checkpoint storage under a scheme.
type Manager = core.Manager

// NewManager builds a Manager; see core.NewManager.
var NewManager = core.NewManager

// NewMemStorage returns an in-memory checkpoint store.
var NewMemStorage = fti.NewMemStorage

// GMRESAdaptiveBound is Theorem 3's adaptive error bound.
var GMRESAdaptiveBound = model.GMRESAdaptiveBound

// ---- The checkpoint lifecycle --------------------------------------------------

// Drive runs a solver to convergence through the whole checkpoint
// lifecycle — periodic or controller-planned saves, failures from
// DriveConfig.Failures, tiered recovery — on the wall clock with
// measured costs, or in virtual time when DriveConfig.Costs models
// them; a modelled run carries no metrics, tracer or quality auditor.
var Drive = core.Drive

// DriveConfig assembles one Drive call.
type DriveConfig = core.DriveConfig

// IntervalControllerConfig assembles the online checkpoint-interval
// controller: EWMA cost estimators, a censored failure-rate posterior
// and Daly re-planning, overlapped or not as its observations say.
type IntervalControllerConfig = adapt.Config

// NewIntervalController builds the controller DriveConfig.Controller
// takes.
var NewIntervalController = adapt.New
