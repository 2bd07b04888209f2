// Package lossyckpt is the public facade of this reproduction of
// "Improving Performance of Iterative Methods by Lossy Checkpointing"
// (Tao, Di, Liang, Chen, Cappello — HPDC'18).
//
// The package re-exports the user-facing pieces of the internal
// implementation:
//
//   - iterative solvers (Jacobi/Gauss-Seidel/SOR/SSOR, CG, GMRES(k))
//     with a step-level API and restart support,
//   - error-bounded lossy compressors (SZ-like and ZFP-like) plus
//     lossless baselines,
//   - an FTI-like checkpoint/restart library (Protect/Checkpoint/
//     Recover) with pluggable storage and encoders,
//   - the paper's lossy checkpointing scheme connecting the two
//     (Manager), including the Theorem-3 adaptive error bound for
//     GMRES,
//   - the analytic performance model (Young's interval, overhead
//     equations, Theorems 1–3),
//   - and the experiment registry that regenerates every table and
//     figure of the paper's evaluation.
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
//	    _, err := mgr.MaybeCheckpoint()
//	    return err
//	})
//
// # Performance
//
// The two hot paths of the lossy-checkpointing argument — the
// compressor and the solver inner loop — are parallel:
//
// Every compressed vector — SZ, ZFP, FPC or flate — is framed in one
// blocked container ("BLK1"): it is split into fixed-size blocks
// (SZParams.BlockSize elements, default 32,768 = 256 KiB) that
// compress and decompress independently, each with its own predictor
// state and Huffman table or DEFLATE window, across a worker pool
// sized by GOMAXPROCS, decode in place, and give sharded checkpoints
// their cut points. The pointwise error bound of every SZ mode is
// preserved exactly (RelRange converts to an absolute bound using the
// global value range before blocking), the output bytes are
// schedule-independent, and ZFP's blocks are pinned to transform-block
// multiples so they reconstruct the bits one stream over the whole
// vector would. There is one format: a stream in a retired one (the
// SZ-only containers, a bare zfp/fpc/flate vector) is an error naming
// its magic.
//
// Sparse matrix-vector products (CSR.MulVec / MulVecSub) partition by
// row ranges above ~32k nonzeros; each row accumulates in serial
// order, so parallel results are bitwise identical to serial ones and
// convergence traces do not change. Smaller systems stay on the serial
// path. BLAS-1 kernels (Dot, Norm2, NormInf) use 4-way unrolled
// independent accumulators.
//
// Checkpointing itself is asynchronous on request: ManagerConfig.Async
// (or fti.NewAsync around a Checkpointer) routes checkpoints through a
// three-stage pipeline — synchronous capture (a deep copy into a
// double buffer, the only part the solver waits for), background
// encode through the blocked compressor, background storage write. At
// most one checkpoint is in flight; a second request blocks until the
// first commits (backpressure), and a background failure is surfaced
// on the next Checkpoint call. Recovery drains the in-flight write
// first, and a write that never completed falls back to the previous
// committed checkpoint, exactly like the paper's failure-during-
// checkpoint path. The numerics are unaffected: async and sync runs
// produce bitwise-identical convergence traces. The analytic model
// mirrors this with a capture-stall-only cost: AsyncEffectiveStall
// (capture + max(0, encode+write − interval)) replaces Tckp in
// Eq. (5)/(8), and the virtual-time simulator's AsyncCheckpoint mode
// charges exactly that stall while background writes occupy simulated
// time concurrently with iterations.
//
// The storage stage itself shards on request: ManagerConfig.Shards
// (or (*Checkpointer).SetSharding) splits every checkpoint into N
// shard objects written concurrently by a bounded worker pool
// (ManagerConfig.StorageWorkers), with cut points aligned to the container's
// compression-block boundaries, plus a small manifest — shard names,
// sizes, per-shard CRC32C checksums, encoder mode — committed last.
// A checkpoint exists exactly when its manifest does: shards without a
// manifest (a crashed write) are orphans that recovery ignores and gc
// sweeps, and a group with any missing or checksum-corrupted shard is
// rejected whole, so recovery falls back to the previous committed
// checkpoint, the paper's failure-during-checkpoint path again.
// Sharded and monolithic checkpoints coexist in one storage directory,
// and convergence traces are bitwise independent of the layout. The
// cluster model prices the layout via striped-PFS bandwidth:
// per-stripe bandwidth × min(shards, stripes)
// (cluster.Model.ShardedCheckpointSeconds, keyed off
// CheckpointInfo.Shards).
//
// The restore path streams symmetrically: a sharded checkpoint is
// decoded without reassembling its payload — each worker reads its
// shard, verifies its CRC32C, and block-decodes the compression
// blocks it holds straight into the destination vectors, overlapping
// read, checksum, and decode across shards. Recover decodes directly
// into the registered (protected) variables when lengths match, so a
// restart performs no whole-payload buffer allocation and no
// decode-then-copy; the redundant whole-payload CRC is skipped for
// sharded groups (per-shard CRC32C already covered every byte) and
// kept for monolithic ones, which are walked by the same parser as a
// group of one chunk. Every encoder decodes in place (DecodeInto is
// part of the encoder contract, not an extension). The cluster model prices
// restarts the same way (cluster.Model.ShardedRecoverySeconds:
// per-stripe read bandwidth × min(shards, stripes), saturating at the
// read aggregate, overlapped with decompress-per-core).
//
// One loop walks the checkpoint lifecycle — step, failure?, due?,
// capture/encode/write, commit or abort, tiered recovery, rollback —
// for every kind of run: Drive. Its three inputs are a clock, a cost
// source (nil: measured on the clock; set: modelled, which is all the
// virtual-time simulator is) and a failure source. The checkpoint
// cadence it owns can close the loop on the model:
// DriveConfig.Controller (sim.Config.Controller in the virtual-time
// simulator) plugs in the online interval controller —
// EWMA estimators over the measured per-checkpoint stage timings
// (capture/encode/write seconds and bytes in/out now surfaced on every
// CheckpointInfo), a censored-exponential posterior over observed
// failures (NewFailureRateEstimator), and a re-plan of the optimal
// interval each planning epoch via Young's √(2·C·M) or Daly's
// higher-order formula (DalyInterval). Asynchronous runs solve the
// fixed point τ = policy(M̂, AsyncEffectiveStall(t̂cap, t̂bg, τ)), so the
// planned interval reflects the overlapped stall rather than the raw
// checkpoint cost. The controller is a pure state machine driven on
// the caller's clock: simulated runs are bitwise reproducible —
// same seed and failure trace, same interval trajectory.
//
// Recovery itself is tiered: an ABFTGuard wired into
// ManagerConfig.ABFT retains per-iteration algorithmic redundancy
// (exact-state CG/PCG reconstruction, or a backward/forward hybrid for
// restartable solvers), and Manager.RecoverTiered then runs the full
// chain after a failure — checkpoint-free ABFT reconstruction, the
// latest committed checkpoint, older checkpoints, restart-from-zero —
// accepting the highest tier that verifies (bitwise checksums over the
// retained state, a true-residual band over the reconstruction) and
// reporting every attempt's cost in a RecoveryReport. A
// ChecksumOperator adds Huang–Abraham verification of every
// matrix-vector product for silent-corruption detection. The
// deterministic fault-injection harness (ParseFailurePlan, the
// cmd/solve -inject flag) drives seeded process losses and targeted
// corruptions of retained state, shards and manifests to exercise
// every rung of the chain.
//
// The whole pipeline is observable without being perturbable:
// Manager.Instrument wires a MetricsRegistry and LifecycleTracer
// through every layer it owns (fti stage timings and byte counts,
// shard fan-out, ABFT guard verdicts, per-tier recovery outcomes;
// IntervalController.Instrument adds the controller's re-plans), emitting per-stage spans on a Chrome
// trace_event timeline. Both are nil-safe — uninstrumented runs pay
// nothing — and instrumentation is a pure observer: instrumented and
// uninstrumented runs produce bitwise-identical convergence traces.
// The driver under modelled costs (sim.Config.Metrics/Tracer) emits
// the same span schema on its virtual clock, and cmd/solve serves everything live
// (-debug-addr) or as exit artifacts (-metrics-out, -trace-out).
//
// The storage layer beneath all of this is fault-tolerant: wrapping
// any Storage in NewResilientStorage classifies every error
// (transient / permanent / corruption), absorbs transient PFS faults
// with capped exponential backoff under a per-op retry and time
// budget, and fails fast on permanent ones. Commit-protocol crash points (a torn temp
// file, an unrenamed temp, shards without a manifest, a partial
// manifest) are enumerated and swept by FsckStorage at startup, so
// List exposes only fully committed checkpoints; a background
// StorageScrubber CRC-verifies committed groups between checkpoints
// and repairs latent corruption from retained state before a restart
// ever needs the bytes. ManagerConfig.DegradedWrites keeps the solver
// iterating when a save fails anyway — a failed checkpoint degrades
// the retention window, never the solve. The deterministic harness
// drives all of it: StorageInjector (and the -inject grammar's
// storagewrite/storageread/slowio/crash kinds, with N..M/S iteration
// ranges for sustained campaigns) injects seeded fault mixes that the
// wrapper must absorb with a bitwise-unchanged convergence trace, and
// the sim/cluster models price the expected retry delay per
// checkpoint (cluster.Model.StorageRetrySeconds).
//
// Knobs: GOMAXPROCS sizes the pool; SetParallelWorkers overrides it
// (SetParallelWorkers(1) forces serial execution, useful for
// reproducing single-core baselines); SZParams.BlockSize trades
// per-block Huffman-table overhead against parallelism;
// (*Checkpointer).SetKeep sets the checkpoint retention window
// (default 2, minimum 1); (*Checkpointer).SetSharding sets the shard
// count and storage worker bound. Checkpoint encode buffers are reused
// across checkpoints — double-buffered in the async pipeline — so a
// custom Storage implementation must not retain the byte slice passed
// to Write, must not recycle buffers returned by Read, and must be
// safe for concurrent use (the background writer runs while
// recovery-side reads may be issued, and the shard pool issues
// concurrent writes/reads for distinct names); see fti.Storage for the
// full ownership contract and the manifest+shard object layout.
//
// Benchmarks: go test -bench 'SZCompressParallel|CSRMulVecParallel'
// compares serial and parallel sub-benchmarks on 1M-element states
// and the 100³ Poisson operator; go test -bench CheckpointStall
// compares the solver-visible stall of sync vs async checkpoints;
// go test -bench ShardedWrite compares monolithic and sharded storage
// throughput on the same workload.
package lossyckpt

import (
	"repro/internal/abft"
	"repro/internal/adapt"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/failure"
	"repro/internal/fti"
	"repro/internal/fti/shard"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/quality"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/sz"
)

// ---- Parallelism knobs ------------------------------------------------------

// SetParallelWorkers overrides the worker count used by the blocked
// compressor and the parallel matrix kernels, returning the previous
// override (0 means "track GOMAXPROCS"). Pass 0 to restore the
// default; pass 1 to force serial execution.
func SetParallelWorkers(n int) int { return parallel.SetWorkers(n) }

// ParallelWorkers reports the effective worker count.
func ParallelWorkers() int { return parallel.Workers() }

// ---- Sparse matrices and problem generators --------------------------------

// CSR is a compressed-sparse-row matrix.
type CSR = sparse.CSR

// MatrixBuilder accumulates COO entries into a CSR matrix.
type MatrixBuilder = sparse.Builder

// NewMatrixBuilder returns a builder for a rows×cols matrix.
func NewMatrixBuilder(rows, cols int) *MatrixBuilder { return sparse.NewBuilder(rows, cols) }

// Poisson3D builds the paper's Eq. (15) operator on an n×n×n grid.
func Poisson3D(n int) *CSR { return sparse.Poisson3D(n) }

// Poisson3DAniso builds the 7-point operator on an nx×ny×nz grid.
func Poisson3DAniso(nx, ny, nz int) *CSR { return sparse.Poisson3DAniso(nx, ny, nz) }

// Poisson2D builds the 5-point operator on an n×n grid.
func Poisson2D(n int) *CSR { return sparse.Poisson2D(n) }

// KKT builds a symmetric indefinite saddle-point system (the Fig. 3
// workload class).
func KKT(gridN, nc int, seed int64) *CSR { return sparse.KKT(gridN, nc, seed) }

// OnesRHS returns the all-ones right-hand side.
func OnesRHS(n int) []float64 { return sparse.OnesRHS(n) }

// SmoothField samples a smooth synthetic field (a realistic solver
// state / forcing).
func SmoothField(n int, seed int64) []float64 { return sparse.SmoothField(n, seed) }

// RHSForSolution returns b = A·xExact.
func RHSForSolution(a *CSR, xExact []float64) []float64 { return sparse.RHSForSolution(a, xExact) }

// ---- Solvers ----------------------------------------------------------------

// SolverOptions configure convergence testing.
type SolverOptions = solver.Options

// Stepper is the iteration-level solver interface.
type Stepper = solver.Stepper

// Result summarizes a solve.
type Result = solver.Result

// SeqSpace is the sequential reduction space.
type SeqSpace = solver.SeqSpace

// CG is the preconditioned conjugate gradient solver.
type CG = solver.CG

// GMRES is the restarted GMRES(k) solver.
type GMRES = solver.GMRES

// Stationary covers Jacobi/Gauss-Seidel/SOR/SSOR.
type Stationary = solver.Stationary

// StationaryKind selects the stationary sweep.
type StationaryKind = solver.StationaryKind

// Stationary method kinds.
const (
	KindJacobi      = solver.KindJacobi
	KindGaussSeidel = solver.KindGaussSeidel
	KindSOR         = solver.KindSOR
	KindSSOR        = solver.KindSSOR
)

// NewCG constructs a CG solver; see solver.NewCG.
var NewCG = solver.NewCG

// NewGMRES constructs a GMRES(k) solver; see solver.NewGMRES.
var NewGMRES = solver.NewGMRES

// NewStationary constructs a stationary solver; see solver.NewStationary.
var NewStationary = solver.NewStationary

// RunToConvergence drives a Stepper to convergence with an optional
// per-iteration callback.
var RunToConvergence = solver.RunToConvergence

// ---- Compression -------------------------------------------------------------

// SZParams configure the SZ-like compressor.
type SZParams = sz.Params

// SZMode selects the error-bound interpretation.
type SZMode = sz.Mode

// Error-bound modes.
const (
	AbsBound = sz.Abs
	RelRange = sz.RelRange
	PWRel    = sz.PWRel
)

// CompressSZ compresses with the SZ-like error-bounded compressor.
var CompressSZ = sz.Compress

// DecompressSZ reverses CompressSZ.
var DecompressSZ = sz.Decompress

// DecompressSZInto reverses CompressSZ into a caller-provided slice
// whose length must equal the stream's element count — the zero-copy
// decode the streaming restore path is built on.
var DecompressSZInto = sz.DecompressInto

// ---- Blocked container codecs ------------------------------------------------

// BlockedFPC is the lossless FPC codec behind the blocked container —
// plug into LosslessEncoder for parallel lossless checkpoints.
type BlockedFPC = codec.BlockedFPC

// BlockedFlate is the lossless DEFLATE codec behind the blocked
// container.
type BlockedFlate = codec.BlockedFlate

// ---- Checkpoint/restart -------------------------------------------------------

// Checkpointer is the FTI-like Protect/Checkpoint/Recover library.
type Checkpointer = fti.Checkpointer

// Storage is where checkpoints live.
type Storage = fti.Storage

// CheckpointInfo reports the cost of one checkpoint.
type CheckpointInfo = fti.Info

// CheckpointSnapshot is one checkpoint's content (iteration, scalars,
// vectors), for direct Checkpointer/AsyncCheckpointer use.
type CheckpointSnapshot = fti.Snapshot

// NewCheckpointer wraps storage with an encoder.
var NewCheckpointer = fti.New

// AsyncCheckpointer is the three-stage asynchronous checkpoint
// pipeline: synchronous capture, background encode, background write.
type AsyncCheckpointer = fti.AsyncCheckpointer

// CheckpointTicket identifies one asynchronous save (Done/Wait).
type CheckpointTicket = fti.Ticket

// AsyncCheckpointStats accounts capture/backpressure/background time.
type AsyncCheckpointStats = fti.AsyncStats

// NewAsyncCheckpointer wraps a Checkpointer in the async pipeline.
var NewAsyncCheckpointer = fti.NewAsync

// NewMemStorage returns an in-memory checkpoint store.
var NewMemStorage = fti.NewMemStorage

// NewDirStorage returns a directory-backed checkpoint store.
var NewDirStorage = fti.NewDirStorage

// ShardManifest describes a committed sharded checkpoint: encoder
// mode, total payload length, and the shard objects with their sizes
// and CRC32C checksums.
type ShardManifest = shard.Manifest

// ShardInfo describes one shard object of a manifest.
type ShardInfo = shard.Info

// ParseShardManifest decodes and validates a manifest object (crafted
// sizes and shard counts are rejected before any allocation).
var ParseShardManifest = shard.ParseManifest

// IsShardManifest reports whether a stored object is a shard manifest
// rather than a monolithic checkpoint payload.
var IsShardManifest = shard.IsManifest

// RawEncoder stores vectors verbatim (traditional checkpointing).
type RawEncoder = fti.Raw

// SZEncoder stores vectors through the lossy compressor.
type SZEncoder = fti.SZ

// ZFPEncoder stores vectors through the ZFP-like transform codec, in
// blocks of ZFPEncoder.BlockElems elements (transform-block aligned,
// so the blocks decode to the bits of one stream over the vector).
type ZFPEncoder = fti.ZFP

// LosslessEncoder stores vectors through a lossless codec — wrap
// BlockedFPC or BlockedFlate for the parallel blocked containers.
type LosslessEncoder = fti.Lossless

// ---- Fault-tolerant storage ---------------------------------------------------

// StorageFaultPolicy tunes the resilient storage wrapper: retry count,
// capped exponential backoff with seeded jitter, and the per-op time
// budget.
type StorageFaultPolicy = fti.FaultPolicy

// ResilientStorage wraps any Storage with error classification,
// bounded retry/backoff for transient faults and fail-fast on
// permanent ones — the solver above it never sees a transient PFS
// error.
type ResilientStorage = fti.Resilient

// NewResilientStorage wraps a Storage under a policy (zero value =
// defaults: 4 retries, 2ms base / 250ms cap backoff).
var NewResilientStorage = fti.NewResilient

// StorageErrClass is the retry layer's error taxonomy.
type StorageErrClass = fti.ErrClass

// The error classes.
const (
	StorageErrTransient  = fti.ClassTransient
	StorageErrPermanent  = fti.ClassPermanent
	StorageErrCorruption = fti.ClassCorruption
)

// ClassifyStorageError classifies an error (self-classifying errors
// via the fti.Classifier interface win; syscall errnos and sentinel
// errors otherwise).
var ClassifyStorageError = fti.ClassifyError

// StorageFaultError is the terminal error of an exhausted or
// fail-fast storage op: op, object name, attempt count, class, cause.
type StorageFaultError = fti.FaultError

// StorageRetryStats snapshots a ResilientStorage's accounting.
type StorageRetryStats = fti.RetryStats

// AsyncSaveError wraps a background save failure with the op, the
// checkpoint name, and the attempt count the retry layer reported.
type AsyncSaveError = fti.AsyncSaveError

// FsckStorage sweeps a storage namespace at startup: stale temp files
// unlinked, orphan shards and uncommitted groups GC'd, so List
// exposes only fully committed checkpoints afterwards.
var FsckStorage = fti.Fsck

// FsckReport is what a startup sweep found and removed.
type FsckReport = fti.FsckReport

// TempSweeper is the optional Storage extension the fsck sweep uses
// to unlink stale temp files (DirStorage implements it).
type TempSweeper = fti.TempSweeper

// StorageScrubber CRC-verifies committed checkpoints in the
// background and repairs latent corruption from retained state — or
// GC's an unrepairable group when an intact sibling exists.
type StorageScrubber = fti.Scrubber

// NewStorageScrubber builds a scrubber over a storage namespace; wire
// it to a Checkpointer with (*Checkpointer).AttachScrubber so the
// newest group stays repairable from memory.
var NewStorageScrubber = fti.NewScrubber

// StorageScrubStats counts sweeps, corruptions, repairs and drops.
type StorageScrubStats = fti.ScrubStats

// StorageInjector interposes seeded storage faults (transient and
// permanent read/write errors, slow ops, mid-commit crashes) under
// the resilient wrapper — the deterministic harness behind the
// storagewrite/storageread/slowio/crash injection kinds.
type StorageInjector = failure.StorageInjector

// NewStorageInjector seeds an injector over a Storage.
var NewStorageInjector = failure.NewStorageInjector

// StorageFaultProfile configures an injector's continuous fault
// campaign (per-attempt rate, transient fraction, first-attempt
// determinism, slow-op delay).
type StorageFaultProfile = failure.StorageProfile

// StorageInjectStats counts what an injector did.
type StorageInjectStats = failure.InjectStats

// ErrStorageCrashed is every operation's error between an injected
// crash and revival.
var ErrStorageCrashed = failure.ErrCrashed

// ---- The paper's scheme --------------------------------------------------------

// Scheme selects traditional, lossless, or lossy checkpointing.
type Scheme = core.Scheme

// The three checkpointing schemes.
const (
	Traditional = core.Traditional
	LosslessGz  = core.Lossless
	Lossy       = core.Lossy
)

// ManagerConfig assembles a Manager.
type ManagerConfig = core.Config

// Manager wires a solver to checkpoint storage under a scheme.
type Manager = core.Manager

// NewManager builds a Manager; see core.NewManager.
var NewManager = core.NewManager

// RegisterStatics checkpoints A and b once (static variables).
var RegisterStatics = core.RegisterStatics

// ---- Tiered ABFT recovery --------------------------------------------------------

// ABFTGuard retains per-iteration algorithmic redundancy over a solver
// so a lost rank's block can be reconstructed without any checkpoint:
// exact-state reconstruction for CG/PCG (retained r, p, ρ plus a local
// solve of the failed block), or the backward/forward hybrid for
// restartable solvers (periodically retained x spliced into a
// restart). Wire into ManagerConfig.ABFT to arm the recovery chain's
// first tier.
type ABFTGuard = abft.Guard

// ABFTConfig assembles an ABFTGuard.
type ABFTConfig = abft.Config

// ABFTMethod selects the reconstruction algorithm.
type ABFTMethod = abft.Method

// Reconstruction methods.
const (
	ABFTExactState      = abft.ExactState
	ABFTBackwardForward = abft.BackwardForward
)

// ABFTRecon reports one accepted reconstruction (rank, iteration,
// local-solve iterations, verification residuals).
type ABFTRecon = abft.Recon

// ABFTStats counts a guard's observes, reconstructions and rejections.
type ABFTStats = abft.Stats

// NewABFTGuard builds an ABFTGuard over an operator, right-hand side
// and solver.
var NewABFTGuard = abft.NewGuard

// ChecksumOperator wraps a CSR operator with Huang–Abraham checksum
// verification of every matrix-vector product — silent-corruption
// detection on the solver's hot path, numerics untouched.
type ChecksumOperator = abft.ChecksumOperator

// NewChecksumOperator precomputes the column-sum checksum vector.
var NewChecksumOperator = abft.NewChecksumOperator

// RecoveryTier names one rung of the tiered recovery chain.
type RecoveryTier = core.RecoveryTier

// The chain's tiers, tried in order by Manager.RecoverTiered.
const (
	TierABFT               = core.TierABFT
	TierCheckpoint         = core.TierCheckpoint
	TierPreviousCheckpoint = core.TierPreviousCheckpoint
	TierRestartZero        = core.TierRestartZero
)

// TierAttempt is one tier try: accepted or not, and what it cost.
type TierAttempt = core.TierAttempt

// RecoveryReport is the outcome of one Manager.RecoverTiered call.
type RecoveryReport = core.RecoveryReport

// RecoveryObservation is one completed recovery's measured cost with
// its tier flavor (RestartIO=false for ABFT reconstructions), fed to
// the interval controller's ObserveRecoveryKind so checkpoint-free
// recoveries never contaminate the I/O restart-cost estimate.
type RecoveryObservation = adapt.RecoveryObs

// FailureKind is one injectable fault of the deterministic harness.
type FailureKind = failure.Kind

// The injectable fault kinds (the -inject spec grammar's names).
const (
	FailProcLoss        = failure.ProcLoss
	FailCorruptABFT     = failure.CorruptABFT
	FailCorruptShard    = failure.CorruptShard
	FailCorruptManifest = failure.CorruptManifest
	FailMidCheckpoint   = failure.MidCheckpoint
	FailStorageWrite    = failure.StorageWriteFault
	FailStorageRead     = failure.StorageReadFault
	FailSlowIO          = failure.SlowIO
	FailCrash           = failure.Crash
)

// FailurePlan is a parsed deterministic injection schedule.
type FailurePlan = failure.Plan

// ParseFailurePlan parses a `kind(+kind)*@iter(,...)` injection spec
// into a seeded plan.
var ParseFailurePlan = failure.ParsePlan

// ParseFailureKind parses one fault-kind name.
var ParseFailureKind = failure.ParseKind

// CorruptLatestShard flips bytes in a random shard of the newest
// stored checkpoint (fault injection for recovery testing).
var CorruptLatestShard = failure.CorruptLatestShard

// CorruptLatestManifest corrupts the newest checkpoint's manifest (or
// monolithic object), forcing recovery onto an older checkpoint.
var CorruptLatestManifest = failure.CorruptLatestManifest

// ---- Adaptive checkpoint interval ------------------------------------------------

// IntervalController is the online checkpoint-interval controller:
// EWMA cost estimators + censored failure-rate posterior + Young/Daly
// re-planning (the AsyncEffectiveStall fixed point in async mode).
// Plug into DriveConfig.Controller (or sim.Config.Controller).
type IntervalController = adapt.Controller

// Drive runs a solver to convergence through the whole checkpoint
// lifecycle — periodic or controller-planned saves, failures from
// DriveConfig.Failures, tiered recovery — on the wall clock with
// measured costs, or in virtual time when DriveConfig.Costs models
// them.
var Drive = core.Drive

// DriveConfig assembles one Drive call.
type DriveConfig = core.DriveConfig

// IntervalControllerConfig assembles an IntervalController.
type IntervalControllerConfig = adapt.Config

// NewIntervalController builds an IntervalController.
var NewIntervalController = adapt.New

// IntervalPolicy selects the optimal-interval formula a re-plan solves.
type IntervalPolicy = adapt.Policy

// Interval policies.
const (
	IntervalPolicyDaly  = adapt.PolicyDaly
	IntervalPolicyYoung = adapt.PolicyYoung
)

// CheckpointObservation is one completed checkpoint's measured cost,
// fed to the controller's ObserveCheckpoint.
type CheckpointObservation = adapt.CheckpointObs

// IntervalPlan is one re-planning decision (time, interval, and the
// estimates it was made from).
type IntervalPlan = adapt.Plan

// IntervalEstimates snapshots the controller's current beliefs.
type IntervalEstimates = adapt.Estimates

// EstimateFailureRate is the censored-exponential MLE of a failure
// rate from observed inter-failure gaps plus failure-free tail time.
var EstimateFailureRate = failure.EstimateRate

// FailureRateEstimator is the incremental, prior-backed posterior the
// controller estimates λ with.
type FailureRateEstimator = failure.RateEstimator

// NewFailureRateEstimator builds a FailureRateEstimator from a prior
// MTTI worth `weight` pseudo-failures of evidence.
var NewFailureRateEstimator = failure.NewRateEstimator

// ---- Performance model ----------------------------------------------------------

// YoungInterval is Eq. (1): the optimal checkpoint interval.
var YoungInterval = model.YoungInterval

// DalyInterval is Daly's higher-order optimal checkpoint interval,
// accurate even when the checkpoint cost approaches the MTTI.
var DalyInterval = model.DalyInterval

// ExpectedOverheadRatio is Eq. (5).
var ExpectedOverheadRatio = model.ExpectedOverheadRatio

// LossyOverheadRatio is Eq. (8).
var LossyOverheadRatio = model.LossyOverheadRatio

// MaxExtraIterations is Theorem 1 (Eq. 9).
var MaxExtraIterations = model.MaxExtraIterations

// StationaryExtraIterations is Theorem 2's pointwise bound.
var StationaryExtraIterations = model.StationaryExtraIterations

// AsyncEffectiveStall is the solver-visible stall per asynchronous
// checkpoint: capture + max(0, encode+write − interval).
var AsyncEffectiveStall = model.AsyncEffectiveStall

// AsyncOverheadRatio is Eq. (5) with the overlapped checkpoint cost.
var AsyncOverheadRatio = model.AsyncOverheadRatio

// GMRESAdaptiveBound is Theorem 3's adaptive error bound.
var GMRESAdaptiveBound = model.GMRESAdaptiveBound

// ---- Observability ---------------------------------------------------------------

// MetricsRegistry is the dependency-free metrics registry: atomic
// counters, gauges, and fixed-bucket histograms with labeled child
// scopes, snapshot-able and mergeable, written as Prometheus text or
// JSON. A nil *MetricsRegistry is fully usable — every handle it
// hands out no-ops — so instrumented code pays nothing when metrics
// are off. Wire into a Manager with Manager.Instrument, or into the
// virtual-time simulator via sim.Config.Metrics; cmd/solve exposes it
// live on -debug-addr and at exit via -metrics-out.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry builds an empty registry.
var NewMetricsRegistry = obs.New

// MetricCounter is a monotonically increasing counter handle.
type MetricCounter = obs.Counter

// MetricGauge is a last-value gauge handle.
type MetricGauge = obs.Gauge

// MetricHistogram is a fixed-bucket histogram handle.
type MetricHistogram = obs.Histogram

// MetricLabel is one key=value label on a registry scope.
type MetricLabel = obs.Label

// MetricsSnapshot is a point-in-time copy of a registry, safe to
// merge (across shards or processes) and serialize.
type MetricsSnapshot = obs.Snapshot

// MetricData is one metric inside a MetricsSnapshot.
type MetricData = obs.MetricData

// LatencyBuckets are the default histogram bounds for durations in
// seconds; ByteBuckets for sizes in bytes.
var (
	LatencyBuckets = obs.LatencyBuckets
	ByteBuckets    = obs.ByteBuckets
)

// ValidMetricName reports whether a name follows the repository's
// subsystem_name_unit convention (internal/obs/names.go is the single
// source of truth for the catalog).
var ValidMetricName = obs.ValidMetricName

// LifecycleTracer records structured spans for every checkpoint stage
// (capture → encode → write → shard-commit) and recovery attempt,
// exported as Chrome trace_event JSON (chrome://tracing, Perfetto).
// Nil tracers no-op like nil registries. Real runs stamp wall clocks;
// the simulator emits the same span schema on its virtual clock.
type LifecycleTracer = obs.Tracer

// TraceSpanEvent is one recorded span or instant from a tracer.
type TraceSpanEvent = obs.SpanEvent

// NewLifecycleTracer builds a wall-clock tracer.
var NewLifecycleTracer = obs.NewTracer

// NewLifecycleTracerWithClock builds a tracer on a caller-provided
// clock (the virtual-time simulator's, in simulated runs).
var NewLifecycleTracerWithClock = obs.NewTracerWithClock

// ---- Numerical telemetry ---------------------------------------------------------

// QualityAuditor audits the distortion committed checkpoints actually
// introduced (observed vs requested bound, PSNR, compression ratio —
// sampled, via the encoders' encode-path accumulators or a decode
// cross-check) and attributes each recovery's convergence delay (the
// paper's N′, realized). It is strictly observational — instrumented
// runs converge bitwise-identically — and nil-safe. Attach with
// Manager.InstrumentQuality (and sim.Config.Quality for virtual-time
// runs); feed residuals once per iteration via ObserveResidual.
type QualityAuditor = quality.Auditor

// QualityConfig tunes the auditor (sampling cadence, exhaustive
// decode verification, ‖b‖ and c for the stability verdict).
type QualityConfig = quality.Config

// NewQualityAuditor builds a QualityAuditor.
var NewQualityAuditor = quality.New

// QualityRecord is one audited vector of one committed checkpoint.
type QualityRecord = quality.Record

// CheckpointDistortion aggregates a checkpoint's audited vectors —
// the shape RecoveryReport.AdoptedDistortion tags adopted state with.
type CheckpointDistortion = quality.Distortion

// RecoveryAttribution is one recovery's realized convergence delay:
// realized N′ and iterations until the failure-point residual was
// reacquired.
type RecoveryAttribution = quality.RecoveryEntry

// RunReport is the versioned JSON artifact unifying the cost table,
// metrics snapshot, per-checkpoint quality records, recovery
// attributions, and the stability verdict (cmd/solve -report-out,
// served live at /report on -debug-addr).
type RunReport = quality.RunReport

// RunReportInfo identifies the run a RunReport describes.
type RunReportInfo = quality.RunInfo

// RunReportCostLine is one phase of a RunReport's cost table.
type RunReportCostLine = quality.CostLine

// StabilityVerdict classifies a run's lossy checkpoints against the
// Fox et al. inline-compression stability region (bound within
// c·‖r‖/‖b‖ at each save).
type StabilityVerdict = quality.StabilityVerdict

// RunReportSchema versions the RunReport JSON layout.
const RunReportSchema = quality.ReportSchema

// ---- Experiments -----------------------------------------------------------------

// ExperimentConfig tunes an experiment run.
type ExperimentConfig = experiments.Config

// ExperimentResult is a rendered experiment outcome.
type ExperimentResult = experiments.Result

// RunExperiment regenerates a table/figure by ID (fig1…fig10, table3).
var RunExperiment = experiments.Run

// ExperimentIDs lists all reproducible artifacts.
var ExperimentIDs = experiments.IDs
