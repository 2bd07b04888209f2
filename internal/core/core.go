// Package core implements the paper's contribution: the lossy
// checkpointing scheme for iterative methods (§4.2).
//
// Three schemes are provided, matching the paper's evaluation:
//
//   - Traditional: dynamic variables are checkpointed verbatim
//     (Algorithm 1). For CG that is (i, ρ, p, x); recovery restores
//     them and recomputes r = b − A·x.
//   - Lossless: identical state, but the vectors pass through a
//     lossless codec (the paper's Gzip baseline).
//   - Lossy: only the approximate solution x is checkpointed, through
//     an error-bounded lossy compressor (Algorithm 2). Recovery
//     decompresses x and *restarts* the method with x as a fresh
//     initial guess, rebuilding the Krylov state — the paper's answer
//     to compression errors breaking CG's orthogonality relations.
//
// For GMRES the scheme optionally applies Theorem 3: the compressor's
// pointwise-relative bound is re-derived before every checkpoint as
// eb = O(‖r⁽ᵗ⁾‖/‖b‖), which provably keeps the post-recovery residual
// on the order of the pre-failure residual (expected N′ = 0).
//
// The Manager is the scheme: what a checkpoint captures, how it is
// encoded and committed, and how the recovery chain reinstates the
// solver (RecoverTiered). Drive is the lifecycle around it — when to
// save, where failures land, what each op costs, what the adaptive
// controller is told — as one loop whose clock, cost source and failure
// source are its only inputs, so a modelled run (Costs, FailureTimes)
// and a real one differ in nothing else; a modelled run just carries no
// observers, and metrics, spans and quality audits are the wall clock's.
// Hand-written loops (the examples, bench/) call Due, Checkpoint and
// RecoverTiered themselves.
package core

import (
	"fmt"

	"repro/internal/abft"
	"repro/internal/codec"
	"repro/internal/fti"
	"repro/internal/model"
	"repro/internal/quality"
	"repro/internal/solver"
	"repro/internal/sz"
)

// Scheme selects the checkpoint flavor.
type Scheme int

// The three checkpointing schemes compared throughout the paper.
const (
	Traditional Scheme = iota
	Lossless
	Lossy
)

// String names the scheme as the paper does.
func (s Scheme) String() string {
	switch s {
	case Traditional:
		return "traditional"
	case Lossless:
		return "lossless"
	case Lossy:
		return "lossy"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// Config assembles a Manager.
type Config struct {
	// Scheme picks traditional, lossless, or lossy checkpointing.
	Scheme Scheme
	// Interval checkpoints every Interval iterations (Algorithm 1
	// line 3, "i % ckpt_intvl == 0"). Zero disables periodic
	// checkpoints (explicit Checkpoint calls still work). A cadence in
	// seconds — fixed, or planned online by adapt.Controller — belongs
	// to the loop that owns a clock: DriveConfig.
	Interval int
	// SZParams configure the lossy compressor (ignored otherwise).
	// The zero value means PWRel at 1e-4 — the paper's setting for
	// Jacobi and CG.
	SZParams sz.Params
	// Adaptive enables the Theorem-3 bound: before each checkpoint the
	// pointwise-relative bound is set to AdaptiveC·‖r‖/‖b‖. Requires
	// BNorm. The paper uses this for GMRES.
	Adaptive  bool
	AdaptiveC float64
	// BNorm is ‖b‖ (or ‖M⁻¹b‖ for left-preconditioned GMRES), the
	// denominator of the Theorem-3 bound.
	BNorm float64
	// Async routes checkpoints through the asynchronous pipeline, and is
	// the one switch for overlapped checkpoints: Drive prices a modelled
	// run's saves as overlapped exactly when it is set. Checkpoint
	// returns after the capture (the returned Info is the record as the
	// save opened — Bytes is unknown until the background encode
	// finishes; WaitCheckpoint or LastInfo report the final record), and
	// the encode+write run concurrently with solver iterations. GMRES's
	// capture copies only the cycle's coefficients y: the background
	// copies the cycle-boundary x and adds the basis' correction V·y
	// (counted in EncodeSeconds, not CaptureSeconds), and the solver's
	// next cycle end, convergence or Restart waits until it has.
	// LastInfo reports committed checkpoints only; RecoverTiered drains
	// the in-flight write first, and a background write that failed
	// falls back to the previous committed checkpoint — the paper's
	// failure-during-checkpoint semantics.
	Async bool
	// Shards splits every checkpoint into this many shard objects
	// (written concurrently, cut along container block boundaries) plus a
	// manifest committed last; 0 or 1 keeps the monolithic layout.
	// Recovery from a group with any missing or corrupted shard falls
	// back to the previous committed checkpoint. fti.Info.Shards
	// reports the layout; the modelled price does not depend on it.
	Shards int
	// StorageWorkers bounds the worker pool writing/reading shard
	// objects (0 = GOMAXPROCS-sized; capped at Shards).
	StorageWorkers int
	// DegradedWrites makes a failed checkpoint save non-fatal: instead
	// of surfacing the storage error to the solver loop, Checkpoint
	// (and the async pipeline's deferred error surfacing) swallows it,
	// counts it (DegradedSaves, core_degraded_saves_total), remembers
	// it (LastSaveError), and keeps iterating — the previous committed
	// checkpoint remains the recovery target and the next interval
	// simply tries again. This is the graceful-degradation contract of
	// the fault-tolerant storage layer: a shard write that exhausted
	// its retries costs one checkpoint group, never the solve. Reads are
	// not its business: a checkpoint RecoverTiered cannot read back is a
	// rejected rung, and the chain falls to the next.
	DegradedWrites bool
	// ABFT plugs the algorithm-based recovery guard in as the first
	// tier of RecoverTiered: a failed solve first attempts the
	// checkpoint-free algorithmic reconstruction (verified against the
	// true residual) and only falls back to stored checkpoints when it
	// is rejected. The guard must protect the same solver the Manager
	// wires; the embedding loop must call the guard's Observe after
	// every accepted step.
	ABFT *abft.Guard
}

// Manager connects a solver to a checkpointer under one of the three
// schemes and keeps the bookkeeping the experiments need (bytes
// written, compression ratios, rollback distances).
type Manager struct {
	cfg   Config
	ckpt  *fti.Checkpointer
	async *fti.AsyncCheckpointer // non-nil in async mode
	slv   solver.Checkpointable
	gmres *solver.GMRES // non-nil when the solver is GMRES: X() lags mid-cycle
	xbuf  []float64     // GMRES's iterate a sync save materializes, reused by every capture
	ybuf  []float64     // GMRES's coefficients y an async save copies, likewise

	// The Manager's record of its saves, each one fti.Info. last is the
	// committed checkpoint recovery stands on (Seq 0: none) and prev its
	// predecessor, which AbortLastCheckpoint falls back to. open is the
	// save Checkpoint last opened — as it opened while an async one is in
	// flight, zero when it failed on the spot — and pending is set while
	// that async save's outcome has not been folded in. Whether a save is
	// in flight, and why a background one failed, the pipeline says.
	last, prev, open fti.Info
	pending          bool

	// abft is the optional first recovery tier (Config.ABFT).
	abft *abft.Guard

	// Degraded-writes accounting (Config.DegradedWrites): saves
	// swallowed instead of surfaced, and the most recent one.
	degradedSaves int
	lastSaveErr   error

	// mobs is the observability bundle (all-nil handles when
	// uninstrumented).
	mobs managerObs

	// qa is the numerical-telemetry auditor (nil when uninstrumented):
	// it rides the checkpointer's save-audit hook, and capture hands it
	// the residual of every save. No recovery path calls it.
	qa *quality.Auditor
}

// NewManager wires solver s to storage through the scheme in cfg.
func NewManager(cfg Config, storage fti.Storage, s solver.Checkpointable) (*Manager, error) {
	if cfg.Scheme == Lossy {
		if cfg.SZParams.ErrorBound == 0 {
			cfg.SZParams = sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4}
		}
		if cfg.Adaptive {
			if cfg.AdaptiveC <= 0 {
				cfg.AdaptiveC = 1
			}
			if cfg.BNorm <= 0 {
				return nil, fmt.Errorf("core: adaptive bound requires BNorm > 0")
			}
		}
	}
	if cfg.ABFT != nil && cfg.ABFT.Solver() != s {
		return nil, fmt.Errorf("core: the ABFT guard protects a different solver than the Manager wires")
	}
	m := &Manager{cfg: cfg, slv: s, abft: cfg.ABFT}
	m.gmres, _ = s.(*solver.GMRES)
	m.ckpt = fti.New(storage, m.encoder())
	if err := m.ckpt.SetSharding(cfg.Shards, cfg.StorageWorkers); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.Async {
		m.async = fti.NewAsync(m.ckpt)
	}
	return m, nil
}

// encoder returns the fti encoder for the configured scheme,
// re-deriving the adaptive bound when enabled.
func (m *Manager) encoder() fti.Encoder {
	switch m.cfg.Scheme {
	case Traditional:
		return fti.Raw{}
	case Lossless:
		return fti.Lossless{Codec: codec.BlockedFlate{}}
	default:
		p := m.cfg.SZParams
		if m.cfg.Adaptive {
			eb := model.GMRESAdaptiveBound(m.slv.ResidualNorm(), m.cfg.BNorm, m.cfg.AdaptiveC)
			if eb > 0 {
				p.Mode = sz.PWRel
				p.ErrorBound = eb
			}
		}
		return fti.SZ{Params: p}
	}
}

// Checkpointer exposes the underlying fti.Checkpointer (for statics).
// In async mode, direct use is only safe while no save is in flight
// (WaitCheckpoint drains).
func (m *Manager) Checkpointer() *fti.Checkpointer { return m.ckpt }

// AsyncCheckpointer exposes the asynchronous pipeline, nil unless
// Config.Async is set. Useful for stall accounting (Stats).
func (m *Manager) AsyncCheckpointer() *fti.AsyncCheckpointer { return m.async }

// Due reports whether the periodic checkpoint condition of Algorithm 1
// line 3 holds at the solver's current iteration. An async checkpoint
// captured at this iteration — committed or still in flight — counts
// as taken.
func (m *Manager) Due() bool {
	it := m.slv.Iteration()
	if m.cfg.Interval <= 0 || it == 0 || it%m.cfg.Interval != 0 {
		return false
	}
	// Asked before fold: a save the pipeline no longer holds has
	// finished, so fold then sees how.
	if m.InFlight() && it == m.open.Iteration {
		return false
	}
	m.fold()
	return it != m.last.Iteration
}

// Checkpoint writes a checkpoint now, regardless of the interval, and
// returns its record. In async mode it returns after the capture copy
// with the record as the save opened (Seq, Iteration, EncoderName,
// RawBytes, CaptureSeconds; Bytes unknown until the background encode
// finishes); an error from the previous background save is returned
// here, before a new capture is taken.
func (m *Manager) Checkpoint() (fti.Info, error) {
	if m.async != nil {
		return m.checkpointAsync()
	}
	snap, _ := m.capture()
	m.ckpt.SetEncoder(m.encoder())
	info, err := m.ckpt.Save(snap)
	if m.open = info; err != nil {
		// The save rolled back; in degraded-writes mode the previous
		// committed checkpoint is still the recovery target and the next
		// interval retries.
		return fti.Info{}, m.degrade(err)
	}
	m.commit(info)
	return info, nil
}

// commit makes a written checkpoint the recovery target, keeping its
// predecessor's record for AbortLastCheckpoint to fall back to.
func (m *Manager) commit(info fti.Info) {
	m.prev, m.last = m.last, info
}

// checkpointAsync is the capture-stall-only checkpoint path.
func (m *Manager) checkpointAsync() (fti.Info, error) {
	// Drain first: SetEncoder below mutates the wrapped Checkpointer,
	// which the background stage reads. This is also where the
	// at-most-one-in-flight backpressure lands in the solver's time,
	// so the wait is accounted as backpressure in Stats.
	m.async.WaitBackpressure()
	m.fold()
	if err := m.degrade(m.async.Flush()); err != nil {
		return fti.Info{}, err
	}
	m.ckpt.SetEncoder(m.encoder())
	info, err := m.async.SaveDeferred(m.capture)
	if err != nil {
		return fti.Info{}, err
	}
	m.open, m.pending = info, true
	return info, nil
}

// fold reads the outcome of the async save Checkpoint last opened off
// the pipeline, without blocking: a committed save becomes the recovery
// target; a failed one commits nothing, and its error stays with the
// pipeline, which hands it to the next Flush or SaveAsync.
func (m *Manager) fold() {
	if !m.pending {
		return
	}
	info, done, err := m.async.Peek()
	if !done {
		return
	}
	m.pending = false
	if err == nil {
		m.commit(info)
	}
}

// WaitCheckpoint blocks until no checkpoint is in flight and returns
// the record of the most recent committed checkpoint. In sync mode it
// returns LastInfo immediately. The error, if any, is the failure of
// the drained background save (also cleared from the pipeline).
func (m *Manager) WaitCheckpoint() (fti.Info, error) {
	if m.async == nil {
		return m.last, nil
	}
	err := m.async.Flush()
	m.fold()
	return m.last, m.degrade(err)
}

// degrade swallows — counting and remembering it — a failed save in
// degraded-writes mode, and hands any other error back.
func (m *Manager) degrade(err error) error {
	if err == nil || !m.cfg.DegradedWrites {
		return err
	}
	m.degradedSaves++
	m.lastSaveErr = err
	m.mobs.degraded.Inc()
	return nil
}

// DegradedSaves reports how many checkpoint saves degraded-writes
// mode swallowed instead of surfacing.
func (m *Manager) DegradedSaves() int { return m.degradedSaves }

// LastSaveError returns the most recent save failure swallowed by
// degraded-writes mode, nil if none.
func (m *Manager) LastSaveError() error { return m.lastSaveErr }

// AbortLastCheckpoint models a failure striking while the checkpoint
// Checkpoint last opened was being written: the partial file is
// discarded and the previous checkpoint becomes the recovery target
// again. The driver calls this when a failure lands inside a checkpoint
// window. In async mode the in-flight save is drained first. A save
// that had already failed — on the spot, or in the background, whoever
// drained it — committed nothing, so there is nothing to drop: its
// predecessor stays the recovery target.
func (m *Manager) AbortLastCheckpoint() error {
	m.drain()
	if m.open.Seq == 0 || m.last.Seq != m.open.Seq {
		return nil
	}
	if err := m.ckpt.DropLatest(); err != nil {
		return err
	}
	m.mobs.aborted.Inc()
	// The record rolls back too: LastInfo must describe the checkpoint
	// recovery will actually restore, not the dropped one (a modelled run
	// prices RecoverySeconds off it). Consult storage, not the sequence
	// counter: with keep=1 the gc of the just-dropped checkpoint already
	// removed its predecessor, so the abort can leave nothing to recover
	// from — recovery must then restart from scratch rather than chase a
	// deleted file.
	m.last = m.prev
	if m.ckpt.CheckpointCount() == 0 {
		m.last = fti.Info{}
	}
	return nil
}

// capture builds the scheme's snapshot: full dynamic state for
// traditional/lossless (Algorithm 1 line 4: i, ρ, p, x), solution-only
// for lossy (Algorithm 2 lines 4–5: i, compressed x).
//
// Under every scheme the snapshot aliases state that changes with the
// next solver step — the solver's live vectors, or for a sync GMRES
// save the mid-cycle iterate materialized into the Manager's one
// buffer — and copies nothing: a synchronous save has encoded it before
// Checkpoint returns (encoders, storage and the save auditor never
// retain their input), and the async pipeline copies it first. An
// async GMRES save materializes nothing here: its snapshot holds the
// cycle-boundary x, and the fill returned with it adds the cycle's
// correction V·y to the pipeline's copy in the background, y copied
// now and the solver held until the fill has read x and V.
//
// The auditor, when attached, is handed the residual the save opens
// at: the ResidualAtSave of its records.
func (m *Manager) capture() (*fti.Snapshot, func(*fti.Snapshot)) {
	st := m.slv.DynamicView()
	m.qa.ObserveResidual(st.Iteration, m.slv.ResidualNorm())
	var fill func(*fti.Snapshot)
	if m.gmres != nil && m.async == nil {
		m.xbuf = m.gmres.CurrentXInto(m.xbuf)
		st.Vectors["x"] = m.xbuf
	} else if m.gmres != nil {
		// y is the solver's scratch; m.ybuf is free, as the pipeline
		// drained the previous save, fill and all, before this capture.
		c, release := m.gmres.Correction(), m.gmres.Hold()
		m.ybuf = append(m.ybuf[:0], c.Y...)
		c.Y = m.ybuf
		fill = func(cp *fti.Snapshot) { c.AddTo(cp.Vectors["x"]); release() }
	}
	if m.cfg.Scheme == Lossy {
		st.Scalars, st.Vectors = nil, map[string][]float64{"x": st.Vectors["x"]}
	}
	return &fti.Snapshot{Iteration: st.Iteration, Scalars: st.Scalars, Vectors: st.Vectors}, fill
}

// LastInfo returns the record of the most recent committed checkpoint
// (the zero Info when there is none).
func (m *Manager) LastInfo() fti.Info {
	m.fold()
	return m.last
}

// InFlight reports whether an async checkpoint is currently being
// encoded or written in the background.
func (m *Manager) InFlight() bool { return m.async != nil && m.async.InFlight() }

// adoptSnapshot reinstates the solver from a restored snapshot
// according to the scheme: the scalars, the iteration number and the
// recomputed variables, the vectors being in place already. It returns
// the iteration the solver rolled back to.
func (m *Manager) adoptSnapshot(snap *fti.Snapshot) (int, error) {
	if m.cfg.Scheme != Lossy {
		err := m.slv.RestoreDynamic(solver.DynamicState{
			Iteration: snap.Iteration,
			Scalars:   snap.Scalars,
			Vectors:   snap.Vectors,
		})
		if err != nil {
			return 0, err
		}
		return snap.Iteration, nil
	}
	x, ok := snap.Vectors["x"]
	if !ok {
		return 0, fmt.Errorf("core: lossy checkpoint lacks x")
	}
	m.slv.Restart(x)
	return snap.Iteration, nil
}
