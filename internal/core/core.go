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
// solver (RecoverTiered; Recover is its checkpoint rungs alone). Drive
// is the lifecycle around it — when to save, where failures land, what
// each op costs, what the adaptive controller is told — as one loop
// whose clock, cost source and failure source are its only inputs, so
// a simulated run (package sim) and a real one differ in nothing else.
// Hand-written loops (the examples, bench/) call Due, Checkpoint and
// RecoverTiered themselves.
package core

import (
	"fmt"
	"time"

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
	// Codec overrides the lossless codec (default flate/Gzip).
	Codec codec.BlockCodec
	// LossyEncoder overrides the lossy compressor entirely (e.g. the
	// ZFP-like transform codec). When set, SZParams and Adaptive are
	// ignored — the caller owns the error-bound policy.
	LossyEncoder fti.Encoder
	// Async routes checkpoints through the asynchronous pipeline:
	// Checkpoint returns after the capture copy (the returned Info is
	// provisional — Bytes is unknown until the background encode
	// finishes; WaitCheckpoint or LastInfo report the final
	// accounting), and the encode+write run concurrently with solver
	// iterations. HasCheckpoint and LastInfo report
	// committed checkpoints only; Recover drains the in-flight write
	// first, and a background write that failed falls back to the
	// previous committed checkpoint — the paper's failure-during-
	// checkpoint semantics.
	Async bool
	// Shards splits every checkpoint into this many shard objects
	// (written concurrently, cut along container block boundaries) plus a
	// manifest committed last; 0 or 1 keeps the monolithic layout.
	// Recovery from a group with any missing or corrupted shard falls
	// back to the previous committed checkpoint. fti.Info.Shards
	// reports the layout to striped-PFS cost models
	// (cluster.Model.ShardedCheckpointSeconds).
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
	// its retries costs one checkpoint group, never the solve. Errors
	// from Recover are never degraded — failing to *read* state back
	// is not survivable by waiting.
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
	cfg          Config
	ckpt         *fti.Checkpointer
	async        *fti.AsyncCheckpointer // non-nil in async mode
	slv          solver.Checkpointable
	rst          solver.Restartable
	gmres        *solver.GMRES // non-nil when the solver is GMRES: X() lags mid-cycle
	xbuf         []float64     // GMRES's materialized iterate, reused by every capture
	lastCkptIter int
	lastInfo     fti.Info
	haveCkpt     bool
	prevCkptIter int
	prevInfo     fti.Info
	prevHaveCkpt bool
	// openSeq is the sequence of the save Checkpoint last opened, the one
	// AbortLastCheckpoint is about: 0 when it failed on the spot.
	openSeq int

	// In-flight async save, promoted to the committed fields above
	// once its background write finishes.
	inflight     fti.Ticket
	inflightIter int
	inflightLive bool
	asyncErr     error // failed background save, surfaced on next Checkpoint

	// abft is the optional first recovery tier (Config.ABFT).
	abft *abft.Guard

	// Degraded-writes accounting (Config.DegradedWrites): saves
	// swallowed instead of surfaced, and the most recent one.
	degradedSaves int
	lastSaveErr   error

	// mobs is the observability bundle (all-nil handles when
	// uninstrumented).
	mobs managerObs

	// qa is the numerical-telemetry auditor (nil when uninstrumented);
	// it rides the checkpointer's save-audit hook and is marked on
	// every recovery for convergence-delay attribution.
	qa *quality.Auditor
}

// NewManager wires solver s to storage through the scheme in cfg. The
// solver must implement Restartable for the lossy scheme.
func NewManager(cfg Config, storage fti.Storage, s solver.Checkpointable) (*Manager, error) {
	if cfg.Scheme == Lossy {
		if _, ok := s.(solver.Restartable); !ok {
			return nil, fmt.Errorf("core: lossy checkpointing needs a restartable solver, %T is not", s)
		}
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
	if cfg.Codec == nil {
		cfg.Codec = codec.BlockedFlate{}
	}
	if cfg.ABFT != nil && cfg.ABFT.Solver() != s {
		return nil, fmt.Errorf("core: the ABFT guard protects a different solver than the Manager wires")
	}
	m := &Manager{cfg: cfg, slv: s, abft: cfg.ABFT}
	m.rst, _ = s.(solver.Restartable)
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
		return fti.Lossless{Codec: m.cfg.Codec}
	default:
		if m.cfg.LossyEncoder != nil {
			return m.cfg.LossyEncoder
		}
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
	if m.async != nil {
		m.promote()
		if m.inflightLive && it == m.inflightIter {
			return false
		}
	}
	return it != m.lastCkptIter
}

// MaybeCheckpoint takes a checkpoint if one is due. It returns the
// checkpoint info when one was written (nil when none was due, or
// when a degraded-mode save was swallowed).
func (m *Manager) MaybeCheckpoint() (*fti.Info, error) {
	if !m.Due() {
		return nil, nil
	}
	info, err := m.Checkpoint()
	if err != nil {
		return nil, err
	}
	if info.Seq == 0 {
		return nil, nil // degraded-mode save swallowed; nothing committed
	}
	return &info, nil
}

// Checkpoint writes a checkpoint now, regardless of the interval. In
// async mode it returns after the capture copy with a provisional Info
// (Seq, EncoderName, RawBytes; Bytes unknown until the background
// encode finishes); an error from the previous background save is
// returned here, before a new capture is taken.
func (m *Manager) Checkpoint() (fti.Info, error) {
	if m.async != nil {
		return m.checkpointAsync()
	}
	snap := m.capture()
	m.ckpt.SetEncoder(m.encoder())
	info, err := m.ckpt.Save(snap)
	m.openSeq = info.Seq
	if err != nil {
		if m.cfg.DegradedWrites {
			// The save rolled back; the previous committed checkpoint is
			// still the recovery target and the next interval retries.
			m.noteDegraded(err)
			return fti.Info{}, nil
		}
		return fti.Info{}, err
	}
	m.commit(m.slv.Iteration(), info)
	return info, nil
}

// commit makes a written checkpoint the recovery target, keeping its
// predecessor's bookkeeping for AbortLastCheckpoint to fall back to.
func (m *Manager) commit(iter int, info fti.Info) {
	m.prevCkptIter, m.prevHaveCkpt, m.prevInfo = m.lastCkptIter, m.haveCkpt, m.lastInfo
	m.lastCkptIter, m.haveCkpt, m.lastInfo = iter, true, info
	m.mobs.committed.Inc()
}

// checkpointAsync is the capture-stall-only checkpoint path.
func (m *Manager) checkpointAsync() (fti.Info, error) {
	// Drain first: SetEncoder below mutates the wrapped Checkpointer,
	// which the background stage reads. This is also where the
	// at-most-one-in-flight backpressure lands in the solver's time,
	// so the wait is accounted as backpressure in Stats.
	m.async.WaitBackpressure()
	m.promote()
	if err := m.takeAsyncErr(); err != nil {
		return fti.Info{}, err
	}
	m.ckpt.SetEncoder(m.encoder())
	snap := m.capture()
	t, err := m.async.SaveAsync(snap)
	if err != nil {
		return fti.Info{}, err
	}
	m.inflight, m.inflightLive, m.openSeq = t, true, t.Seq
	m.inflightIter = m.slv.Iteration()
	info := fti.Info{Seq: t.Seq, EncoderName: m.ckpt.Encoder().Name()}
	for _, v := range snap.Vectors {
		info.RawBytes += 8 * len(v)
	}
	info.RawBytes += 8 * len(snap.Scalars)
	return info, nil
}

// promote folds a finished background save into the committed-
// checkpoint bookkeeping. Non-blocking: an in-flight save stays
// in flight.
func (m *Manager) promote() {
	if !m.inflightLive {
		return
	}
	select {
	case <-m.inflight.Done():
	default:
		return
	}
	info, err := m.inflight.Wait()
	m.inflightLive = false
	if err != nil {
		// The save rolled back; nothing was committed. Surface the
		// error on the next Checkpoint call.
		m.asyncErr = err
		return
	}
	m.commit(m.inflightIter, info)
}

// WaitCheckpoint blocks until no checkpoint is in flight and returns
// the Info of the most recent committed checkpoint. In sync mode it
// returns LastInfo immediately. The error, if any, is the failure of
// the drained background save (also cleared from the pipeline).
func (m *Manager) WaitCheckpoint() (fti.Info, error) {
	if m.async == nil {
		return m.lastInfo, nil
	}
	m.async.Wait()
	m.promote()
	return m.lastInfo, m.takeAsyncErr()
}

// takeAsyncErr consumes the pending background-save error, swallowing
// (and counting) it in degraded-writes mode.
func (m *Manager) takeAsyncErr() error {
	err := m.asyncErr
	m.asyncErr = nil
	if err != nil && m.cfg.DegradedWrites {
		m.noteDegraded(err)
		return nil
	}
	return err
}

// noteDegraded records a save swallowed by degraded-writes mode.
func (m *Manager) noteDegraded(err error) {
	m.degradedSaves++
	m.lastSaveErr = err
	m.mobs.degraded.Inc()
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
	if m.lastInfo.Seq != m.openSeq {
		return nil
	}
	if err := m.ckpt.DropLatest(); err != nil {
		return err
	}
	m.mobs.aborted.Inc()
	m.lastCkptIter, m.haveCkpt = m.prevCkptIter, m.prevHaveCkpt
	// Roll the accounting back too: LastInfo must describe the
	// checkpoint recovery will actually restore, not the dropped one
	// (the sim prices RecoverySeconds off it).
	m.lastInfo = m.prevInfo
	// Consult storage, not the sequence counter: with keep=1 the gc of
	// the just-dropped checkpoint already removed its predecessor, so
	// the abort can leave nothing to recover from — recovery must then
	// restart from scratch rather than chase a deleted file.
	if m.ckpt.CheckpointCount() == 0 {
		m.haveCkpt = false
	}
	return nil
}

// capture builds the scheme's snapshot: full dynamic state for
// traditional/lossless (Algorithm 1 line 4: i, ρ, p, x), solution-only
// for lossy (Algorithm 2 lines 4–5: i, compressed x).
//
// Under every scheme the snapshot aliases state that changes with the
// next solver step — the solver's live vectors, or for GMRES the
// mid-cycle iterate materialized into the Manager's one buffer — and
// copies nothing: a synchronous save has encoded it before Checkpoint
// returns (encoders, storage and the save auditor never retain their
// input), and SaveAsync copies it into its double buffer first.
func (m *Manager) capture() *fti.Snapshot {
	st := m.slv.DynamicView()
	if m.gmres != nil {
		m.xbuf = m.gmres.CurrentXInto(m.xbuf)
		st.Vectors["x"] = m.xbuf
	}
	if m.cfg.Scheme == Lossy {
		st.Scalars, st.Vectors = nil, map[string][]float64{"x": st.Vectors["x"]}
	}
	return &fti.Snapshot{Iteration: st.Iteration, Scalars: st.Scalars, Vectors: st.Vectors}
}

// HasCheckpoint reports whether at least one committed checkpoint
// exists. An async save still in flight does not count: until its
// write completes it is not a recovery target.
func (m *Manager) HasCheckpoint() bool {
	m.promote()
	return m.haveCkpt
}

// LastInfo returns the accounting of the most recent committed
// checkpoint.
func (m *Manager) LastInfo() fti.Info {
	m.promote()
	return m.lastInfo
}

// InFlight reports whether an async checkpoint is currently being
// encoded or written in the background.
func (m *Manager) InFlight() bool {
	if m.async == nil {
		return false
	}
	m.promote()
	return m.inflightLive
}

// Recover reinstates the solver from the latest restorable checkpoint
// according to the scheme — the checkpoint rungs of RecoverTiered on
// their own, for loops that handle a missing checkpoint themselves. For
// lossy checkpointing this is Algorithm 2 lines 7–13: decompress x,
// adopt it as a fresh initial guess, rebuild the auxiliary state. It
// returns the iteration the solver rolled back to.
//
// In async mode, Recover first drains the in-flight write. If that
// write completed, it is the recovery target like any committed
// checkpoint; if it failed (the failure struck between SaveAsync and
// write completion), nothing was committed and recovery falls back to
// the previous committed checkpoint — exactly the paper's failure-
// during-checkpoint path.
//
// The checkpoint is decoded into the solver's own vectors. A newer one
// rejected part-way leaves them half-written, and the one accepted
// overwrites every element: when Recover returns nil the solver's
// dynamic state is, bit for bit, that of the checkpoint it reports. It
// is unspecified only when Recover returns an error; RecoverFresh
// (where RecoverTiered ends) then makes it whole again.
func (m *Manager) Recover() (int, error) {
	rep := &RecoveryReport{}
	m.qa.ObserveFailure()
	start, traceAt := time.Now(), m.mobs.tr.Now()
	m.drain()
	if err := m.restore(rep); err != nil {
		return 0, err
	}
	m.mobs.finish(rep, traceAt, time.Since(start).Seconds())
	return rep.Iteration, nil
}

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
	m.rst.Restart(x)
	return snap.Iteration, nil
}

// RecoverFresh is the no-checkpoint recovery path: the execution
// restarts from the initial guess (iteration 0). Used when a failure
// strikes before the first checkpoint or every checkpoint is rejected:
// the restart rebuilds all of the solver's dynamic state from x0.
func (m *Manager) RecoverFresh(x0 []float64) int {
	if m.rst != nil {
		m.rst.Restart(x0)
	} else {
		// Every solver here is Restartable; one that is not gets x0 as
		// its whole dynamic state.
		_ = m.slv.RestoreDynamic(solver.DynamicState{Vectors: map[string][]float64{"x": x0}})
	}
	m.qa.ObserveRecovery(0, TierRestartZero.String(), 0, m.slv.ResidualNorm())
	return 0
}
