package core

import (
	"fmt"
	"time"

	"repro/internal/quality"
)

// RecoveryTier names one rung of the tiered recovery chain, tried in
// order until one succeeds:
//
//	TierABFT               checkpoint-free algorithmic reconstruction
//	                       (needs the ABFT guard's retained redundancy;
//	                       costs local-solve iterations, no PFS reads)
//	TierCheckpoint         the latest committed checkpoint (one PFS
//	                       read of the newest group)
//	TierPreviousCheckpoint an older committed checkpoint the restore
//	                       walk fell back to (the newest was missing or
//	                       corrupt; its rejected read was still paid)
//	TierRestartZero        restart from the initial guess — always
//	                       available, loses all progress
type RecoveryTier int

const (
	TierABFT RecoveryTier = iota
	TierCheckpoint
	TierPreviousCheckpoint
	TierRestartZero
)

// String names the tier.
func (t RecoveryTier) String() string {
	switch t {
	case TierABFT:
		return "abft"
	case TierCheckpoint:
		return "checkpoint"
	case TierPreviousCheckpoint:
		return "previous-checkpoint"
	case TierRestartZero:
		return "restart-zero"
	}
	return fmt.Sprintf("RecoveryTier(%d)", int(t))
}

// TierAttempt is the fti.Info-style observation of one tier try: what
// was attempted, whether it was accepted, and what it cost — wall
// seconds, local-solve iterations (the ABFT tier's currency) and
// encoded bytes read from storage (the checkpoint tiers'). The sim and
// cluster layers price tiers from these fields.
type TierAttempt struct {
	Tier     RecoveryTier
	Accepted bool
	Err      string // rejection reason, empty when accepted
	Seconds  float64
	// Iterations is the ABFT tier's local reconstruction iteration
	// count — the tier costs iterations, not PFS reads.
	Iterations int
	// ReadBytes is the encoded bytes read from storage for the attempt
	// (0 for the ABFT and restart-zero tiers).
	ReadBytes int
	// Seq is the checkpoint sequence number of a checkpoint-tier
	// attempt (0 otherwise).
	Seq int
}

// RecoveryReport is the outcome of one RecoverTiered call: every tier
// attempt in order, the tier that finally recovered the solver, and
// the iteration the solver stands at afterwards.
type RecoveryReport struct {
	Attempts  []TierAttempt
	Used      RecoveryTier
	Iteration int
	// AdoptedDistortion is the audited distortion of the checkpoint
	// whose state the chain adopted — nil when the quality auditor is
	// not attached, the adopted save was not sampled, or the chain
	// recovered without a checkpoint (ABFT, restart-zero).
	AdoptedDistortion *quality.Distortion
	// Interrupted marks a chain whose recovered state was lost to a
	// new failure before the chain's cost had fully elapsed (the
	// virtual-time harness sets it): the attempts and their durations
	// were still paid and are reported, but the chain recovered
	// nothing durable and its Used tier does not count as a completed
	// recovery.
	Interrupted bool
}

// ReadBytes sums the encoded bytes read from storage across all
// attempts — the recovery's total PFS read traffic, including reads of
// checkpoints that were then rejected.
func (r *RecoveryReport) ReadBytes() int {
	total := 0
	for _, a := range r.Attempts {
		total += a.ReadBytes
	}
	return total
}

// RecoverTiered runs the full recovery chain after a failure:
// ABFT reconstruction → latest checkpoint → older checkpoints →
// restart-from-zero, accepting the highest tier that verifies. A
// Manager without a guard is the same chain without its first rung. It
// never returns an error for a merely-degraded recovery — the chain
// bottoms out at restart-from-zero, which always succeeds.
//
// The per-tier timings, iteration counts and read bytes are recorded
// in the returned report; the loop that owns the clock (Drive) prices
// them and tells its controller.
func (m *Manager) RecoverTiered(x0 []float64) (*RecoveryReport, error) {
	rep := &RecoveryReport{}
	m.qa.ObserveFailure()
	chainStart, traceAt := time.Now(), m.mobs.tr.Now()
	defer func() {
		m.mobs.finish(rep, traceAt, time.Since(chainStart).Seconds())
	}()

	// Tier 0: algorithmic reconstruction, no storage involved. The state
	// is recovered but nothing new is durable.
	if m.abft != nil {
		start := time.Now()
		recon, err := m.abft.Reconstruct()
		att := TierAttempt{Tier: TierABFT, Seconds: time.Since(start).Seconds()}
		if recon != nil {
			att.Iterations = recon.LocalIterations
		}
		if err == nil {
			att.Accepted = true
			rep.Attempts = append(rep.Attempts, att)
			rep.Used = TierABFT
			rep.Iteration = recon.Iteration
			m.qa.ObserveRecovery(0, TierABFT.String(), recon.Iteration, m.slv.ResidualNorm())
			return rep, nil
		}
		att.Err = err.Error()
		rep.Attempts = append(rep.Attempts, att)
	}

	// Tiers 1–2: the stored checkpoints. A chain that finds none, or
	// none it can stand on, keeps the rejected attempts in the report
	// and degrades to tier 3.
	if m.drain(); m.haveCkpt && m.restore(rep) == nil {
		return rep, nil
	}

	// Tier 3: restart from the initial guess. Always succeeds. Its
	// duration is measured like every other tier's, so a report's
	// attempts carry consistent timings whichever rung recovered.
	freshStart := time.Now()
	it := m.RecoverFresh(x0)
	rep.Attempts = append(rep.Attempts, TierAttempt{
		Tier:     TierRestartZero,
		Accepted: true,
		Seconds:  time.Since(freshStart).Seconds(),
	})
	rep.Used = TierRestartZero
	rep.Iteration = it
	return rep, nil
}

// drain waits out an in-flight async save and folds it into the
// committed bookkeeping. A save that failed in the background is
// superseded by the recovery itself: its sequence rolled back, so the
// restore walk already targets the previous committed checkpoint.
func (m *Manager) drain() {
	if m.async != nil {
		m.async.Wait()
		m.promote()
		m.asyncErr = nil
	}
}

// restore is the one checkpoint-recovery body, under Recover and under
// RecoverTiered's middle rungs, both of which drain the in-flight save
// first: walk storage newest-first decoding into the solver's own
// vectors, and adopt the first checkpoint that verifies. Every checkpoint tried is appended to
// rep as a tier attempt — an attempt on the latest committed sequence
// is TierCheckpoint, anything older the walk fell back to is
// TierPreviousCheckpoint — and on success rep names the rung that
// recovered. The auditor hears of a recovery only once the solver has
// adopted it.
func (m *Manager) restore(rep *RecoveryReport) error {
	start := time.Now()
	snap, attempts, err := m.ckpt.RestoreIntoTrace(m.slv.DynamicView().Vectors)
	if err != nil && len(attempts) == 0 {
		// The walk failed before any per-checkpoint read began (no
		// checkpoint at all, or the storage listing errored): the elapsed
		// time was still paid, so the rejection is reported with it
		// rather than dropped.
		rep.Attempts = append(rep.Attempts, TierAttempt{
			Tier:    TierCheckpoint,
			Err:     err.Error(),
			Seconds: time.Since(start).Seconds(),
		})
	}
	latest := m.lastInfo.Seq
	if !m.haveCkpt && len(attempts) > 0 {
		latest = attempts[0].Seq // a Manager new to this storage: the newest stored
	}
	for _, fa := range attempts {
		tier := TierCheckpoint
		if fa.Seq != latest {
			tier = TierPreviousCheckpoint
		}
		rep.Attempts = append(rep.Attempts, TierAttempt{
			Tier:      tier,
			Accepted:  fa.Err == "",
			Err:       fa.Err,
			Seconds:   fa.Seconds,
			ReadBytes: fa.Bytes,
			Seq:       fa.Seq,
		})
	}
	if err != nil {
		return err // every checkpoint was invalid
	}
	last := &rep.Attempts[len(rep.Attempts)-1]
	adoptStart := time.Now()
	it, err := m.adoptSnapshot(snap)
	if err != nil {
		// The snapshot decoded but the solver rejected it (missing
		// dynamic variables, dimension mismatch): demote the accepted
		// attempt. The adoption work belongs to its duration.
		last.Accepted = false
		last.Err = err.Error()
		last.Seconds += time.Since(adoptStart).Seconds()
		return err
	}
	rep.Used = last.Tier
	rep.Iteration = it
	rep.AdoptedDistortion = m.qa.DistortionFor(last.Seq)
	m.qa.ObserveRecovery(last.Seq, last.Tier.String(), it, m.slv.ResidualNorm())
	return nil
}
