package core

import "repro/internal/obs"

// managerObs is the run's one observability bundle: checkpoint
// lifecycle counters, per-tier recovery counters, the recovery-chain
// latency histogram, the realized interval-window gauge, and the trace
// sink for recovery spans and for Drive's compute spans and failure
// instants. Every handle is nil-safe, so the zero bundle (the default)
// observes nothing.
type managerObs struct {
	aborted     *obs.Counter
	degraded    *obs.Counter
	recoverySec *obs.Histogram
	tiers       [TierRestartZero + 1]*obs.Counter
	window      *obs.Gauge
	tr          *obs.Tracer
}

// Instrument attaches metric and trace sinks to the Manager, to every
// subsystem it owns — the checkpointer (sync or async pipeline) and the
// ABFT guard — and to the Drive loop that runs it. Passing nil for both
// detaches. Only safe while no checkpoint is in flight.
//
// Instrumentation is strictly an observer — it never adds clock reads
// that feed decisions or extra storage traffic — so an instrumented
// Manager converges bitwise-identically to an uninstrumented one.
func (m *Manager) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	if m.async != nil {
		m.async.Instrument(reg, tr)
	} else {
		m.ckpt.Instrument(reg, tr)
	}
	if m.abft != nil {
		m.abft.Instrument(reg)
	}
	m.mobs = managerObs{
		aborted:     reg.Counter(obs.MCoreCheckpointsAbortedTotal),
		degraded:    reg.Counter(obs.MCoreDegradedSavesTotal),
		recoverySec: reg.Histogram(obs.MCoreRecoverySeconds, obs.LatencyBuckets()),
		window:      reg.Gauge(obs.MCoreIntervalSeconds),
		tr:          tr,
	}
	for t := range m.mobs.tiers {
		m.mobs.tiers[t] = reg.Counter(obs.MCoreRecoveriesTotal[t])
	}
}

// finish records a finished recovery: the per-tier counter, the
// chain's duration, and one span per attempt on the recovery track,
// back to back from start — the attempts did run back to back, so their
// durations tile the chain.
func (o *managerObs) finish(rep *RecoveryReport, start, totalSec float64) {
	o.tiers[rep.Used].Inc()
	o.recoverySec.Observe(totalSec)
	if o.tr == nil {
		return // skip the per-attempt arg maps
	}
	for _, att := range rep.Attempts {
		args := map[string]float64{"accepted": 0}
		if att.Accepted {
			args["accepted"] = 1
		}
		if att.Iterations > 0 {
			args["iterations"] = float64(att.Iterations)
		}
		if att.ReadBytes > 0 {
			args["read_bytes"] = float64(att.ReadBytes)
		}
		if att.Seq > 0 {
			args["seq"] = float64(att.Seq)
		}
		o.tr.Complete(obs.TrackRecovery, obs.CatRecovery, obs.SpanTierPrefix+att.Tier.String(), start, att.Seconds, args)
		start += att.Seconds
	}
}
