package core

import "repro/internal/obs"

// tierCounters counts completed recoveries under the rung that
// restored the solver.
type tierCounters [TierRestartZero + 1]*obs.Counter

func newTierCounters(reg *obs.Registry, name string) (c tierCounters) {
	for t := range c {
		c[t] = reg.With(obs.L("tier", RecoveryTier(t).String())).Counter(name)
	}
	return c
}

// managerObs is the Manager's observability bundle: checkpoint
// lifecycle counters, per-tier recovery counters, the recovery-chain
// latency histogram and the trace sink for recovery spans. Every
// handle is nil-safe, so the zero bundle (the default) observes
// nothing.
type managerObs struct {
	committed   *obs.Counter
	aborted     *obs.Counter
	degraded    *obs.Counter
	recoverySec *obs.Histogram
	tiers       tierCounters
	tr          *obs.Tracer
}

// Instrument attaches metric and trace sinks to the Manager and to
// every subsystem it owns: the checkpointer (sync or async pipeline)
// and the ABFT guard. Passing nil for both detaches. Only safe while no
// checkpoint is in flight.
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
		committed:   reg.Counter(obs.MCoreCheckpointsCommittedTotal),
		aborted:     reg.Counter(obs.MCoreCheckpointsAbortedTotal),
		degraded:    reg.Counter(obs.MCoreDegradedSavesTotal),
		recoverySec: reg.Histogram(obs.MCoreRecoverySeconds, obs.LatencyBuckets()),
		tiers:       newTierCounters(reg, obs.MCoreRecoveriesTotal),
		tr:          tr,
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

// driveObs is the driver's observability bundle: the lifecycle
// counters of the sim_* catalog, the realized interval-window gauge,
// and the trace sink for compute spans and failure instants. The ops'
// own spans are the Manager's, drawn on the same wall clock.
type driveObs struct {
	failures *obs.Counter
	ckpts    *obs.Counter
	aborts   *obs.Counter
	tiers    tierCounters
	elapsed  *obs.Gauge
	window   *obs.Gauge
	tr       *obs.Tracer
}

func newDriveObs(reg *obs.Registry, tr *obs.Tracer) driveObs {
	return driveObs{
		failures: reg.Counter(obs.MSimFailuresTotal),
		ckpts:    reg.Counter(obs.MSimCheckpointsTotal),
		aborts:   reg.Counter(obs.MSimCheckpointAbortsTotal),
		tiers:    newTierCounters(reg, obs.MSimRecoveriesTotal),
		elapsed:  reg.Gauge(obs.MSimElapsedSeconds),
		window:   reg.Gauge(obs.MCoreIntervalSeconds),
		tr:       tr,
	}
}

func (o *driveObs) failure() {
	o.failures.Inc()
	o.tr.InstantAt(obs.TrackSolver, obs.CatRecovery, obs.SpanFailure, o.tr.Now())
}
