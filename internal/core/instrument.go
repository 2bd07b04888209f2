package core

import (
	"math"

	"repro/internal/obs"
)

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
// chain's duration, and one span per attempt from the chain's start.
func (o *managerObs) finish(rep *RecoveryReport, start, totalSec float64) {
	o.tiers[rep.Used].Inc()
	o.recoverySec.Observe(totalSec)
	tierSpans(o.tr, rep, start, math.Inf(1))
}

// tierSpans lays one recovery chain out on the recovery track: one
// span per attempt, back to back from start — the attempts did run
// back to back, so their durations tile the chain. Spans of an
// interrupted chain are truncated at limit, the time the new failure
// struck, and attempts that would start past it are dropped from the
// trace (they stay in the report).
func tierSpans(tr *obs.Tracer, rep *RecoveryReport, start, limit float64) {
	if tr == nil {
		return // skip the per-attempt arg maps
	}
	cursor := start
	for _, att := range rep.Attempts {
		if cursor >= limit {
			break
		}
		args := map[string]float64{"accepted": 0}
		if att.Accepted {
			args["accepted"] = 1
		}
		if rep.Interrupted {
			args["interrupted"] = 1
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
		tr.Complete(obs.TrackRecovery, obs.CatRecovery,
			obs.SpanTierPrefix+att.Tier.String(), cursor, math.Min(att.Seconds, limit-cursor), args)
		cursor += att.Seconds
	}
}

// driveObs is the driver's observability bundle: the lifecycle
// counters of the sim_* catalog, the realized interval-window gauge,
// and two views of the trace sink. Compute spans and failure instants
// are the driver's on either clock; the ops' own spans it draws only
// when it models them — measured ops have drawn theirs on the same wall
// clock — so model is nil under measured costs.
type driveObs struct {
	failures *obs.Counter
	ckpts    *obs.Counter
	aborts   *obs.Counter
	tiers    tierCounters
	elapsed  *obs.Gauge
	window   *obs.Gauge
	tr       *obs.Tracer
	model    *obs.Tracer
}

func newDriveObs(reg *obs.Registry, tr *obs.Tracer, modelled bool) driveObs {
	o := driveObs{
		failures: reg.Counter(obs.MSimFailuresTotal),
		ckpts:    reg.Counter(obs.MSimCheckpointsTotal),
		aborts:   reg.Counter(obs.MSimCheckpointAbortsTotal),
		tiers:    newTierCounters(reg, obs.MSimRecoveriesTotal),
		elapsed:  reg.Gauge(obs.MSimElapsedSeconds),
		window:   reg.Gauge(obs.MCoreIntervalSeconds),
		tr:       tr,
	}
	if modelled {
		o.model = tr
	}
	return o
}

// now is the trace's reading of the present: the virtual clock when
// the driver models the run, the tracer's own wall clock otherwise.
func (o *driveObs) now(virtual float64) float64 {
	if o.model != nil || o.tr == nil {
		return virtual
	}
	return o.tr.Now()
}

func (o *driveObs) failure(at float64) {
	o.failures.Inc()
	o.tr.InstantAt(obs.TrackSolver, obs.CatRecovery, obs.SpanFailure, o.now(at))
}

// recovery records one run of the chain: the per-tier counter unless a
// new failure interrupted it at limit, and its spans.
func (o *driveObs) recovery(rep *RecoveryReport, start, limit float64) {
	if !rep.Interrupted {
		o.tiers[rep.Used].Inc()
	}
	tierSpans(o.model, rep, start, limit)
}
