package adapt

import "repro/internal/obs"

// ctrlMetrics exports the controller's estimator state as gauges,
// refreshed at every re-plan — the decision points, so the exported
// values are exactly the beliefs each plan was made from. Its handles
// are nil-safe: the zero bundle (the default) exports nothing.
type ctrlMetrics struct {
	replans    *obs.Counter
	interval   *obs.Gauge
	mtti       *obs.Gauge
	checkpoint *obs.Gauge
	recovery   *obs.Gauge
	ratio      *obs.Gauge
}

// Instrument attaches metric sinks to the controller's re-planning
// decisions. Passing nil detaches. Instrumentation never triggers a
// re-plan of its own — it only observes the ones Interval schedules —
// so an instrumented controller plans identically.
func (c *Controller) Instrument(reg *obs.Registry) {
	c.met = ctrlMetrics{
		replans:    reg.Counter(obs.MAdaptReplansTotal),
		interval:   reg.Gauge(obs.MAdaptIntervalSeconds),
		mtti:       reg.Gauge(obs.MAdaptMTTISeconds),
		checkpoint: reg.Gauge(obs.MAdaptCheckpointSeconds),
		recovery:   reg.Gauge(obs.MAdaptRecoverySeconds),
		ratio:      reg.Gauge(obs.MAdaptCompressionRatio),
	}
}

func (m *ctrlMetrics) observePlan(p Plan, recoverySeconds float64) {
	m.replans.Inc()
	m.interval.Set(p.Interval)
	if p.Lambda > 0 {
		m.mtti.Set(1 / p.Lambda)
	}
	m.checkpoint.Set(p.Cost)
	m.recovery.Set(recoverySeconds)
	if p.Ratio > 0 {
		m.ratio.Set(p.Ratio)
	}
}
