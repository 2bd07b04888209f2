package abft

import "repro/internal/obs"

// guardMetrics is the guard's observability bundle. Its handles are
// nil-safe, so the zero bundle (the default) observes nothing and the
// retention and reconstruction paths call them unconditionally.
type guardMetrics struct {
	observes         *obs.Counter
	checksumFailures *obs.Counter
	localIterations  *obs.Counter
}

// Instrument attaches metric sinks to the guard's retention and
// reconstruction paths. Passing nil detaches.
func (g *Guard) Instrument(reg *obs.Registry) {
	g.met = guardMetrics{
		observes:         reg.Counter(obs.MABFTObservesTotal),
		checksumFailures: reg.Counter(obs.MABFTChecksumFailuresTotal),
		localIterations:  reg.Counter(obs.MABFTLocalIterationsTotal),
	}
}
