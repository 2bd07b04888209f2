package core

import "repro/internal/quality"

// InstrumentQuality attaches the numerical-telemetry auditor: every
// committed save's vectors pass through its (sampled) distortion
// audit, and every save the Manager opens hands it the residual the
// save was taken at — so any loop that saves through the Manager, not
// only Drive, gets each record's ResidualAtSave. Recoveries are not
// its business: a run's recoveries and its extra iterations are in
// Drive's Outcome. Passing nil detaches. Only safe while no checkpoint
// is in flight.
//
// Like Instrument, this is strictly an observer: the auditor never
// mutates solver or checkpoint state, so a quality-instrumented run
// converges bitwise-identically to an uninstrumented one. Drive refuses
// a modelled run that carries one.
func (m *Manager) InstrumentQuality(qa *quality.Auditor) {
	m.qa = qa
	m.ckpt.SetSaveAudit(qa)
}
