package core

import "repro/internal/quality"

// InstrumentQuality attaches the numerical-telemetry auditor: every
// committed save's vectors pass through its (sampled) distortion
// audit, and recoveries are marked for convergence-delay attribution.
// Passing nil detaches. Only safe while no checkpoint is in flight.
//
// Like Instrument, this is strictly an observer: the auditor never
// mutates solver or checkpoint state, so a quality-instrumented run
// converges bitwise-identically to an uninstrumented one. The loop
// that steps the solver owns the residual feed
// (quality.Auditor.ObserveResidual once per iteration; Drive does it) —
// the Manager cannot see iterations.
func (m *Manager) InstrumentQuality(qa *quality.Auditor) {
	m.qa = qa
	m.ckpt.SetSaveAudit(qa)
}
