package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/obs"
)

// The registry and tracer are pure observers: an instrumented run must
// execute the bitwise-identical trajectory of an uninstrumented one.
func TestSimInstrumentationDeterministic(t *testing.T) {
	run := func(instrument bool) *core.Outcome {
		cfg, _ := tieredConfig(t, true, nil)
		cfg.Failures = core.FailureTimes(nil, failure.NewInjector(120, 5))
		cfg.RecordResiduals = true
		if instrument {
			cfg.Metrics = obs.New()
			cfg.Tracer = obs.NewTracer()
		}
		out, err := core.Drive(cfg)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return out
	}
	plain, inst := run(false), run(true)
	if plain.SimSeconds != inst.SimSeconds || plain.IterationsExecuted != inst.IterationsExecuted ||
		plain.Failures != inst.Failures || plain.Checkpoints != inst.Checkpoints ||
		plain.ABFTRecoveries != inst.ABFTRecoveries {
		t.Fatalf("instrumented run diverged:\n%+v\n%+v", plain, inst)
	}
	if len(plain.Residuals) != len(inst.Residuals) {
		t.Fatalf("residual traces differ in length: %d vs %d", len(plain.Residuals), len(inst.Residuals))
	}
	for i := range plain.Residuals {
		if math.Float64bits(plain.Residuals[i]) != math.Float64bits(inst.Residuals[i]) {
			t.Fatalf("residual %d not bitwise equal: %x vs %x", i,
				math.Float64bits(plain.Residuals[i]), math.Float64bits(inst.Residuals[i]))
		}
	}
}

// Satellite fix: every tier attempt in a sim report — rejected ones
// included — carries its virtual-time duration, priced by the same
// model the clock advanced by.
func TestSimReportsVirtualAttemptDurations(t *testing.T) {
	cfg, guard := tieredConfig(t, true, []float64{15})
	steps := 0
	cfg.OnStep = func() {
		steps++
		if steps >= 12 {
			guard.CorruptRetained()
		}
	}
	out, err := core.Drive(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(out.RecoveryReports) == 0 {
		t.Fatal("no recovery reports")
	}
	rep := out.RecoveryReports[0]
	if len(rep.Attempts) < 2 {
		t.Fatalf("attempts %+v, want rejected abft then a checkpoint tier", rep.Attempts)
	}
	abftAtt := rep.Attempts[0]
	if abftAtt.Tier != core.TierABFT || abftAtt.Accepted {
		t.Fatalf("first attempt %+v, want rejected abft", abftAtt)
	}
	// The rejected attempt's duration is its virtual price: local
	// reconstruction iterations at TitSeconds each (zero iterations ran
	// here — verification failed before the local solve — so zero, not
	// the dropped/unset wall-clock time).
	if want := float64(abftAtt.Iterations) * cfg.Costs.TitSeconds; abftAtt.Seconds != want {
		t.Fatalf("rejected abft attempt Seconds = %g, want priced %g", abftAtt.Seconds, want)
	}
	var total float64
	for _, att := range rep.Attempts[1:] {
		if att.Tier != core.TierCheckpoint && att.Tier != core.TierPreviousCheckpoint {
			continue
		}
		if att.Seconds != 8 {
			t.Fatalf("checkpoint-tier attempt Seconds = %g, want the modeled restore cost 8", att.Seconds)
		}
	}
	for _, att := range rep.Attempts {
		total += att.Seconds
	}
	if total > out.RecoveryTime {
		t.Fatalf("attempt durations sum to %g, exceeding total recovery time %g", total, out.RecoveryTime)
	}
}

// The harness emits the real runs' span schema in virtual time and
// keeps its lifecycle counters consistent with the Outcome.
func TestSimEmitsVirtualTraceAndMetrics(t *testing.T) {
	cfg, _ := tieredConfig(t, true, []float64{15, 28})
	reg := obs.New()
	tr := obs.NewTracer()
	cfg.Metrics = reg
	cfg.Tracer = tr
	out, err := core.Drive(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	snap := reg.Snapshot()
	check := func(name string, labels []obs.Label, want float64) {
		t.Helper()
		md := snap.Get(name, labels...)
		if md == nil {
			t.Fatalf("metric %s%v missing from snapshot", name, labels)
		}
		if md.Value != want {
			t.Fatalf("%s%v = %g, want %g", name, labels, md.Value, want)
		}
	}
	check(obs.MSimFailuresTotal, nil, float64(out.Failures))
	check(obs.MSimCheckpointsTotal, nil, float64(out.Checkpoints))
	check(obs.MSimCheckpointAbortsTotal, nil, float64(out.AbortedCheckpoints))
	if out.ABFTRecoveries > 0 {
		check(obs.MSimRecoveriesTotal, []obs.Label{obs.L("tier", "abft")}, float64(out.ABFTRecoveries))
	}
	if md := snap.Get(obs.MSimElapsedSeconds); md == nil || md.Value != out.SimSeconds {
		t.Fatalf("sim_elapsed_seconds = %+v, want gauge %g", md, out.SimSeconds)
	}

	names := map[string]int{}
	for _, e := range tr.Events() {
		names[e.Name]++
		if e.Start < 0 || e.Start+e.Dur > out.SimSeconds+1e-9 {
			t.Fatalf("event %q spans [%g, %g] outside the run's virtual time [0, %g]",
				e.Name, e.Start, e.Start+e.Dur, out.SimSeconds)
		}
	}
	for _, want := range []string{obs.SpanCompute, obs.SpanCheckpoint, obs.SpanFailure,
		obs.SpanTierPrefix + "abft"} {
		if names[want] == 0 {
			t.Fatalf("trace has no %q events; got %v", want, names)
		}
	}
	if names[obs.SpanFailure] != out.Failures {
		t.Fatalf("%d failure instants, want %d", names[obs.SpanFailure], out.Failures)
	}
}
