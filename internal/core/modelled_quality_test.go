package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fti"
	"repro/internal/obs"
	"repro/internal/quality"
	"repro/internal/vec"
)

// TestQualityInSimVirtualTime covers the simulator surface of the
// quality layer: a failure-injected virtual-time run with the auditor
// attached converges identically to the uninstrumented run (same
// iterations, bitwise-same final state), and its audit spans are
// stamped on the VIRTUAL clock.
func TestQualityInSimVirtualTime(t *testing.T) {
	a, b, _ := testSystem()
	run := func(qa *quality.Auditor, tr *obs.Tracer) (*core.Outcome, []uint64) {
		s, m := newManagedCG(t, a, b, core.Lossy)
		m.InstrumentQuality(qa)
		out, err := core.Drive(core.DriveConfig{
			Stepper:         s,
			Manager:         m,
			X0:              make([]float64, a.Rows),
			IntervalSeconds: 20,
			Failures:        core.FailureTimes(nil, failure.NewInjector(60, 7)),
			MaxIterations:   100000,
			Tracer:          tr,
			Costs: &core.Costs{
				TitSeconds:        2,
				CheckpointSeconds: func(fti.Info) float64 { return 3 },
				RecoverySeconds:   func(fti.Info) float64 { return 4 },
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		x := s.X()
		bits := make([]uint64, len(x))
		for i, v := range x {
			bits[i] = math.Float64bits(v)
		}
		return out, bits
	}

	base, baseX := run(nil, nil)
	if base.Failures == 0 {
		t.Fatal("the seeded injector should produce failures")
	}

	qa := quality.New(quality.Config{SampleEvery: 1, BNorm: vec.Norm2(b)})
	tr := obs.NewTracerWithClock(func() float64 { return 0 }) // sim overrides per-span via SetSpanClock
	qa.Instrument(obs.New(), tr)
	inst, instX := run(qa, tr)

	if inst.IterationsExecuted != base.IterationsExecuted ||
		inst.Failures != base.Failures ||
		inst.Checkpoints != base.Checkpoints ||
		math.Float64bits(inst.FinalResidual) != math.Float64bits(base.FinalResidual) {
		t.Fatalf("instrumented sim diverged: base %+v vs instrumented %+v", base, inst)
	}
	for i := range baseX {
		if baseX[i] != instX[i] {
			t.Fatalf("final solution diverged at element %d", i)
		}
	}

	if len(qa.Records()) == 0 {
		t.Fatal("no checkpoint audits recorded")
	}

	// Quality spans must carry virtual timestamps: within [0, SimSeconds]
	// and with zero wall duration (the virtual clock stamps instants).
	audits := 0
	for _, ev := range tr.Events() {
		if ev.Cat != obs.CatQuality {
			continue
		}
		if ev.Start < 0 || ev.Start > inst.SimSeconds {
			t.Fatalf("quality span %q at %g outside virtual time [0, %g]", ev.Name, ev.Start, inst.SimSeconds)
		}
		if ev.Name == obs.SpanQualityAudit {
			audits++
			if ev.Dur != 0 {
				t.Fatalf("virtual-time audit span has wall duration %g", ev.Dur)
			}
		}
	}
	if audits == 0 {
		t.Fatal("expected audit spans on the virtual clock")
	}
}
