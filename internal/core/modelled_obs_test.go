package core_test

import (
	"testing"

	"repro/internal/core"
)

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
