package main

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/abft"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fti"
	"repro/internal/solver"
)

// planSource turns a step-keyed failure.Plan into the driver's failure
// source, and owns the failure.Kind → storage/guard side effects. After
// every step it takes the kinds scheduled at the solver's iteration:
// corruption and storage-fault kinds act at once (latently, if no
// failure accompanies them), proc makes the step's window a hit, and
// midckpt/crash pin a failure inside a save that opens now. storage is
// the BASE store (beneath the injector and retry layers): corruption
// writes bypass the fault gate, and the post-crash fsck sweeps the
// debris where the crash left it.
type planSource struct {
	plan     *failure.Plan
	s        solver.Checkpointable
	mgr      *core.Manager
	guard    *abft.Guard
	storage  fti.Storage
	injector *failure.StorageInjector

	proc, save, crash bool // what the event just taken still owes
	events            []injectedEvent
	err               error // first side effect that could not be applied
}

// injectedEvent is one event that became a failure; the i-th pairs
// with the run's i-th recovery report.
type injectedEvent struct {
	iter  int
	kinds []failure.Kind
}

func (p *planSource) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// onStep is the driver's OnStep hook.
func (p *planSource) onStep() {
	it := p.s.Iteration()
	kinds := p.plan.Take(it)
	for _, k := range kinds {
		switch k {
		case failure.CorruptABFT:
			p.guard.CorruptRetained()
		case failure.CorruptShard:
			if _, err := failure.CorruptLatestShard(p.storage, p.plan.Rand()); err != nil {
				p.fail(fmt.Errorf("inject shard corruption at %d: %w", it, err))
			}
		case failure.CorruptManifest:
			if _, err := failure.CorruptLatestManifest(p.storage); err != nil {
				p.fail(fmt.Errorf("inject manifest corruption at %d: %w", it, err))
			}
		case failure.StorageWriteFault:
			p.injector.ArmWrite(1)
		case failure.StorageReadFault:
			p.injector.ArmRead(1)
		case failure.SlowIO:
			p.injector.ArmSlow(1)
		case failure.ProcLoss:
			p.proc = true
		case failure.MidCheckpoint:
			p.save = true
		case failure.Crash:
			p.save, p.crash = true, true
		}
	}
	if p.proc || p.save {
		p.events = append(p.events, injectedEvent{iter: it, kinds: kinds})
	}
}

// Strikes answers the driver from what the last event owes.
func (p *planSource) Strikes(w core.Window) (float64, bool) {
	switch {
	case w.Op == core.OpStep && p.proc:
		// The process is lost at the end of the step; a save the same
		// event pinned is lost with it before it opens.
		p.proc, p.save, p.crash = false, false, false
		return w.End, true
	case w.Op == core.OpCadence && p.save:
		if p.crash {
			// The storage dies mid-commit: the save about to open leaves a
			// partial temp artifact and never commits. An earlier save still
			// in the background finishes first — the crash is this save's.
			if _, err := p.mgr.WaitCheckpoint(); err != nil {
				p.fail(err)
			}
			p.injector.ArmCrash()
		}
		return w.End, true
	case w.Op == core.OpCheckpoint && p.save:
		if p.crash {
			// The save error was the expected outcome (swallowed by
			// degraded mode). The store then revives — the restart — and
			// fsck sweeps the debris before recovery runs against what
			// actually committed.
			_, _ = p.mgr.WaitCheckpoint() // drain an async save; its failure is the point
			if !p.injector.Crashed() {
				p.fail(fmt.Errorf("inject crash at %d: the store never saw a write", w.Iteration))
			}
			p.injector.Revive()
			frep, err := fti.Fsck(p.storage)
			if err != nil {
				p.fail(fmt.Errorf("fsck after crash at %d: %w", w.Iteration, err))
			}
			fmt.Printf("  crash@%d: store revived; %s\n", w.Iteration, frep)
		}
		p.save, p.crash = false, false
		return w.End, true
	}
	return 0, false
}

// printTable renders the per-failure tier table: every injected event
// with the chain that recovered from it and each attempt's measured
// wall time.
func (p *planSource) printTable(out *core.Outcome) {
	if len(out.RecoveryReports) == 0 {
		return
	}
	fmt.Println("per-failure recovery tiers:")
	for i, rep := range out.RecoveryReports {
		ev := p.events[i]
		names := make([]string, len(ev.kinds))
		for j, k := range ev.kinds {
			names[j] = k.String()
		}
		fmt.Printf("  @%-6d %-24s recovered via %s\n", ev.iter, strings.Join(names, "+"), rep.Used)
		for _, att := range rep.Attempts {
			status := "accepted"
			if !att.Accepted {
				status = "rejected: " + att.Err
			}
			var what string
			switch att.Tier {
			case core.TierABFT:
				what = fmt.Sprintf("%d local its, 0 B read", att.Iterations)
			case core.TierRestartZero:
				what = "all progress lost"
			default:
				what = fmt.Sprintf("seq %d, %d B read", att.Seq, att.ReadBytes)
			}
			fmt.Printf("    %-20s %-10s %.3g ms wall — %s\n", att.Tier, status, 1e3*att.Seconds, what)
		}
	}
}

// checkpointRecoverySeconds is the R an injected run measured: the mean
// wall time of its accepted checkpoint-rung attempts (read, decode and
// the solver's recompute), or NaN when no recovery restored a
// checkpoint.
func checkpointRecoverySeconds(reports []core.RecoveryReport) float64 {
	sum, n := 0.0, 0
	for _, rep := range reports {
		for _, att := range rep.Attempts {
			if att.Accepted && (att.Tier == core.TierCheckpoint || att.Tier == core.TierPreviousCheckpoint) {
				sum += att.Seconds
				n++
			}
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
