package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/adapt"
	"repro/internal/failure"
	"repro/internal/fti"
	"repro/internal/obs"
	"repro/internal/solver"
)

// Drive is the one checkpoint lifecycle (paper Algorithms 1–2, §5.4):
//
//	step → observe → failure? → due? → wait for the previous save →
//	capture/encode/write → commit | abort → tiered recovery → rollback
//
// walked by one loop over a real solver, a real Manager and real
// restarts. Three inputs decide what kind of run it is, and nothing
// else differs between them:
//
//	clock     Costs set: a virtual clock the driver itself advances from
//	          0. Costs nil: Clock, or wall seconds since Drive began.
//	costs     Costs set: modelled seconds, known before the clock moves,
//	          so a failure can cut an op short. Costs nil: measured — an
//	          op has run, and the clock has paid for it, by the time its
//	          window is known, so a failure inside it lands at its end;
//	          what it cost is what it measured for itself (fti.Info
//	          stage timings, TierAttempt.Seconds).
//	failures  where failures land, asked once per window.
//
// A modelled run is synchronous, as the paper's model prices it: Costs
// over a Manager built with Config.Async is refused, and overlap is
// measured only. It is also unobserved: Costs over an instrumented
// Manager is refused, so every span and metric is on the wall clock. A
// measured run draws its compute spans, failure instants and realized
// interval windows into the sinks Manager.Instrument attached. The
// experiments run this loop with the cluster model's Costs and
// FailureTimes; cmd/solve runs it on the wall clock with measured costs
// and, under -inject, a step-keyed fault plan.
func Drive(cfg DriveConfig) (*Outcome, error) {
	s, m := cfg.Stepper, cfg.Manager
	if s == nil || m == nil {
		return nil, fmt.Errorf("core: Drive needs a Stepper and a Manager")
	}
	d := &driver{cfg: cfg, s: s, m: m, out: &Outcome{}, pos: map[int]int{0: 0},
		costs: measured}
	switch {
	case cfg.Costs == nil:
		if cfg.Clock == nil {
			start := time.Now()
			d.cfg.Clock = func() float64 { return time.Since(start).Seconds() }
		}
	case cfg.Clock != nil:
		return nil, fmt.Errorf("core: modelled costs run on the driver's own virtual clock; Clock must be nil")
	case cfg.Costs.TitSeconds <= 0:
		return nil, fmt.Errorf("core: TitSeconds must be positive")
	case m.cfg.Interval > 0:
		return nil, fmt.Errorf("core: a modelled run keeps its cadence in seconds of the virtual clock (IntervalSeconds or Controller); the Manager's Config.Interval must be 0")
	case m.async != nil:
		return nil, fmt.Errorf("core: a modelled run is synchronous; the Manager's Config.Async must be false")
	case m.mobs != (managerObs{}), m.qa != nil:
		return nil, fmt.Errorf("core: a modelled run is unobserved; the Manager must not carry Manager.Instrument or Manager.InstrumentQuality")
	default:
		d.costs, d.virtual = cfg.Costs.withDefaults(), true
	}
	if cfg.Controller != nil && cfg.IntervalSeconds > 0 {
		return nil, fmt.Errorf("core: IntervalSeconds and Controller are mutually exclusive")
	}
	if cfg.MaxIterations == 0 {
		d.cfg.MaxIterations = 1_000_000
	}
	return d.run()
}

// DriveConfig assembles one driven run.
type DriveConfig struct {
	// Stepper is the live solver the Manager was built around. With
	// Config.ABFT the Manager carries rung 0 of the recovery chain: the
	// driver refreshes the guard's retention after every step and draws
	// the lost rank before every recovery. X0 is the initial guess the
	// chain's last rung restarts from.
	Stepper solver.Stepper
	Manager *Manager
	X0      []float64

	// Clock reads the run's time in seconds when costs are measured (nil:
	// wall seconds since Drive was called; must be nil with Costs). Costs
	// models every op's duration; nil measures them. Failures says where
	// failures land; nil disables them.
	Clock    func() float64
	Costs    *Costs
	Failures FailureSource

	// IntervalSeconds opens a checkpoint whenever this much time has
	// passed on the clock since the last capture or recovery. Zero
	// leaves the cadence to Controller or — measured runs only — to the
	// Manager's iteration-count Config.Interval (Manager.Due). Mutually
	// exclusive with Controller. It is compared against a difference of
	// clock readings, and N steps of TitSeconds after a fractional save
	// or recovery cost can read a hair under N·TitSeconds, so a caller
	// counting steps passes half a step less.
	IntervalSeconds float64
	// Controller, when non-nil, plans the interval online. The driver is
	// its only feed: every committed checkpoint's cost — the whole write
	// when synchronous, capture and background write when overlapped —
	// and every failure, on the run's clock, so a seed reproduces the
	// interval trajectory. It is driven, not copied: pass a fresh one per
	// run.
	Controller *adapt.Controller

	// OnStep, when non-nil, runs after every completed iteration (after
	// the ABFT guard's retention refresh) — the hook deterministic
	// fault injection couples through to damage state mid-run.
	OnStep func()
	// MaxIterations caps the solver steps executed (default 1,000,000);
	// RecordResiduals retains the per-iteration residual trace.
	MaxIterations   int
	RecordResiduals bool
}

// Costs is the modelled cost source, and a modelled run is synchronous:
// the seconds each op takes, as functions of what was actually written
// or attempted. A nil callback costs nothing.
type Costs struct {
	// TitSeconds is the duration of one iteration, and so prices an ABFT
	// tier attempt's local iterations too.
	TitSeconds float64
	// CheckpointSeconds prices one written checkpoint, the solver's
	// whole stall for it, retries included. Sharded checkpoints carry
	// their layout in info.Shards.
	CheckpointSeconds func(info fti.Info) float64
	// RecoverySeconds prices one restore read of the checkpoint being
	// recovered from, accepted or rejected, and — with the zero Info — a
	// restart from the initial guess: a relaunch still pays job start-up
	// and the static reload.
	RecoverySeconds func(info fti.Info) float64
}

func (c Costs) withDefaults() Costs {
	for _, f := range []*func(fti.Info) float64{&c.CheckpointSeconds, &c.RecoverySeconds} {
		if *f == nil {
			*f = func(fti.Info) float64 { return 0 }
		}
	}
	return c
}

// measured is the cost source of a run on a real clock: a save costs
// what it timed for itself, known once it has committed. The clock has
// paid for every op by the time its window is known, and a recovery's
// attempts keep the seconds they measured, so nothing else is priced.
var measured = Costs{
	CheckpointSeconds: func(info fti.Info) float64 { return info.EncodeSeconds + info.WriteSeconds },
}.withDefaults()

// Op names the kind of window a failure source is asked about.
type Op int

const (
	// OpStep is one solver iteration.
	OpStep Op = iota
	// OpCadence is the instant after a step at which the driver decides
	// whether a checkpoint opens (Start == End) — the first thing it
	// asks there. A hit opens one: this is how a step-keyed plan pins a
	// failure inside a save ("midckpt").
	OpCadence
	// OpWait is the wait for the previous background save to finish
	// (measured runs only: a modelled run is synchronous).
	OpWait
	// OpCheckpoint is the solver-visible part of a save: the whole
	// write when synchronous, the capture when overlapped.
	OpCheckpoint
	// OpRecovery is one run of the recovery chain.
	OpRecovery
)

// Window is one op's extent on the run's clock. Iteration is the
// solver's own counter when the question is asked.
type Window struct {
	Op         Op
	Iteration  int
	Start, End float64
}

// FailureSource is the driver's third input. It answers one question —
// does a failure land inside this window, and when — once per window,
// in clock order. A time-keyed source compares its next failure time
// with End; a step-keyed one (a fault plan) goes by Op and Iteration
// and reports the window's End.
type FailureSource interface {
	Strikes(w Window) (at float64, hit bool)
}

// FailureTimes is the time-keyed failure source of a modelled run: the
// absolute times of schedule (ascending) while it lasts, then inj's
// exponential gaps; with neither, no failure lands. A scheduled time at
// or before the previous failure (or 0) lands 1 ns after it. The failure
// after a strike is drawn the moment the strike is reported, so a
// seed's draws come in failure order whatever the failures interrupt.
func FailureTimes(schedule []float64, inj *failure.Injector) FailureSource {
	f := &failureTimes{schedule: schedule, inj: inj}
	f.next = f.draw(0)
	return f
}

type failureTimes struct {
	schedule []float64
	inj      *failure.Injector
	next     float64
}

// draw returns the absolute time of the first failure after now.
func (f *failureTimes) draw(now float64) float64 {
	if len(f.schedule) > 0 {
		next := f.schedule[0]
		f.schedule = f.schedule[1:]
		if next <= now {
			next = now + 1e-9
		}
		return next
	}
	if f.inj != nil {
		return f.inj.Next(now)
	}
	return math.Inf(1)
}

func (f *failureTimes) Strikes(w Window) (float64, bool) {
	if w.End <= f.next {
		return 0, false
	}
	at := f.next
	f.next = f.draw(at)
	return at, true
}

// Event marks a failure in the trace.
type Event struct {
	SimSeconds      float64
	Iteration       int // iterations executed when the failure struck
	SolverIteration int // the solver's iteration counter when it struck
}

// Outcome reports one driven run. The seconds are virtual under
// modelled costs and stopwatch readings under measured ones; the field
// names are the simulator's, which came first. The run's failure and
// recovery counts are derived from its records by Recoveries.
type Outcome struct {
	Converged          bool
	SimSeconds         float64 // total time on the run's clock, Tt
	IterationsExecuted int     // solver steps actually performed
	// ConvergenceIterations is the paper's "number of convergence
	// iterations": the logical iteration index at convergence, which
	// rolls back to the checkpointed index on recovery (re-executed
	// work is not double counted). GMRES's occasional post-recovery
	// acceleration shows up here as a count *below* the failure-free
	// baseline (paper Fig. 8).
	ConvergenceIterations int
	Checkpoints           int     // committed
	AbortedCheckpoints    int     // lost to a failure before they committed
	CheckpointTime        float64 // solver-visible seconds spent checkpointing
	// BackpressureTime is the part of CheckpointTime spent waiting for
	// the previous background encode+write: the checkpoint interval was
	// shorter than the background pipeline. Zero on a modelled run.
	BackpressureTime float64
	RecoveryTime     float64 // seconds spent recovering
	// FailureEvents holds one event per failure, a failure inside a
	// recovery included.
	FailureEvents []Event
	Residuals     []float64 // per executed iteration (optional)
	FinalResidual float64
	// RecoveryReports holds the per-failure tier reports in failure
	// order. Chains cut short by a new failure before their cost had
	// elapsed are included too, marked Interrupted: their attempts (and
	// the attempts' durations) were still paid, but they recovered
	// nothing (Recoveries leaves them out).
	RecoveryReports []RecoveryReport
	// IntervalPlans is the adaptive controller's re-planning trajectory
	// (Controller runs only): every interval decision with the estimates
	// it was made from, in clock order.
	IntervalPlans []adapt.Plan
}

// Recoveries tallies the run from its own records: failures counts the
// FailureEvents, and each completed recovery (a RecoveryReport not
// marked Interrupted) counts once under the tier it landed on in
// byTier and adds the encoded bytes its attempts read from storage to
// readBytes, rejected checkpoints' reads included — the PFS read
// traffic the ABFT tier exists to reduce.
func (o *Outcome) Recoveries() (failures int, byTier [TierRestartZero + 1]int, readBytes int64) {
	for _, rep := range o.RecoveryReports {
		if !rep.Interrupted {
			byTier[rep.Used]++
			readBytes += int64(rep.ReadBytes())
		}
	}
	return len(o.FailureEvents), byTier, readBytes
}

// FaultToleranceOverhead computes the paper's metric: total running
// time minus the failure-free baseline's productive time.
func (o *Outcome) FaultToleranceOverhead(baselineSeconds float64) float64 {
	return o.SimSeconds - baselineSeconds
}

// driver is the state of one Drive call. What tells a modelled run from
// a measured one is decided once, in Drive: the cost source, and
// whether the clock is the driver's own — which is also whether an op's
// cost is known before it runs or only after.
type driver struct {
	cfg     DriveConfig
	s       solver.Stepper
	m       *Manager
	costs   Costs
	virtual bool
	out     *Outcome

	t float64 // the virtual clock
	// The interval window opened at windowAt, windowSteps executed steps
	// into the run: at the last capture, or the last recovery — the
	// state just went back to storage's version of itself, so nothing
	// is at risk yet.
	windowAt    float64
	windowSteps int
	computeAt   float64 // trace time the current stretch of iterations began

	// logical is the paper's iteration index i; pos remembers it per
	// checkpointed solver iteration, so a recovery's rollback is known
	// whichever rung it lands on and whether or not the scheme rewinds
	// the solver's own counter.
	logical int
	pos     map[int]int

	// The overlapped save in flight (an async Manager's: a save returns
	// after its capture and the write runs behind the solver), not a
	// recovery target until it commits under saveSeq.
	saveLive bool
	saveSeq  int
}

func (d *driver) now() float64 {
	if d.virtual {
		return d.t
	}
	return d.cfg.Clock()
}

// strikes puts the one question to the failure source.
func (d *driver) strikes(op Op, start, end float64) (float64, bool) {
	if d.cfg.Failures == nil {
		return 0, false
	}
	return d.cfg.Failures.Strikes(Window{Op: op, Iteration: d.s.Iteration(), Start: start, End: end})
}

// close ends an op that began at begin. On the virtual clock it would
// run to end and cost that many seconds; on a real one it has run, and
// the clock reads its end. A failure inside the window ends the op
// there. It returns what the op took and whether it was struck.
func (d *driver) close(op Op, begin, end, cost float64) (float64, bool) {
	if !d.virtual {
		end = d.now()
		cost = end - begin
	}
	at, hit := d.strikes(op, begin, end)
	if hit {
		end, cost = at, at-begin
	}
	d.t = end
	return cost, hit
}

func (d *driver) run() (*Outcome, error) {
	s, out := d.s, d.out
	d.computeAt = d.m.mobs.tr.Now()
	rnorm := s.ResidualNorm()
	for !s.Converged(rnorm) && out.IterationsExecuted < d.cfg.MaxIterations {
		var struck bool
		var err error
		if d.due() { // Algorithm 1/2 line 3
			struck, err = d.checkpoint()
		}
		if err == nil && !struck {
			if rnorm, struck = d.step(rnorm); struck {
				d.closeCompute()
			}
		}
		if err == nil && struck {
			err = d.recover()
			rnorm = s.ResidualNorm()
		}
		if err != nil {
			return nil, err
		}
	}
	// A background write still running at convergence completes during
	// shutdown; it counts as taken but adds no solver-visible time.
	if _, err := d.m.WaitCheckpoint(); err != nil {
		return nil, err
	}
	d.settle()
	d.closeCompute()
	out.SimSeconds = d.now()
	out.Converged = s.Converged(rnorm)
	out.ConvergenceIterations = d.logical
	out.FinalResidual = rnorm
	if ctrl := d.cfg.Controller; ctrl != nil {
		out.IntervalPlans = append([]adapt.Plan(nil), ctrl.Trajectory()...)
	}
	return out, nil
}

// step runs one iteration and reports whether a failure struck it. The
// question is put once the step's window is known: before a modelled
// step, which a failure then cuts short — it never runs, its work would
// be lost with the node — and after a measured one, whose state the
// failure takes.
func (d *driver) step(rnorm float64) (float64, bool) {
	begin, tit := d.now(), d.costs.TitSeconds
	struck := func() bool { _, hit := d.close(OpStep, begin, begin+tit, tit); return hit }
	if d.virtual && struck() {
		return rnorm, true
	}
	rnorm = d.s.Step()
	if guard := d.m.abft; guard != nil {
		// The guard retains its per-iteration redundancy after every
		// accepted step, as the paper's protected CG does.
		guard.Observe()
	}
	if d.cfg.OnStep != nil {
		d.cfg.OnStep()
	}
	d.out.IterationsExecuted++
	d.logical++
	if d.cfg.RecordResiduals {
		d.out.Residuals = append(d.out.Residuals, rnorm)
	}
	return rnorm, !d.virtual && struck()
}

// due is the one cadence decision: a checkpoint opens now when the
// failure source pins a save here (asked first, so a plan's "midckpt"
// is never preempted by a save that happens to be due anyway), when the
// interval in force — the fixed IntervalSeconds or the controller's
// current plan — has passed on the clock since the window opened, or
// when the Manager's iteration-count cadence says so. Never before a
// step has run in the window: a state just saved or just restored is
// not worth saving again.
func (d *driver) due() bool {
	now := d.now()
	iv := d.cfg.IntervalSeconds
	if ctrl := d.cfg.Controller; ctrl != nil {
		// Asked on every pass: the controller re-plans on its own epoch
		// cadence as observations arrive.
		iv = ctrl.Interval(now)
	}
	if d.out.IterationsExecuted == d.windowSteps {
		return false
	}
	_, pinned := d.strikes(OpCadence, now, now)
	return pinned || iv > 0 && now-d.windowAt >= iv || d.m.Due()
}

// settle folds an overlapped save that has finished into the
// accounting — unless it committed nothing: a degraded save swallowed
// on the spot, or one that failed in the background (the Manager
// surfaces or, in degraded mode, counts that). The save knows what it
// cost only now.
func (d *driver) settle() {
	if !d.saveLive || d.m.InFlight() {
		return
	}
	d.saveLive = false
	info := d.m.LastInfo()
	if info.Seq == 0 || info.Seq != d.saveSeq {
		return
	}
	d.out.Checkpoints++
	d.observeCheckpoint(adapt.CheckpointObs{
		CaptureSeconds: info.CaptureSeconds, BackgroundSeconds: d.costs.CheckpointSeconds(info)})
}

// abort drops the save a failure caught uncommitted, so that recovery
// falls back to the previous committed checkpoint.
func (d *driver) abort() error {
	d.out.AbortedCheckpoints++
	if err := d.m.AbortLastCheckpoint(); err != nil {
		return fmt.Errorf("core: abort checkpoint: %w", err)
	}
	return nil
}

// observeCheckpoint is the controller's checkpoint feed.
func (d *driver) observeCheckpoint(o adapt.CheckpointObs) {
	if ctrl := d.cfg.Controller; ctrl != nil {
		ctrl.ObserveCheckpoint(o)
	}
}

// checkpoint walks one save through the lifecycle: wait for the
// previous background write, capture (and, synchronously, encode and
// write), then commit — or, when a failure lands inside the wait or
// the save, report the strike with the struck save aborted; the caller
// recovers.
func (d *driver) checkpoint() (struck bool, err error) {
	out := d.out
	d.closeCompute()
	begin := d.now()
	if d.saveLive && d.m.InFlight() {
		// Backpressure: at most one save is in flight.
		d.m.async.WaitBackpressure()
		wait, hit := d.close(OpWait, begin, begin, 0)
		out.CheckpointTime += wait
		out.BackpressureTime += wait
		if hit {
			return true, nil // the awaited save has finished: recovery settles it
		}
		begin = d.now()
	}
	d.settle()

	info, err := d.m.Checkpoint()
	if err != nil {
		return false, fmt.Errorf("core: checkpoint: %w", err)
	}
	d.pos[d.s.Iteration()] = d.logical
	// The write is the solver's stall when synchronous and rides behind
	// the capture when overlapped, which only a real clock runs.
	write := d.costs.CheckpointSeconds(info)
	stall, hit := d.close(OpCheckpoint, begin, begin+write, write)
	out.CheckpointTime += stall
	if hit {
		// The failure struck mid-save (the sync write was partial, or the
		// overlapped capture was): the unusable checkpoint is discarded —
		// unless it was a degraded save, which wrote nothing to discard.
		if info.Seq != 0 {
			err = d.abort()
		}
		return true, err
	}
	d.openWindow()
	if d.m.async != nil {
		d.saveLive, d.saveSeq = true, info.Seq
		return false, nil
	}
	if info.Seq != 0 { // else a degraded save was swallowed: nothing committed
		out.Checkpoints++
		d.observeCheckpoint(adapt.CheckpointObs{SyncSeconds: write})
	}
	return false, nil
}

// recover is the one failure path. An overlapped save that finished
// before the failure had committed; one still in flight runs in this
// process and outlives the simulated loss: the recovery drains it and
// adopts it if it committed, never if it failed, which keeps a measured
// run's trajectory independent of how fast its I/O was. Then: count the
// failure, lose a rank, run the whole chain — ABFT (when the Manager
// carries a guard) → latest checkpoint → older checkpoints → restart
// from X0 — and roll the logical index back to wherever it landed. A
// failure inside the recovery wastes the chain and reruns it against
// the new loss.
func (d *driver) recover() error {
	out, ctrl := d.out, d.cfg.Controller
	d.settle()
	for {
		begin := d.now()
		out.FailureEvents = append(out.FailureEvents, Event{SimSeconds: begin, Iteration: out.IterationsExecuted, SolverIteration: d.s.Iteration()})
		if ctrl != nil {
			ctrl.ObserveFailure(begin)
		}
		d.m.mobs.tr.InstantAt(obs.TrackSolver, obs.CatRecovery, obs.SpanFailure, d.m.mobs.tr.Now())
		if guard := d.m.abft; guard != nil {
			// Each failure (including one striking during recovery) loses
			// one rank drawn from the guard's seeded stream.
			guard.FailNextRank()
		}
		rep, err := d.m.RecoverTiered(d.cfg.X0)
		if err != nil {
			return fmt.Errorf("core: tiered recovery: %w", err)
		}
		cost := d.price(rep)
		spent, interrupted := d.close(OpRecovery, begin, begin+cost, cost)
		out.RecoveryTime += spent
		rep.Interrupted = interrupted
		out.RecoveryReports = append(out.RecoveryReports, *rep)
		if interrupted {
			continue
		}
		d.settle() // a drained save committed, or failed, inside the recovery
		switch rep.Used {
		case TierABFT:
			// The pre-failure state itself is back: no logical rollback,
			// no re-executed work, no restart I/O.
		case TierRestartZero:
			d.logical = 0
		default:
			d.logical = d.pos[rep.Iteration]
		}
		d.openWindow()
		return nil
	}
}

// price returns what one run of the chain cost. On the virtual clock it
// prices every attempt and writes the price back onto it, so the
// report's durations are consistently virtual for accepted and rejected
// attempts alike: an ABFT attempt costs its local iterations at
// TitSeconds each (a failed verification still ran the local solve),
// each checkpoint-rung attempt one restore read of the checkpoint
// recovery stands on, and a restart from zero the relaunch. On a real
// clock the attempts timed themselves.
func (d *driver) price(rep *RecoveryReport) float64 {
	total := 0.0
	for i := range rep.Attempts {
		att := &rep.Attempts[i]
		switch {
		case !d.virtual:
		case att.Tier == TierABFT:
			att.Seconds = float64(att.Iterations) * d.costs.TitSeconds
		case att.Tier == TierRestartZero:
			att.Seconds = d.costs.RecoverySeconds(fti.Info{})
		default:
			att.Seconds = d.costs.RecoverySeconds(d.m.LastInfo())
		}
		total += att.Seconds
	}
	return total
}

// openWindow restarts the interval window, and the compute stretch of
// the trace, at the clock's current reading.
func (d *driver) openWindow() {
	now := d.now()
	d.m.mobs.window.Set(now - d.windowAt)
	d.windowAt, d.windowSteps = now, d.out.IterationsExecuted
	d.computeAt = d.m.mobs.tr.Now()
}

// closeCompute closes the current uninterrupted stretch of solver
// iterations as one coalesced span on the solver track.
func (d *driver) closeCompute() {
	tr := d.m.mobs.tr
	now := tr.Now()
	if now > d.computeAt {
		tr.Complete(obs.TrackSolver, obs.CatSolver, obs.SpanCompute, d.computeAt, now-d.computeAt, nil)
	}
	d.computeAt = now
}
