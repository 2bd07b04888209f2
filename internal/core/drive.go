package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/adapt"
	"repro/internal/fti"
	"repro/internal/obs"
	"repro/internal/quality"
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
// sim.Run is this loop with the cluster model's costs and exponential
// or scheduled failure times; cmd/solve -inject is this loop on the
// wall clock with measured costs and a step-keyed fault plan.
func Drive(cfg DriveConfig) (*Outcome, error) {
	s, m := cfg.Stepper, cfg.Manager
	if s == nil || m == nil {
		return nil, fmt.Errorf("core: Drive needs a Stepper and a Manager")
	}
	d := &driver{cfg: cfg, s: s, m: m, out: &Outcome{}, pos: map[int]int{0: 0},
		costs: measured, overlapped: m.async != nil}
	switch {
	case cfg.Costs == nil && cfg.AsyncCheckpoint:
		return nil, fmt.Errorf("core: AsyncCheckpoint models the overlap; with measured costs the Manager's own pipeline (Config.Async) is the overlap")
	case cfg.Costs == nil:
		if cfg.Clock == nil {
			start := time.Now()
			d.cfg.Clock = func() float64 { return time.Since(start).Seconds() }
		}
	case m.async != nil:
		// The real pipeline's provisional Info (Bytes 0) would zero out
		// the cost callbacks.
		return nil, fmt.Errorf("core: modelled costs need the full Info of a synchronous Manager (disable Config.Async; AsyncCheckpoint models the overlap)")
	case cfg.Clock != nil:
		return nil, fmt.Errorf("core: modelled costs run on the driver's own virtual clock; Clock must be nil")
	case cfg.Costs.TitSeconds <= 0:
		return nil, fmt.Errorf("core: TitSeconds must be positive")
	case m.cfg.Interval > 0:
		return nil, fmt.Errorf("core: a modelled run keeps its cadence in seconds of the virtual clock (IntervalSeconds or Controller); the Manager's Config.Interval must be 0")
	default:
		d.costs, d.virtual, d.overlapped = cfg.Costs.withDefaults(), true, cfg.AsyncCheckpoint
		// Quality spans are stamped with the virtual clock while the run
		// lasts (the closure reads it as it advances).
		cfg.Quality.SetSpanClock(d.now)
		defer cfg.Quality.SetSpanClock(nil)
	}
	if ctrl := cfg.Controller; ctrl != nil {
		if cfg.IntervalSeconds > 0 {
			return nil, fmt.Errorf("core: IntervalSeconds and Controller are mutually exclusive")
		}
		if ctrl.Async() != d.overlapped {
			return nil, fmt.Errorf("core: controller async=%v does not match the run's checkpoint mode async=%v (it would plan against the wrong cost model)",
				ctrl.Async(), d.overlapped)
		}
	}
	if cfg.MaxIterations == 0 {
		d.cfg.MaxIterations = 1_000_000
	}
	d.ob = newDriveObs(cfg.Metrics, cfg.Tracer, d.virtual)
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
	// exclusive with Controller.
	IntervalSeconds float64
	// Controller, when non-nil, plans the interval online. The driver is
	// its only feed: every checkpoint's cost and byte counts, every
	// failure, every completed recovery with its I/O flavour, and — with
	// Quality attached — every audited save's distortion, all on the
	// run's clock, so a seed reproduces the interval trajectory. Its
	// Async flag must match the run's checkpoint mode. It is driven, not
	// copied: pass a fresh one per run.
	Controller *adapt.Controller
	// AsyncCheckpoint models overlapped checkpoints under Costs: the
	// solver is charged CaptureSeconds plus any wait for the previous
	// background write, which occupies CheckpointSeconds of virtual time
	// concurrently with iterations and is not a recovery target until it
	// commits. Measured runs overlap for real through Config.Async.
	AsyncCheckpoint bool

	// OnStep, when non-nil, runs after every completed iteration (after
	// the ABFT guard's retention refresh) — the hook deterministic
	// fault injection couples through to damage state mid-run.
	OnStep func()
	// MaxIterations caps the solver steps executed (default 1,000,000);
	// RecordResiduals retains the per-iteration residual trace.
	MaxIterations   int
	RecordResiduals bool

	// Metrics receives the lifecycle counters (the sim_* catalog) and
	// Tracer the compute spans and failure instants; with Costs the
	// driver also draws the checkpoint, capture, background-write and
	// per-tier recovery spans in virtual time — the schema the Manager
	// and pipeline draw for themselves on a wall clock. Quality must be
	// the auditor attached to the Manager (InstrumentQuality); the driver
	// feeds it the residual trajectory. All three are pure observers: an
	// instrumented run walks the bitwise-identical trajectory.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	Quality *quality.Auditor
}

// Costs is the modelled cost source: the seconds each op takes, as
// functions of what was actually written or attempted. A nil callback
// costs nothing, except ABFTSeconds: Iterations × TitSeconds.
type Costs struct {
	// TitSeconds is the duration of one iteration.
	TitSeconds float64
	// CheckpointSeconds prices one written checkpoint (with
	// AsyncCheckpoint: the background encode+write); StorageRetrySeconds
	// the retry/backoff delay a lossy store adds to that write;
	// CaptureSeconds the solver-visible capture stall of an overlapped
	// checkpoint. Sharded checkpoints carry their layout in info.Shards.
	CheckpointSeconds   func(info fti.Info) float64
	StorageRetrySeconds func(info fti.Info) float64
	CaptureSeconds      func(info fti.Info) float64
	// RecoverySeconds prices one restore read of the checkpoint being
	// recovered from, accepted or rejected, and — with the zero Info — a
	// restart from the initial guess: a relaunch still pays job start-up
	// and the static reload.
	RecoverySeconds func(info fti.Info) float64
	// ABFTSeconds prices one ABFT tier attempt, accepted or rejected (a
	// failed verification still ran the local solve).
	ABFTSeconds func(att TierAttempt) float64
}

func (c Costs) withDefaults() Costs {
	for _, f := range []*func(fti.Info) float64{&c.CheckpointSeconds, &c.StorageRetrySeconds, &c.CaptureSeconds, &c.RecoverySeconds} {
		if *f == nil {
			*f = func(fti.Info) float64 { return 0 }
		}
	}
	if c.ABFTSeconds == nil {
		tit := c.TitSeconds
		c.ABFTSeconds = func(att TierAttempt) float64 { return float64(att.Iterations) * tit }
	}
	return c
}

// measured is the cost source of a run on a real clock: a save costs
// what it timed for itself, known once it has committed. The clock has
// paid for every op by the time its window is known, and a recovery's
// attempts keep the seconds they measured, so nothing else is priced.
var measured = Costs{
	CheckpointSeconds: func(info fti.Info) float64 { return info.EncodeSeconds + info.WriteSeconds },
	CaptureSeconds:    func(info fti.Info) float64 { return info.CaptureSeconds },
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
	// OpWait is the wait for the previous background save to finish.
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

// Event marks a failure in the trace.
type Event struct {
	SimSeconds float64
	Iteration  int // iterations executed when the failure struck
}

// Outcome reports one driven run. The seconds are virtual under
// modelled costs and stopwatch readings under measured ones; the field
// names are the simulator's, which came first.
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
	Failures              int
	Checkpoints           int     // committed
	AbortedCheckpoints    int     // lost to a failure before they committed
	CheckpointTime        float64 // solver-visible seconds spent checkpointing
	// BackpressureTime is the part of CheckpointTime spent waiting for
	// the previous background encode+write: the checkpoint interval was
	// shorter than the background pipeline.
	BackpressureTime float64
	// StorageRetryTime is the modelled seconds checkpoint writes spent
	// in the storage layer's retry/backoff loops (part of
	// CheckpointTime when synchronous, of the background write when
	// overlapped; zero under measured costs, where the retries are
	// inside the measured write).
	StorageRetryTime float64
	RecoveryTime     float64 // seconds spent recovering
	FailureEvents    []Event
	Residuals        []float64 // per executed iteration (optional)
	FinalResidual    float64
	// Recovery-tier accounting. Every completed recovery increments
	// exactly one of the three counters: ABFTRecoveries (checkpoint-free
	// reconstruction — no PFS reads), CheckpointRestarts (latest or
	// previous committed checkpoint), FreshRestarts (restart from the
	// initial guess). RecoveryReadBytes totals the encoded bytes
	// completed recoveries read from storage, including reads of
	// checkpoints that were then rejected — the PFS read-traffic metric
	// the ABFT tier exists to reduce.
	ABFTRecoveries     int
	CheckpointRestarts int
	FreshRestarts      int
	RecoveryReadBytes  int64
	// RecoveryReports holds the per-failure tier reports in failure
	// order. Chains cut short by a new failure before their cost had
	// elapsed are included too, marked Interrupted — their attempts (and
	// the attempts' durations) were still paid — and do not count
	// against the tier counters above.
	RecoveryReports []RecoveryReport
	// IntervalPlans is the adaptive controller's re-planning trajectory
	// (Controller runs only): every interval decision with the estimates
	// it was made from, in clock order.
	IntervalPlans []adapt.Plan
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
	cfg        DriveConfig
	s          solver.Stepper
	m          *Manager
	costs      Costs
	virtual    bool
	overlapped bool // a save returns after its capture; the write runs behind the solver
	out        *Outcome
	ob         driveObs

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

	// The overlapped save in flight, not a recovery target until it
	// commits: captured at saveStart, committing under saveSeq, at
	// saveCommitAt where that is known (the virtual clock).
	saveLive                bool
	saveStart, saveCommitAt float64
	saveSeq                 int
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
	d.computeAt = d.ob.now(d.now())
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
	d.settle(math.Inf(1))
	d.closeCompute()
	out.SimSeconds = d.now()
	d.ob.elapsed.Set(out.SimSeconds)
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
	d.cfg.Quality.ObserveResidual(d.s.Iteration(), rnorm)
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

// pending reports whether the overlapped save is still in flight at
// clock time at: by its commit time on the virtual clock, by asking the
// real pipeline (at being now) otherwise.
func (d *driver) pending(at float64) bool {
	if d.virtual {
		return d.saveLive && d.saveCommitAt > at
	}
	return d.saveLive && d.m.InFlight()
}

// settle folds an overlapped save that has finished by clock time at
// into the accounting — unless it committed nothing: a degraded save
// swallowed on the spot, or one that failed in the background (the
// Manager surfaces or, in degraded mode, counts that). A real save
// knows what it cost only now; a modelled one told the controller at
// capture.
func (d *driver) settle(at float64) {
	if !d.saveLive || d.pending(at) {
		return
	}
	d.saveLive = false
	d.ob.model.Complete(obs.TrackPipeline, obs.CatCheckpoint, obs.SpanBackground,
		d.saveStart, d.saveCommitAt-d.saveStart, nil)
	info := d.m.LastInfo()
	if info.Seq == 0 || info.Seq != d.saveSeq {
		return
	}
	d.out.Checkpoints++
	d.ob.ckpts.Inc()
	if !d.virtual {
		d.observeCheckpoint(info, adapt.CheckpointObs{
			CaptureSeconds: d.costs.CaptureSeconds(info), BackgroundSeconds: d.costs.CheckpointSeconds(info)})
	}
}

// abort drops the save a failure caught uncommitted, so that recovery
// falls back to the previous committed checkpoint.
func (d *driver) abort() error {
	d.out.AbortedCheckpoints++
	d.ob.aborts.Inc()
	if err := d.m.AbortLastCheckpoint(); err != nil {
		return fmt.Errorf("core: abort checkpoint: %w", err)
	}
	return nil
}

// observeCheckpoint is the controller's checkpoint feed: the cost
// observation, stamped and sized here, and the audited distortion of
// the same save when the quality auditor sampled it.
func (d *driver) observeCheckpoint(info fti.Info, o adapt.CheckpointObs) {
	ctrl := d.cfg.Controller
	if ctrl == nil {
		return
	}
	o.When, o.RawBytes, o.Bytes = d.now(), info.RawBytes, info.Bytes
	ctrl.ObserveCheckpoint(o)
	dist := d.cfg.Quality.DistortionFor(info.Seq)
	if dist == nil {
		return
	}
	q := adapt.QualityObs{When: o.When, Relative: dist.Relative}
	if dist.RequestedBound > 0 {
		q.BoundRatio = dist.MaxError / dist.RequestedBound
	}
	if info.Bytes > 0 {
		q.CompressionRatio = float64(info.RawBytes) / float64(info.Bytes)
	}
	ctrl.ObserveQuality(q)
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
	if d.pending(begin) {
		// Backpressure: at most one save is in flight.
		if a := d.m.async; a != nil {
			a.WaitBackpressure()
		}
		wait, hit := d.close(OpWait, begin, d.saveCommitAt, d.saveCommitAt-begin)
		out.CheckpointTime += wait
		out.BackpressureTime += wait
		if hit {
			return true, nil // the in-flight write never completes: recover aborts it
		}
		begin = d.now()
	}
	d.settle(begin)

	info, err := d.m.Checkpoint()
	if err != nil {
		return false, fmt.Errorf("core: checkpoint: %w", err)
	}
	d.pos[d.s.Iteration()] = d.logical
	// The write, retry delay included, is the solver's stall when
	// synchronous and rides behind the capture when overlapped.
	retry := d.costs.StorageRetrySeconds(info)
	write := d.costs.CheckpointSeconds(info) + retry
	stall := write
	if d.overlapped {
		stall = d.costs.CaptureSeconds(info)
	} else {
		out.StorageRetryTime += retry
	}
	stall, hit := d.close(OpCheckpoint, begin, begin+stall, stall)
	out.CheckpointTime += stall
	if hit {
		// The failure struck mid-save (the sync write was partial, or the
		// overlapped capture was): the unusable checkpoint is discarded —
		// unless it was a degraded save, which wrote nothing to discard.
		d.ob.model.Complete(obs.TrackSolver, obs.CatCheckpoint, obs.SpanCheckpoint, begin, stall,
			map[string]float64{"aborted": 1})
		if info.Seq != 0 {
			err = d.abort()
		}
		return true, err
	}
	now := d.openWindow()
	if d.overlapped {
		d.ob.model.Complete(obs.TrackSolver, obs.CatCheckpoint, obs.SpanCapture, begin, stall, nil)
		d.saveLive, d.saveStart, d.saveSeq = true, now, info.Seq
		if d.virtual {
			// The background write's cost is known at once; a real one's
			// only when it has committed (settle).
			out.StorageRetryTime += retry
			d.saveCommitAt = now + write
			d.observeCheckpoint(info, adapt.CheckpointObs{CaptureSeconds: stall, BackgroundSeconds: write})
		}
		return false, nil
	}
	d.ob.model.Complete(obs.TrackSolver, obs.CatCheckpoint, obs.SpanCheckpoint, begin, stall,
		map[string]float64{"bytes": float64(info.Bytes)})
	if info.Seq != 0 { // else a degraded save was swallowed: nothing committed
		out.Checkpoints++
		d.ob.ckpts.Inc()
		d.observeCheckpoint(info, adapt.CheckpointObs{SyncSeconds: write})
	}
	return false, nil
}

// recover is the one failure path. An overlapped save that finished
// before the failure had committed; one still in flight on the virtual
// clock is lost with the node (a real one runs in this process and
// outlives the simulated loss: the recovery drains it and adopts it if
// it committed, never if it failed, which keeps a measured run's
// trajectory independent of how fast its I/O was). Then: count the
// failure, lose a rank, run the whole chain — ABFT (when the Manager
// carries a guard) → latest checkpoint → older checkpoints → restart
// from X0 — and roll the logical index back to wherever it landed. A
// failure inside the recovery wastes the chain and reruns it against
// the new loss.
func (d *driver) recover() error {
	out, ctrl := d.out, d.cfg.Controller
	d.settle(d.now())
	if d.saveLive && d.virtual {
		d.saveLive = false
		d.ob.model.Complete(obs.TrackPipeline, obs.CatCheckpoint, obs.SpanBackground,
			d.saveStart, d.t-d.saveStart, map[string]float64{"aborted": 1})
		if err := d.abort(); err != nil {
			return err
		}
	}
	for {
		begin := d.now()
		out.Failures++
		out.FailureEvents = append(out.FailureEvents, Event{SimSeconds: begin, Iteration: out.IterationsExecuted})
		if ctrl != nil {
			ctrl.ObserveFailure(begin)
		}
		d.ob.failure(begin)
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
			d.ob.recovery(rep, begin, d.now())
			continue
		}
		d.ob.recovery(rep, begin, math.Inf(1))
		d.settle(d.now()) // a drained real save committed, or failed, inside the recovery
		out.RecoveryReadBytes += int64(rep.ReadBytes())
		restart := adapt.RecoveryObs{Seconds: cost, RestartIO: true}
		switch rep.Used {
		case TierABFT:
			// The pre-failure state itself is back: no logical rollback,
			// no re-executed work, no restart I/O.
			out.ABFTRecoveries++
			restart.RestartIO = false
		case TierRestartZero:
			out.FreshRestarts++
			d.logical = 0
		default:
			out.CheckpointRestarts++
			d.logical = d.pos[rep.Iteration]
		}
		if ctrl != nil {
			ctrl.ObserveRecoveryKind(restart)
		}
		d.openWindow()
		return nil
	}
}

// price returns what one run of the chain cost. On the virtual clock it
// prices every attempt and writes the price back onto it, so the
// report's durations are consistently virtual for accepted and rejected
// attempts alike: an ABFT attempt costs its reconstruction work, each
// checkpoint-rung attempt one restore read of the checkpoint recovery
// stands on, and a restart from zero the relaunch. On a real clock the
// attempts timed themselves.
func (d *driver) price(rep *RecoveryReport) float64 {
	total := 0.0
	for i := range rep.Attempts {
		att := &rep.Attempts[i]
		switch {
		case !d.virtual:
		case att.Tier == TierABFT:
			att.Seconds = d.costs.ABFTSeconds(*att)
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
// the trace, at the clock's current reading, which it returns.
func (d *driver) openWindow() float64 {
	now := d.now()
	d.ob.window.Set(now - d.windowAt)
	d.windowAt, d.windowSteps = now, d.out.IterationsExecuted
	d.computeAt = d.ob.now(now)
	return now
}

// closeCompute closes the current uninterrupted stretch of solver
// iterations as one coalesced span on the solver track.
func (d *driver) closeCompute() {
	now := d.ob.now(d.now())
	if now > d.computeAt {
		d.ob.tr.Complete(obs.TrackSolver, obs.CatSolver, obs.SpanCompute, d.computeAt, now-d.computeAt, nil)
	}
	d.computeAt = now
}
