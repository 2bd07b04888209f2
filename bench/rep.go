package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fti"
	"repro/internal/model"
	"repro/internal/solver"
)

// schedule places one failure in every window of gap harness steps.
// Failures are keyed to harness steps, not to wall time (both sides of
// an A/B get the same schedule however fast they run) and not to
// solver.Iteration() (an exact restore rewinds it).
//
// Where in its window a failure falls decides how much is replayed
// and, for a lossy restart, which stage of convergence is disturbed —
// on cg-lossy-sync one solve takes 58 steps and the next 123. So a
// run's reps share the window out between them: window j is cut into
// as many slots as there are reps, a seeded permutation hands each rep
// one slot, and a seeded phase places the failure inside the slot.
// Every run then covers the whole window evenly, and the seed decides
// the phase and which slots meet in one solve.
//
// The issue asked for exponential gaps from failure.NewInjector. A
// solve here lasts two to twenty mean gaps, so the failure count and
// positions of an exponential schedule move time-to-solution from seed
// to seed by several times the bound the metric carries.
type schedule struct {
	seed      int64
	rep, reps int
	gap       int
	window    int
}

// next returns the harness step of the next failure.
func (s *schedule) next() int {
	rng := rand.New(rand.NewSource(s.seed*1_000_003 + int64(s.window)))
	phase := rng.Float64()
	slot := rng.Perm(s.reps)[s.rep]
	step := s.window*s.gap + 1 + int((float64(slot)+phase)*float64(s.gap)/float64(s.reps))
	s.window++
	return step
}

// Kinds of operation on the solver goroutine besides Step. Each kind is
// the same work every time it runs, give or take what the state
// compresses to, so its durations can be pooled over a run's reps.
const (
	opStall       = iota // Manager.Checkpoint
	opRecover            // RecoverTiered that restored a checkpoint
	opRestartZero        // RecoverTiered that fell through to the initial guess
	opDrain              // the final WaitCheckpoint
	nOp
)

// repResult is what one solve yields, in raw form; summarize turns a
// run's reps into metrics.
type repResult struct {
	setup, tts     time.Duration // tts: first Step to converged and drained
	lg             ledger
	steps          int
	ops            [nOp][]time.Duration // durations of the non-step operations
	stepsByPos     [][]time.Duration    // step durations by position in the Krylov cycle
	infos          []fti.Info           // one per committed checkpoint
	ckptCalls      int
	replayed       int
	readBytes      int
	async          fti.AsyncStats
	precondSetup   time.Duration
	layers         layerClock
	writes, reads  opCount
	lists, deletes int
	attempted      int
	failures       []string
}

func (r *repResult) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *repResult) storedBytes() int {
	n := 0
	for _, info := range r.infos {
		n += info.Bytes
	}
	return n
}

// savedState is the harness's own copy of what a checkpoint captured,
// kept in the traced pass to check what a recovery restores.
type savedState struct {
	x  []float64
	eb float64 // pointwise-relative bound in force; 0 for exact schemes
}

// runRep builds a system, solves it under the rep's failure schedule
// with periodic checkpoints, and checks the answer. With no schedule
// it runs the same loop with no failures and no checkpoints: the
// baseline that replayed and extra iterations are counted against.
func (w workload) runRep(ckptRoot string, sched *schedule, traced bool) (*repResult, error) {
	runtime.GC() // the previous rep's garbage is not this rep's cost
	res := &repResult{}

	setupStart := time.Now()
	sys, err := w.build(ckptRoot, traced)
	if err != nil {
		return nil, err
	}
	res.setup = time.Since(setupStart)
	res.precondSetup = sys.precondSetup
	defer sys.close()

	mgr, slv := sys.mgr, sys.slv
	x0 := make([]float64, len(sys.b))
	faultFree := sched == nil
	nextFail := 0 // harness steps count from 1
	if !faultFree {
		nextFail = sched.next()
	}

	// pos is the number of productive iterations behind the current
	// iterate; posAt remembers it per checkpointed solver iteration, so
	// a recovery's replay length is known whichever tier it lands on and
	// whether or not the scheme rewinds the solver's own counter.
	pos, posAt := 0, map[int]int{0: 0}
	saved := map[int]savedState{}
	if traced {
		saved[0] = savedState{x: x0}
	}
	lastSeq := 0
	collect := func() {
		if info := mgr.LastInfo(); info.Seq > lastSeq {
			lastSeq = info.Seq
			res.infos = append(res.infos, info)
		}
	}

	lg := &res.lg
	cycle := 1
	if sys.gmres != nil {
		cycle = sys.gmres.RestartLength()
	}
	ts := &timedStepper{Stepper: slv, lg: lg, layers: sys.layers, byPos: make([][]time.Duration, cycle)}
	var loopErr error
	cb := func(_ int, rnorm float64) error {
		res.steps++
		pos++
		if faultFree || slv.Converged(rnorm) {
			return nil // nothing strikes a finished solve
		}
		if res.steps == nextFail {
			// The failure strikes first: a checkpoint due on this step is
			// lost with the rest of the state.
			nextFail = sched.next()
			lg.lap(catHarness)
			rr, err := mgr.RecoverTiered(x0)
			d := lg.lap(catRecover)
			res.check(err == nil, "step %d: RecoverTiered: %v", res.steps, err)
			if err != nil {
				loopErr = err
				return err
			}
			ts.pos = 0 // the restart begins a new Krylov cycle
			collect()  // a drained in-flight save commits inside the recovery
			res.readBytes += rr.ReadBytes()
			if rr.Used == core.TierRestartZero {
				res.ops[opRestartZero] = append(res.ops[opRestartZero], d)
			} else {
				res.ops[opRecover] = append(res.ops[opRecover], d)
			}
			back, known := posAt[rr.Iteration]
			res.check(known, "step %d: recovered to iteration %d, which was never checkpointed", res.steps, rr.Iteration)
			res.replayed += pos - back
			pos = back
			if traced {
				res.checkRestored(sys, rr, saved)
			}
			return nil
		}
		if mgr.Due() {
			lg.lap(catHarness)
			_, err := mgr.Checkpoint()
			res.ops[opStall] = append(res.ops[opStall], lg.lap(catCkpt))
			res.ckptCalls++
			res.check(err == nil, "step %d: Checkpoint: %v", res.steps, err)
			if err != nil {
				loopErr = err
				return err
			}
			collect()
			posAt[slv.Iteration()] = pos
			// Copy the state only when the schedule says a failure arrives
			// before the next checkpoint can replace this one: those are
			// the checkpoints a recovery lands on, and copying all of them
			// would put the harness on the traced pass's clock.
			if traced && nextFail <= res.steps+w.cfg.Interval {
				st := savedState{x: append([]float64(nil), sys.x()...)}
				if w.cfg.Scheme == core.Lossy {
					st.eb = lossyBound
					if w.cfg.Adaptive {
						if eb := model.GMRESAdaptiveBound(slv.ResidualNorm(), sys.bnorm, w.cfg.AdaptiveC); eb > 0 {
							st.eb = eb
						}
					}
				}
				saved[slv.Iteration()] = st
			}
		}
		return nil
	}

	wallStart := time.Now()
	lg.start()
	out, err := solver.RunToConvergence(ts, solver.Options{RTol: w.rtol}, cb)
	lg.lap(catHarness)
	_, werr := mgr.WaitCheckpoint()
	res.ops[opDrain] = append(res.ops[opDrain], lg.lap(catDrain))
	res.tts = time.Since(wallStart)
	res.stepsByPos = ts.byPos
	if loopErr != nil {
		return res, nil // counted and reported as a failed operation
	}
	if err != nil {
		return nil, err
	}
	collect()
	if !faultFree {
		res.check(werr == nil, "final WaitCheckpoint: %v", werr)
	}

	res.check(out.Converged, "not converged after %d steps", res.steps)
	rel := sys.relResidual(sys.x())
	res.check(rel <= 2*w.rtol, "relative residual %.3g exceeds 2·rtol = %.3g", rel, 2*w.rtol)

	if a := mgr.AsyncCheckpointer(); a != nil {
		res.async = a.Stats()
	}
	if traced {
		res.layers = *sys.layers
		st := sys.store
		res.writes, res.reads = st.writes.count(), st.reads.count()
		res.lists, res.deletes = st.lists.count().calls, st.deletes.count().calls
		ratio := float64(lg.sum()) / float64(res.tts)
		res.check(ratio >= 0.99 && ratio <= 1.01, "ledger sums to %.4f of the wall time", ratio)
	}
	return res, nil
}

// checkRestored compares the solver's iterate right after a recovery
// with the harness's copy of the checkpoint it says it restored:
// bitwise for the exact schemes, within the pointwise-relative bound
// for the lossy one.
func (r *repResult) checkRestored(sys *system, rr *core.RecoveryReport, saved map[int]savedState) {
	st, ok := saved[rr.Iteration]
	r.check(ok, "step %d: no copy of the state at restored iteration %d", r.steps, rr.Iteration)
	if !ok {
		return
	}
	got := sys.slv.X()
	bad := -1
	for i, want := range st.x {
		if st.eb == 0 || rr.Used == core.TierRestartZero {
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				bad = i
				break
			}
		} else if math.Abs(got[i]-want) > st.eb*math.Abs(want) {
			bad = i
			break
		}
	}
	if bad >= 0 {
		r.check(false, "step %d: restored x[%d] = %g, checkpointed %g at iteration %d (%s, bound %g)",
			r.steps, bad, got[bad], st.x[bad], rr.Iteration, rr.Used, st.eb)
		return
	}
	r.check(true, "")
}
