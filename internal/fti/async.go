package fti

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// AsyncCheckpointer is the asynchronous checkpoint pipeline: the
// paper's overhead model (Eqs. 5 and 8) separates checkpoint cost from
// compute cost, and FTI's headline feature is exactly this split — a
// dedicated background flusher so the application only pays for
// capturing its state. The pipeline has three stages:
//
//  1. capture — SaveAsync deep-copies the snapshot into one half of a
//     double buffer. This is the only stage the solver waits for, and
//     each save's Info.CaptureSeconds. SaveDeferred leaves the copy to
//     the background goroutine when the caller's capture returns a fill
//     to run on it, and the caller keeps the snapshot still until the
//     fill has run: an async GMRES save holds the cycle-boundary x, the
//     cycle's basis and a copy of its coefficients y, and the fill adds
//     V·y to the copy of x. That copy and fill count in EncodeSeconds.
//  2. encode — a background goroutine runs the configured Encoder
//     (blocked SZ, lossless, or raw) over the captured copy.
//  3. write — the same goroutine commits the encoded bytes to Storage.
//
// At most one save is in flight: a SaveAsync issued while the previous
// encode+write is still running blocks until it finishes
// (backpressure), which bounds memory at two capture buffers and two
// encode buffers and keeps checkpoint ordering trivial.
//
// The pipeline keeps one record, the newest save: Peek reports it as it
// opened while it is in flight and its outcome once it has finished.
// Which save is the recovery target is the caller's to record (the
// core.Manager does); the pipeline does not keep a second copy.
//
// Concurrency contract: all AsyncCheckpointer methods, and any direct
// use of the wrapped Checkpointer (SetEncoder, Restore, DropLatest,
// ...), must happen on one goroutine — the solver loop — and direct
// Checkpointer use is only safe after Flush has drained the in-flight
// save. The background goroutine is the only other toucher of the
// wrapped Checkpointer, and the drain forms the happens-before edge
// between the two.
//
// A background save that fails does not panic and is not lost: the
// error is held and surfaced once, by the next SaveAsync or Flush,
// whichever comes first. It is the error a synchronous save would have
// returned, named by the checkpoint it was committing: errors.As still
// finds the storage layer's *FaultError (attempts and class) through
// the wrap, and ClassifyError its class. The failed save rolled its
// sequence number back, so recovery falls back to the previous
// committed checkpoint — the same contract as the paper's
// failure-during-checkpoint path.
type AsyncCheckpointer struct {
	c   *Checkpointer
	job *asyncJob // the newest save, nil before the first

	mu     sync.Mutex
	failed error // a background failure not yet surfaced
	stats  AsyncStats

	// Double buffers: slot flips on every save, so the capture of save
	// n+1 never touches the memory the in-flight encode of save n is
	// reading. (With at-most-one-in-flight the flip is one save ahead
	// of strictly necessary, which is exactly the margin that keeps a
	// Storage implementation that mis-retains its data argument from
	// corrupting an already-written checkpoint.) Save n+1 starts only
	// after save n's done channel closed, which orders their accesses.
	slot    int
	caps    [2]*Snapshot
	encBufs [2][]byte
}

// AsyncStats accounts what no save's own Info holds, in seconds of
// real time: BackpressureSeconds is the solver-visible wait for a
// previous save (the capture stall, the rest of the stall, is each
// save's CaptureSeconds), and EncodeWriteSeconds the background stage
// as a whole, the saves' EncodeSeconds and WriteSeconds plus
// scheduling slack, failed saves included.
type AsyncStats struct {
	FailedSaves         int // background saves that aborted (rolled back) instead of committing
	BackpressureSeconds float64
	EncodeWriteSeconds  float64
}

type asyncJob struct {
	snap *Snapshot
	fill func(*Snapshot) // a deferred capture's; nil when snap is the copy
	slot int
	open Info          // the save's record as it opened, capture stage included
	done chan struct{} // closed when info and err are final
	info Info
	err  error
}

// NewAsync wraps a Checkpointer in the asynchronous pipeline. The
// wrapped Checkpointer must not be used directly while a save is in
// flight (drain with Flush first).
func NewAsync(c *Checkpointer) *AsyncCheckpointer {
	return &AsyncCheckpointer{c: c}
}

// SaveAsync captures s, schedules its encode+write in the background,
// and returns the save's record as it opened: Seq is the sequence it
// commits under if it succeeds, and CaptureSeconds the capture stall
// already paid. It returns once the capture copy is complete — the
// solver may mutate the snapshot's vectors immediately afterwards. If
// a previous save is still in flight, SaveAsync first blocks until it
// finishes (at-most-one-in-flight backpressure). If a previous
// background save failed unsurfaced, that error is returned now and
// the new save is not started.
func (a *AsyncCheckpointer) SaveAsync(s *Snapshot) (Info, error) {
	return a.SaveDeferred(func() (*Snapshot, func(*Snapshot)) { return s, nil })
}

// SaveDeferred is SaveAsync with the snapshot taken by capture, once
// the previous save has drained, and its copy left to the background
// goroutine when capture also returns a fill: there the goroutine
// copies the snapshot into the double buffer and calls fill on the
// copy, before the encode. The snapshot's vectors must stay unchanged
// until fill returns, which fill itself tells the caller. The returned
// CaptureSeconds is capture's run, and the committed record's
// EncodeSeconds counts the copy and fill. A nil fill is SaveAsync.
func (a *AsyncCheckpointer) SaveDeferred(capture func() (*Snapshot, func(*Snapshot))) (Info, error) {
	a.drain(true)
	// Nothing else runs now: the drain ordered the finished save's writes
	// before this, and capture, the caller's code, runs unlocked.
	a.mu.Lock()
	err := a.failed
	a.failed = nil
	a.mu.Unlock()
	if err != nil {
		return Info{}, err
	}
	capSpan := a.c.ins.tr.Begin(obs.TrackSolver, obs.CatCheckpoint, obs.SpanCapture)
	start := time.Now()
	slot := a.slot
	a.slot ^= 1
	s, fill := capture()
	if fill == nil {
		s = copySnapshotInto(a.caps[slot], s)
		a.caps[slot] = s
	}
	capSec := time.Since(start).Seconds()
	capSpan.End()
	a.c.ins.captureSec.Observe(capSec)
	a.job = &asyncJob{snap: s, fill: fill, slot: slot, open: a.c.record(s, a.c.seq+1), done: make(chan struct{})}
	a.job.open.CaptureSeconds = capSec
	go a.run(a.job)
	return a.job.open, nil
}

// run is the background stage: a deferred capture copy, then
// encode+write.
func (a *AsyncCheckpointer) run(job *asyncJob) {
	start := time.Now()
	snap := job.snap
	if job.fill != nil {
		snap = copySnapshotInto(a.caps[job.slot], snap)
		a.caps[job.slot] = snap
		job.fill(snap)
	}
	copySec := time.Since(start).Seconds()
	payload, info, err := a.c.save(snap, a.encBufs[job.slot])
	if payload != nil {
		a.encBufs[job.slot] = payload
	}
	// Surface the capture stall on the save's own Info, so Peek reports
	// all three stage timings together.
	info.CaptureSeconds = job.open.CaptureSeconds
	info.EncodeSeconds += copySec
	a.mu.Lock()
	defer a.mu.Unlock()
	if err != nil {
		err = fmt.Errorf("fti: async save %s: %w", ckptName(job.open.Seq), err)
		a.stats.FailedSaves++
		a.failed = err
	}
	a.stats.EncodeWriteSeconds += time.Since(start).Seconds()
	job.info, job.err = info, err
	// Close inside the critical section: whoever sees the save done and
	// then takes the mutex also sees its stats and its failure.
	close(job.done)
}

// Peek reports the newest save without blocking: while it is in flight,
// its record as it opened and done false; once it has finished, the
// committed record or its failure. A failure stays with the pipeline,
// which still surfaces it on the next SaveAsync or Flush. Before the
// first save Peek reports the zero Info, done.
func (a *AsyncCheckpointer) Peek() (info Info, done bool, err error) {
	if a.job == nil {
		return Info{}, true, nil
	}
	select {
	case <-a.job.done:
		return a.job.info, true, a.job.err
	default:
		return a.job.open, false, nil
	}
}

// InFlight reports whether a save is currently running.
func (a *AsyncCheckpointer) InFlight() bool {
	_, done, _ := a.Peek()
	return !done
}

// drain blocks until no save is in flight. backpressure marks the wait
// as solver-visible stall in the stats.
func (a *AsyncCheckpointer) drain(backpressure bool) {
	if !a.InFlight() {
		return
	}
	start := time.Now()
	<-a.job.done
	if backpressure {
		a.mu.Lock()
		a.stats.BackpressureSeconds += time.Since(start).Seconds()
		a.mu.Unlock()
	}
}

// WaitBackpressure blocks until no save is in flight and accounts the
// time spent blocked as solver-visible backpressure. Callers draining
// on the checkpoint path (a new save about to be submitted) use it so
// that the saves' CaptureSeconds plus Stats' BackpressureSeconds is the
// total stall the solver paid. A failure stays with the pipeline.
func (a *AsyncCheckpointer) WaitBackpressure() { a.drain(true) }

// Flush drains the in-flight save and returns, once, any background
// error not yet surfaced. Afterwards the wrapped Checkpointer may be
// used directly (swap encoders, Restore, ...).
func (a *AsyncCheckpointer) Flush() error {
	a.drain(false)
	a.mu.Lock()
	defer a.mu.Unlock()
	err := a.failed
	a.failed = nil
	return err
}

// Stats returns a snapshot of the pipeline's accounting.
func (a *AsyncCheckpointer) Stats() AsyncStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// copySnapshotInto deep-copies src into dst, reusing dst's maps and
// vector backing arrays when shapes allow — the capture stage of the
// pipeline, and the reason steady-state checkpointing allocates
// nothing beyond the first two saves.
func copySnapshotInto(dst, src *Snapshot) *Snapshot {
	if dst == nil {
		dst = &Snapshot{
			Scalars: make(map[string]float64, len(src.Scalars)),
			Vectors: make(map[string][]float64, len(src.Vectors)),
		}
	}
	dst.Iteration = src.Iteration
	clear(dst.Scalars)
	for k, v := range src.Scalars {
		dst.Scalars[k] = v
	}
	for k := range dst.Vectors {
		if _, ok := src.Vectors[k]; !ok {
			delete(dst.Vectors, k)
		}
	}
	for k, v := range src.Vectors {
		buf := dst.Vectors[k]
		if cap(buf) < len(v) {
			buf = make([]float64, len(v))
		} else {
			buf = buf[:len(v)]
		}
		copy(buf, v)
		dst.Vectors[k] = buf
	}
	return dst
}
