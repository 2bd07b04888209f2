package fti

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// AsyncSaveError is how a failed background save surfaces: the next
// SaveAsync, Flush, or Ticket.Wait returns it instead of the raw
// storage error, carrying the sequence and object name the save was
// committing, the storage attempt count, and the error class — so a
// caller (or a log line) can tell retry exhaustion on a transient
// fault from a genuinely permanent failure without string-matching.
type AsyncSaveError struct {
	Seq      int      // sequence the save would have committed as
	Name     string   // checkpoint object name
	Attempts int      // storage attempts issued (0 when the storage layer didn't say)
	Class    ErrClass // classification of the underlying error
	Err      error
}

// Error formats the failure with its pipeline context.
func (e *AsyncSaveError) Error() string {
	if e.Attempts > 1 && e.Class == ClassTransient {
		return fmt.Sprintf("fti: async save %s (seq %d) exhausted %d storage attempts (%s): %v",
			e.Name, e.Seq, e.Attempts, e.Class, e.Err)
	}
	return fmt.Sprintf("fti: async save %s (seq %d) failed (%s): %v", e.Name, e.Seq, e.Class, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *AsyncSaveError) Unwrap() error { return e.Err }

// FaultClass re-exports the class for upstream classifiers.
func (e *AsyncSaveError) FaultClass() ErrClass { return e.Class }

// wrapSaveError decorates a background save failure with its context;
// a FaultError from the resilient storage layer contributes its
// attempt count and class, anything else is classified here.
func wrapSaveError(seq int, err error) error {
	ase := &AsyncSaveError{Seq: seq, Name: ckptName(seq), Err: err}
	var fe *FaultError
	if errors.As(err, &fe) {
		ase.Attempts = fe.Attempts
		ase.Class = fe.Class
	} else {
		ase.Class = ClassifyError(err)
	}
	return ase
}

// AsyncCheckpointer is the asynchronous checkpoint pipeline: the
// paper's overhead model (Eqs. 5 and 8) separates checkpoint cost from
// compute cost, and FTI's headline feature is exactly this split — a
// dedicated background flusher so the application only pays for
// capturing its state. The pipeline has three stages:
//
//  1. capture — SaveAsync deep-copies the snapshot into one half of a
//     double buffer. This is the only stage the solver waits for.
//  2. encode — a background goroutine runs the configured Encoder
//     (blocked SZ, lossless, or raw) over the captured copy.
//  3. write — the same goroutine commits the encoded bytes to Storage.
//
// At most one save is in flight: a SaveAsync issued while the previous
// encode+write is still running blocks until it finishes
// (backpressure), which bounds memory at two capture buffers and two
// encode buffers and keeps checkpoint ordering trivial.
//
// Concurrency contract: all AsyncCheckpointer methods, and any direct
// use of the wrapped Checkpointer (SetEncoder, Restore, DropLatest,
// ...), must happen on one goroutine — the solver loop — and direct
// Checkpointer use is only safe after Wait/Flush has drained the
// in-flight save. The background goroutine is the only other toucher
// of the wrapped Checkpointer, and the drain forms the happens-before
// edge between the two.
//
// A background save that fails does not panic and is not lost: the
// error is held and surfaced by the next SaveAsync, Flush, or the
// ticket's Wait, whichever comes first. The failed save rolled its
// sequence number back, so recovery falls back to the previous
// committed checkpoint — the same contract as the paper's
// failure-during-checkpoint path.
type AsyncCheckpointer struct {
	c *Checkpointer

	mu       sync.Mutex
	inflight *asyncJob
	sticky   error     // background failure awaiting surfacing
	stickyJb *asyncJob // the job sticky came from (cleared by its Wait)
	lastInfo Info      // most recent committed save
	commit   int       // sequence of the most recent committed save
	stats    AsyncStats

	// Double buffers: slot flips on every save, so the capture of save
	// n+1 never touches the memory the in-flight encode of save n is
	// reading. (With at-most-one-in-flight the flip is one save ahead
	// of strictly necessary, which is exactly the margin that keeps a
	// Storage implementation that mis-retains its data argument from
	// corrupting an already-written checkpoint.)
	slot    int
	caps    [2]*Snapshot
	encBufs [2][]byte
}

// AsyncStats accounts where the pipeline's time went, in seconds of
// real time. CaptureSeconds + BackpressureSeconds is the total
// solver-visible stall; EncodeWriteSeconds ran in the background and
// splits into EncodeSeconds (the Encoder pass) and WriteSeconds (the
// storage commit) plus scheduling slack. Per-save stage timings are on
// each save's Info (Ticket.Wait, LastInfo) — these are the cumulative
// sums.
type AsyncStats struct {
	Saves               int
	FailedSaves         int // background saves that aborted (rolled back) instead of committing
	CaptureSeconds      float64
	BackpressureSeconds float64
	EncodeWriteSeconds  float64
	EncodeSeconds       float64
	WriteSeconds        float64
}

type asyncJob struct {
	snap *Snapshot
	slot int
	open Info          // the save's record as it opened, capture stage included
	done chan struct{} // closed when the job's results are published
	info Info
	err  error
}

// Ticket identifies one asynchronous save.
type Ticket struct {
	// Info is the save's record as it opened: Seq is the sequence it
	// commits under if it succeeds, and CaptureSeconds the capture stall
	// already paid. Wait and Peek return the committed record.
	Info
	a   *AsyncCheckpointer
	job *asyncJob
}

var errZeroTicket = errors.New("fti: zero Ticket")

// Done returns a channel closed when the save has finished (committed
// or failed). A zero Ticket returns a closed channel.
func (t Ticket) Done() <-chan struct{} {
	if t.job == nil {
		ch := make(chan struct{})
		close(ch)
		return ch
	}
	return t.job.done
}

// Wait blocks until the save finishes and returns its Info and error.
// Consuming the error here also clears it from the pipeline, so it is
// not surfaced a second time by the next SaveAsync or Flush.
func (t Ticket) Wait() (Info, error) {
	if t.job == nil {
		return Info{}, errZeroTicket
	}
	<-t.job.done
	t.a.mu.Lock()
	if t.a.stickyJb == t.job {
		t.a.sticky, t.a.stickyJb = nil, nil
	}
	t.a.mu.Unlock()
	return t.job.info, t.job.err
}

// Peek reports the save's outcome without blocking: done is false while
// it is in flight. Unlike Wait it leaves a failure with the pipeline,
// which still surfaces it on the next SaveAsync or Flush. A zero Ticket
// is done, with an error.
func (t Ticket) Peek() (info Info, done bool, err error) {
	if t.job == nil {
		return Info{}, true, errZeroTicket
	}
	select {
	case <-t.job.done:
		return t.job.info, true, t.job.err
	default:
		return t.Info, false, nil
	}
}

// NewAsync wraps a Checkpointer in the asynchronous pipeline. The
// wrapped Checkpointer must not be used directly while a save is in
// flight (drain with Wait or Flush first).
func NewAsync(c *Checkpointer) *AsyncCheckpointer {
	return &AsyncCheckpointer{c: c}
}

// Checkpointer returns the wrapped synchronous Checkpointer. Only safe
// to use after Wait/Flush has drained the in-flight save.
func (a *AsyncCheckpointer) Checkpointer() *Checkpointer { return a.c }

// SetSharding configures the wrapped Checkpointer's sharded storage
// layout (see Checkpointer.SetSharding): the background write stage
// then fans each checkpoint out into shards objects over a bounded
// worker pool and commits a manifest last. The in-flight save, if any,
// is drained first so the layout never changes mid-write.
func (a *AsyncCheckpointer) SetSharding(shards, workers int) error {
	a.drain(false)
	return a.c.SetSharding(shards, workers)
}

// SaveAsync captures s and schedules its encode+write in the
// background. It returns once the capture copy is complete — the
// solver may mutate the snapshot's vectors immediately afterwards. If
// a previous save is still in flight, SaveAsync first blocks until it
// finishes (at-most-one-in-flight backpressure). If a previous
// background save failed, that error is returned now and the new save
// is not started.
func (a *AsyncCheckpointer) SaveAsync(s *Snapshot) (Ticket, error) {
	a.drain(true)
	a.mu.Lock()
	if err := a.sticky; err != nil {
		a.sticky, a.stickyJb = nil, nil
		a.mu.Unlock()
		return Ticket{}, err
	}
	capSpan := a.c.ins.tr.Begin(obs.TrackSolver, obs.CatCheckpoint, obs.SpanCapture)
	start := time.Now()
	slot := a.slot
	a.slot ^= 1
	a.caps[slot] = copySnapshotInto(a.caps[slot], s)
	capSec := time.Since(start).Seconds()
	capSpan.End()
	a.c.ins.captureSec.Observe(capSec)
	job := &asyncJob{snap: a.caps[slot], slot: slot, open: a.c.record(s, a.c.seq+1), done: make(chan struct{})}
	job.open.CaptureSeconds = capSec
	a.inflight = job
	a.stats.Saves++
	a.stats.CaptureSeconds += capSec
	a.mu.Unlock()
	go a.run(job)
	return Ticket{Info: job.open, a: a, job: job}, nil
}

// run is the background encode+write stage.
func (a *AsyncCheckpointer) run(job *asyncJob) {
	start := time.Now()
	a.mu.Lock()
	buf := a.encBufs[job.slot]
	a.mu.Unlock()
	payload, info, err := a.c.save(job.snap, buf)
	// Surface the capture stall on the save's own Info, so a Ticket
	// holder (or LastInfo) sees all three stage timings together.
	info.CaptureSeconds = job.open.CaptureSeconds
	a.mu.Lock()
	if payload != nil {
		a.encBufs[job.slot] = payload
	}
	if err == nil {
		a.lastInfo = info
		a.commit = info.Seq
		a.stats.EncodeSeconds += info.EncodeSeconds
		a.stats.WriteSeconds += info.WriteSeconds
	} else {
		err = wrapSaveError(job.open.Seq, err)
		a.stats.FailedSaves++
		a.c.ins.asyncAbort.Inc()
		a.sticky, a.stickyJb = err, job
	}
	job.info, job.err = info, err
	// Close inside the critical section: anyone who observes
	// inflight == nil under the mutex must also observe the ticket as
	// done, or a non-blocking poll right after a drain could miss a
	// finished save.
	close(job.done)
	a.inflight = nil
	a.stats.EncodeWriteSeconds += time.Since(start).Seconds()
	a.mu.Unlock()
}

// drain blocks until no save is in flight. backpressure marks the wait
// as solver-visible stall in the stats.
func (a *AsyncCheckpointer) drain(backpressure bool) {
	a.mu.Lock()
	job := a.inflight
	a.mu.Unlock()
	if job == nil {
		return
	}
	start := time.Now()
	<-job.done
	if backpressure {
		a.mu.Lock()
		a.stats.BackpressureSeconds += time.Since(start).Seconds()
		a.mu.Unlock()
	}
}

// Wait blocks until no save is in flight. Afterwards the wrapped
// Checkpointer may be used directly (swap encoders, Restore, ...).
// Unlike Flush, Wait leaves any pending background error in place.
func (a *AsyncCheckpointer) Wait() { a.drain(false) }

// WaitBackpressure is Wait with the time spent blocked accounted as
// solver-visible backpressure. Callers draining on the checkpoint path
// (a new save about to be submitted) use it so Stats keeps its
// invariant: CaptureSeconds + BackpressureSeconds is the total stall
// the solver paid.
func (a *AsyncCheckpointer) WaitBackpressure() { a.drain(true) }

// Flush drains the in-flight save and returns the Info of the most
// recent committed checkpoint along with any background error not yet
// surfaced (which it clears).
func (a *AsyncCheckpointer) Flush() (Info, error) {
	a.drain(false)
	a.mu.Lock()
	defer a.mu.Unlock()
	err := a.sticky
	a.sticky, a.stickyJb = nil, nil
	return a.lastInfo, err
}

// InFlight reports whether a save is currently running.
func (a *AsyncCheckpointer) InFlight() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.inflight != nil
}

// CommittedSeq returns the sequence number of the most recent save the
// background stage fully committed to storage, 0 if none. In-flight
// and failed saves are excluded — this is the recovery target.
func (a *AsyncCheckpointer) CommittedSeq() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.commit
}

// LastInfo returns the Info of the most recent committed save.
func (a *AsyncCheckpointer) LastInfo() Info {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastInfo
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
