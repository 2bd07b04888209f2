package fti

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// This file is the fault-tolerant storage layer: Resilient wraps any
// Storage with a FaultPolicy that classifies errors, retries transient
// ones with capped exponential backoff plus seeded jitter under a
// per-operation retry budget, and hedges slow reads with a parallel
// second attempt. The PFS the paper's setup writes to (and the
// Bebop-class model in package cluster prices) fails transiently and
// partially; without this layer a single flaky write aborts a whole
// checkpoint and a slow stripe stalls a whole restore.

// ErrClass is the failure taxonomy the retry policy keys off.
type ErrClass int

const (
	// ClassTransient errors (I/O timeouts, interrupted syscalls,
	// momentary unavailability) are worth retrying: the same operation
	// against the same healthy object is expected to succeed shortly.
	ClassTransient ErrClass = iota
	// ClassPermanent errors (object missing, no space, read-only or
	// misconfigured storage, invalid names) will not improve with
	// retries; they fail fast.
	ClassPermanent
	// ClassCorruption marks data that was read successfully but failed
	// an integrity check. The storage op itself "worked", so retrying
	// blindly is wrong — the read-side CRC layers issue their own
	// targeted re-reads instead (see shard.fetchVerify).
	ClassCorruption
)

// String names the class for error messages and reports.
func (c ErrClass) String() string {
	switch c {
	case ClassTransient:
		return "transient"
	case ClassPermanent:
		return "permanent"
	case ClassCorruption:
		return "corruption"
	}
	return fmt.Sprintf("ErrClass(%d)", int(c))
}

// Classifier is the optional interface an error implements to declare
// its own class — the fault-injection harness (internal/failure) uses
// it so injected faults are classified exactly as armed, and
// FaultError re-exports the class of the error it wraps.
type Classifier interface {
	FaultClass() ErrClass
}

// ClassifyError sorts a storage error into the retry taxonomy:
// self-classified errors are believed verbatim; missing objects,
// exhausted space, read-only filesystems, permission failures, and
// invalid names are permanent; interrupted or timed-out I/O is
// transient; anything unrecognized defaults to transient, because the
// retry budget bounds the cost of optimism while misclassifying a
// recoverable blip as permanent loses a checkpoint for nothing.
func ClassifyError(err error) ErrClass {
	var cl Classifier
	if errors.As(err, &cl) {
		return cl.FaultClass()
	}
	if errors.Is(err, fs.ErrNotExist) || errors.Is(err, fs.ErrPermission) || errors.Is(err, fs.ErrInvalid) {
		return ClassPermanent
	}
	var errno syscall.Errno
	if errors.As(err, &errno) {
		switch errno {
		case syscall.EINTR, syscall.EAGAIN, syscall.EIO, syscall.ETIMEDOUT, syscall.EBUSY, syscall.ENOBUFS:
			return ClassTransient
		case syscall.ENOSPC, syscall.EROFS, syscall.EDQUOT, syscall.EACCES, syscall.EPERM, syscall.ENOENT:
			return ClassPermanent
		}
	}
	msg := err.Error()
	if strings.Contains(msg, "not found") || strings.Contains(msg, "invalid object name") {
		return ClassPermanent
	}
	return ClassTransient
}

// FaultPolicy tunes Resilient. The zero value is usable: Normalize
// fills every unset knob with the defaults below.
type FaultPolicy struct {
	// MaxRetries is the number of retry attempts after the first try
	// (so an op issues at most MaxRetries+1 attempts). Default 4.
	MaxRetries int
	// BaseDelay is the pre-jitter backoff before the first retry; each
	// further retry doubles it up to MaxDelay. Defaults 2ms / 250ms.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// OpBudget caps the total backoff delay one operation may spend
	// across its retries; a retry whose backoff would exceed the
	// remaining budget is not attempted and the op fails as exhausted.
	// 0 means no budget (MaxRetries alone bounds the op).
	OpBudget time.Duration
	// Seed drives the jitter stream, so a seeded run's backoff
	// schedule is reproducible.
	Seed int64
	// Classify overrides the error taxonomy; nil means ClassifyError.
	Classify func(error) ErrClass
	// Sleep overrides the backoff sleep (tests substitute a recorder);
	// nil means time.Sleep.
	Sleep func(time.Duration)
}

// Normalize returns the policy with defaults filled in.
func (p FaultPolicy) Normalize() FaultPolicy {
	if p.MaxRetries <= 0 {
		p.MaxRetries = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 2 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 250 * time.Millisecond
	}
	if p.Classify == nil {
		p.Classify = ClassifyError
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// FaultError is what a Resilient operation returns when it gives up:
// the op and object name, how many attempts were issued, the class
// that stopped the retrying, and the last underlying error. Retry
// exhaustion (Class == ClassTransient, Attempts > 1) is thereby
// distinguishable from a permanent failure that never retried.
type FaultError struct {
	Op       string // "write" | "read" | "delete" | "list"
	Name     string // object name ("" for list)
	Attempts int    // attempts actually issued
	Class    ErrClass
	Err      error
}

// Error formats the failure with its full context.
func (e *FaultError) Error() string {
	what := "failed"
	if e.Class == ClassTransient && e.Attempts > 1 {
		what = "exhausted retries"
	}
	if e.Name == "" {
		return fmt.Sprintf("fti: %s %s after %d attempt(s) (%s): %v", e.Op, what, e.Attempts, e.Class, e.Err)
	}
	return fmt.Sprintf("fti: %s %s %s after %d attempt(s) (%s): %v", e.Op, e.Name, what, e.Attempts, e.Class, e.Err)
}

// Unwrap exposes the last underlying error to errors.Is/As.
func (e *FaultError) Unwrap() error { return e.Err }

// FaultClass re-exports the class, so a FaultError crossing another
// Resilient (tiered stacks) keeps its classification.
func (e *FaultError) FaultClass() ErrClass { return e.Class }

// RetryStats is Resilient's cumulative accounting.
type RetryStats struct {
	Ops        int           // operations issued through the wrapper
	Retries    int           // retry attempts (beyond each op's first)
	Recovered  int           // ops that failed at least once but eventually succeeded
	Exhausted  int           // ops abandoned after the retry budget ran out
	Permanent  int           // ops failed fast on a permanent error
	RetryDelay time.Duration // total backoff slept
}

// Resilient wraps a Storage with the FaultPolicy retry/backoff
// machinery. It implements Storage, and forwards WriteBatched to the
// inner store's BatchWriter when present so the shard group-commit
// optimization survives the wrapping. Safe for concurrent use to the
// same degree as the wrapped store.
type Resilient struct {
	inner Storage
	pol   FaultPolicy

	mu    sync.Mutex
	rng   *rand.Rand
	stats RetryStats

	met resilientMetrics
}

// NewResilient wraps inner with pol (normalized). Wrapping an already
// resilient store is allowed but multiplies retry counts; don't.
func NewResilient(inner Storage, pol FaultPolicy) *Resilient {
	pol = pol.Normalize()
	return &Resilient{
		inner: inner,
		pol:   pol,
		rng:   rand.New(rand.NewSource(pol.Seed)),
	}
}

// Stats returns a snapshot of the cumulative retry accounting.
func (r *Resilient) Stats() RetryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// resilientMetrics holds nil-safe handles: the zero bundle observes
// nothing.
type resilientMetrics struct {
	retries   *obs.Counter
	exhausted *obs.Counter
	permanent *obs.Counter
	delaySec  *obs.Histogram
}

// Instrument attaches the retry counters to reg; nil detaches.
func (r *Resilient) Instrument(reg *obs.Registry) {
	r.met = resilientMetrics{
		retries:   reg.Counter(obs.MStorageRetriesTotal),
		exhausted: reg.Counter(obs.MStorageRetryExhaustedTotal),
		permanent: reg.Counter(obs.MStoragePermanentErrorsTotal),
		delaySec:  reg.Histogram(obs.MStorageRetryDelaySeconds, obs.LatencyBuckets()),
	}
}

// backoff returns the jittered delay before retry number attempt
// (0-based): the capped exponential step, jittered uniformly into
// [step/2, step] so concurrent retriers decorrelate.
func (r *Resilient) backoff(attempt int) time.Duration {
	step := r.pol.BaseDelay << uint(attempt)
	if step > r.pol.MaxDelay || step <= 0 { // <= 0: shift overflow
		step = r.pol.MaxDelay
	}
	r.mu.Lock()
	j := time.Duration(r.rng.Int63n(int64(step)/2 + 1))
	r.mu.Unlock()
	return step/2 + j
}

// retry runs fn under the policy: transient failures back off and
// retry until MaxRetries or the OpBudget runs out; permanent and
// corruption failures return immediately. The terminal error is
// always a *FaultError carrying the attempt count and class.
func (r *Resilient) retry(op, name string, fn func() error) error {
	var slept time.Duration
	var last error
	for attempt := 0; ; attempt++ {
		err := fn()
		if err == nil {
			r.mu.Lock()
			r.stats.Ops++
			if attempt > 0 {
				r.stats.Recovered++
			}
			r.mu.Unlock()
			return nil
		}
		last = err
		class := r.pol.Classify(err)
		if class != ClassTransient {
			r.mu.Lock()
			r.stats.Ops++
			r.stats.Permanent++
			r.mu.Unlock()
			r.met.permanent.Inc()
			return &FaultError{Op: op, Name: name, Attempts: attempt + 1, Class: class, Err: err}
		}
		d := r.backoff(attempt)
		if attempt >= r.pol.MaxRetries || (r.pol.OpBudget > 0 && slept+d > r.pol.OpBudget) {
			r.mu.Lock()
			r.stats.Ops++
			r.stats.Exhausted++
			r.mu.Unlock()
			r.met.exhausted.Inc()
			return &FaultError{Op: op, Name: name, Attempts: attempt + 1, Class: ClassTransient, Err: last}
		}
		slept += d
		r.mu.Lock()
		r.stats.Retries++
		r.stats.RetryDelay += d
		r.mu.Unlock()
		r.met.retries.Inc()
		r.met.delaySec.Observe(d.Seconds())
		r.pol.Sleep(d)
	}
}

// Write stores data under name, retrying transient failures.
func (r *Resilient) Write(name string, data []byte) error {
	return r.retry("write", name, func() error { return r.inner.Write(name, data) })
}

// WriteBatched forwards to the inner store's BatchWriter (preserving
// the shard layer's deferred-namespace-fsync group commit) with the
// same retry policy, falling back to Write when the inner store has
// no batch path.
func (r *Resilient) WriteBatched(name string, data []byte) error {
	bw, ok := r.inner.(shardBatchWriter)
	if !ok {
		return r.Write(name, data)
	}
	return r.retry("write", name, func() error { return bw.WriteBatched(name, data) })
}

// shardBatchWriter mirrors shard.BatchWriter without importing the
// shard package here (fti already depends on shard elsewhere; the
// local alias keeps this file self-contained).
type shardBatchWriter interface {
	WriteBatched(name string, data []byte) error
}

// Read loads name, retrying transient failures.
func (r *Resilient) Read(name string) ([]byte, error) {
	var data []byte
	err := r.retry("read", name, func() error {
		var err error
		data, err = r.inner.Read(name)
		return err
	})
	if err != nil {
		return nil, err
	}
	return data, nil
}

// Delete removes name, retrying transient failures.
func (r *Resilient) Delete(name string) error {
	return r.retry("delete", name, func() error { return r.inner.Delete(name) })
}

// List lists the inner store, retrying transient failures.
func (r *Resilient) List() ([]string, error) {
	var names []string
	err := r.retry("list", "", func() error {
		var err error
		names, err = r.inner.List()
		return err
	})
	if err != nil {
		return nil, err
	}
	return names, nil
}

// SweepTemp forwards to the inner store's temp-file sweeper when it
// has one (see TempSweeper), so fsck works through the wrapper.
func (r *Resilient) SweepTemp() ([]string, error) {
	ts, ok := r.inner.(TempSweeper)
	if !ok {
		return nil, nil
	}
	return ts.SweepTemp()
}
