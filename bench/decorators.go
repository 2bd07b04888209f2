package main

import (
	"sync"
	"time"

	"repro/internal/fti"
	"repro/internal/precond"
	"repro/internal/solver"
)

// Ledger categories: every nanosecond on the solver goroutine between
// the first Step and the drained last checkpoint belongs to one.
const (
	catCompute = iota // inside Step
	catCkpt           // inside Manager.Checkpoint
	catRecover        // inside Manager.RecoverTiered
	catDrain          // inside the final Manager.WaitCheckpoint
	catHarness        // the per-step callback and the harness's own checks
	nCat
)

// ledger is a lap timer: each lap reads the clock once and books the
// time since the previous lap to one category, so the categories tile
// the wall time with no gaps and no overlap.
type ledger struct {
	last time.Time
	cat  [nCat]time.Duration
}

func (l *ledger) start() { l.last = time.Now() }

func (l *ledger) lap(cat int) time.Duration {
	now := time.Now()
	d := now.Sub(l.last)
	l.cat[cat] += d
	l.last = now
	return d
}

func (l *ledger) sum() time.Duration {
	var s time.Duration
	for _, d := range l.cat {
		s += d
	}
	return s
}

// timedStepper books Step to the ledger and keeps every step's
// duration. It is installed in both passes: time-to-solution and its
// split into compute, stall and recovery are end-to-end numbers.
//
// Durations are filed by position in the Krylov cycle, so that each
// file holds steps of equal work: a GMRES(30) step orthogonalises
// against one more vector than the step before it, up to the restart.
// CG and Jacobi have one file.
type timedStepper struct {
	solver.Stepper
	lg     *ledger
	layers *layerClock // nil unless traced
	pos    int         // position in the cycle; the harness zeroes it on a recovery
	byPos  [][]time.Duration
}

func (t *timedStepper) Step() float64 {
	t.lg.lap(catHarness)
	if t.layers != nil {
		t.layers.inStep = true
	}
	r := t.Stepper.Step()
	if t.layers != nil {
		t.layers.inStep = false
	}
	t.byPos[t.pos] = append(t.byPos[t.pos], t.lg.lap(catCompute))
	t.pos = (t.pos + 1) % len(t.byPos)
	return r
}

// layerClock accumulates kernel time inside Step for the traced pass.
// Calls made outside Step (the restart inside a recovery, solver
// construction) pass through untimed: they are already booked to
// recovery or set-up. Only the solver goroutine touches it.
type layerClock struct {
	inStep                               bool
	spmv, reduce, precond                time.Duration
	spmvCalls, reduceCalls, precondCalls int
}

func (c *layerClock) add(o layerClock) {
	c.spmv += o.spmv
	c.reduce += o.reduce
	c.precond += o.precond
	c.spmvCalls += o.spmvCalls
	c.reduceCalls += o.reduceCalls
	c.precondCalls += o.precondCalls
}

type timedOperator struct {
	inner solver.Operator
	c     *layerClock
}

func (o timedOperator) MulVec(dst, x []float64) {
	if !o.c.inStep {
		o.inner.MulVec(dst, x)
		return
	}
	start := time.Now()
	o.inner.MulVec(dst, x)
	o.c.spmv += time.Since(start)
	o.c.spmvCalls++
}

type timedSpace struct {
	inner solver.Space
	c     *layerClock
}

func (s timedSpace) Dot(x, y []float64) float64 {
	if !s.c.inStep {
		return s.inner.Dot(x, y)
	}
	start := time.Now()
	v := s.inner.Dot(x, y)
	s.c.reduce += time.Since(start)
	s.c.reduceCalls++
	return v
}

func (s timedSpace) Norm2(x []float64) float64 {
	if !s.c.inStep {
		return s.inner.Norm2(x)
	}
	start := time.Now()
	v := s.inner.Norm2(x)
	s.c.reduce += time.Since(start)
	s.c.reduceCalls++
	return v
}

type timedPrecond struct {
	inner precond.Interface
	c     *layerClock
}

func (p timedPrecond) Apply(dst, r []float64) {
	if !p.c.inStep {
		p.inner.Apply(dst, r)
		return
	}
	start := time.Now()
	p.inner.Apply(dst, r)
	p.c.precond += time.Since(start)
	p.c.precondCalls++
}

// opClock counts one kind of storage operation. Shard objects are
// written and read by several workers at once, so busy is the wall
// time during which at least one such operation was in flight — it can
// be subtracted from the stall or recovery that contains it, which a
// sum of overlapping durations cannot.
type opClock struct {
	mu     sync.Mutex
	active int
	since  time.Time
	opCount
}

type opCount struct {
	busy  time.Duration
	calls int
	bytes int
}

func (c *opCount) add(o opCount) {
	c.busy += o.busy
	c.calls += o.calls
	c.bytes += o.bytes
}

func (c *opClock) count() opCount {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.opCount
}

func (c *opClock) begin() {
	c.mu.Lock()
	if c.active == 0 {
		c.since = time.Now()
	}
	c.active++
	c.mu.Unlock()
}

func (c *opClock) end(bytes int) {
	c.mu.Lock()
	c.active--
	if c.active == 0 {
		c.busy += time.Since(c.since)
	}
	c.calls++
	c.bytes += bytes
	c.mu.Unlock()
}

// countingStorage sits between DirStorage and Resilient in the traced
// pass. It forwards every method DirStorage has, including the
// optional WriteBatched (the shard batch path, which skips the
// directory fsync) and SweepTemp, so the layers above take the same
// path they take over a bare store.
type countingStorage struct {
	inner                         *fti.DirStorage
	writes, reads, lists, deletes opClock
}

func (s *countingStorage) Write(name string, data []byte) error {
	s.writes.begin()
	defer s.writes.end(len(data))
	return s.inner.Write(name, data)
}

func (s *countingStorage) WriteBatched(name string, data []byte) error {
	s.writes.begin()
	defer s.writes.end(len(data))
	return s.inner.WriteBatched(name, data)
}

func (s *countingStorage) Read(name string) ([]byte, error) {
	s.reads.begin()
	data, err := s.inner.Read(name)
	s.reads.end(len(data))
	return data, err
}

func (s *countingStorage) Delete(name string) error {
	s.deletes.begin()
	defer s.deletes.end(0)
	return s.inner.Delete(name)
}

func (s *countingStorage) List() ([]string, error) {
	s.lists.begin()
	defer s.lists.end(0)
	return s.inner.List()
}

func (s *countingStorage) SweepTemp() ([]string, error) { return s.inner.SweepTemp() }
