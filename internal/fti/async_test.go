package fti

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sparse"
	"repro/internal/vec"
)

// hookStorage intercepts Write for failure injection and gating. The
// hook runs before the delegated write; returning an error simulates a
// storage failure, blocking on a channel simulates a slow PFS.
type hookStorage struct {
	Storage
	onWrite func(name string) error
}

func (h *hookStorage) Write(name string, data []byte) error {
	if h.onWrite != nil {
		if err := h.onWrite(name); err != nil {
			return err
		}
	}
	return h.Storage.Write(name, data)
}

// WriteBatched takes the hook too, so shard writes hit it.
func (h *hookStorage) WriteBatched(name string, data []byte) error { return h.Write(name, data) }

// gateEncoder blocks Encode until the gate channel is closed, making
// the background stage's timing deterministic in tests.
type gateEncoder struct {
	Encoder
	gate chan struct{}
}

func (g gateEncoder) Encode(dst []byte, x []float64) ([]byte, error) {
	<-g.gate
	return g.Encoder.Encode(dst, x)
}

func testSnapshot(iter int, x []float64) *Snapshot {
	return &Snapshot{
		Iteration: iter,
		Scalars:   map[string]float64{"rho": 1.5},
		Vectors:   map[string][]float64{"x": x},
	}
}

func TestAsyncSaveReturnsBeforeWriteCompletes(t *testing.T) {
	mem := NewMemStorage()
	gate := make(chan struct{})
	st := &hookStorage{Storage: mem, onWrite: func(string) error { <-gate; return nil }}
	a := NewAsync(New(st, Raw{}))

	x := sparse.SmoothField(1000, 1)
	opened, err := a.SaveAsync(testSnapshot(3, x))
	if err != nil {
		t.Fatal(err)
	}
	if !a.InFlight() {
		t.Fatal("save should be in flight while the write is gated")
	}
	// SaveAsync returns the save's record as it opened; Peek reports the
	// same while the write is gated, and does not wait.
	if opened.Seq != 1 || opened.Iteration != 3 || opened.RawBytes != 8*(len(x)+1) {
		t.Fatalf("record as opened: %+v", opened)
	}
	if info, done, err := a.Peek(); done || err != nil || info != opened {
		t.Fatalf("Peek while the write is gated: %+v done=%v err=%v, want %+v", info, done, err, opened)
	}
	if names, _ := mem.List(); len(names) != 0 {
		t.Fatalf("storage already has %v before the write was released", names)
	}

	close(gate)
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if a.InFlight() {
		t.Fatal("still in flight after Flush")
	}
	if info, done, err := a.Peek(); !done || err != nil || info.Seq != 1 || info.Bytes == 0 {
		t.Fatalf("Peek after commit: %+v done=%v err=%v, want seq 1 with its bytes", info, done, err)
	}
	if names, _ := mem.List(); len(names) != 1 {
		t.Fatalf("storage has %v after commit", names)
	}
}

func TestAsyncAtMostOneInFlightBackpressure(t *testing.T) {
	mem := NewMemStorage()
	gate := make(chan struct{})
	st := &hookStorage{Storage: mem, onWrite: func(string) error { <-gate; return nil }}
	a := NewAsync(New(st, Raw{}))

	x := sparse.SmoothField(500, 2)
	if _, err := a.SaveAsync(testSnapshot(1, x)); err != nil {
		t.Fatal(err)
	}

	second := make(chan error, 1)
	go func() {
		_, err := a.SaveAsync(testSnapshot(2, x))
		second <- err
	}()
	select {
	case <-second:
		t.Fatal("second SaveAsync returned while the first write was still in flight")
	case <-time.After(20 * time.Millisecond):
	}

	close(gate)
	if err := <-second; err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	names, _ := mem.List()
	if len(names) != 2 {
		t.Fatalf("want 2 checkpoints, have %v", names)
	}
	if s := a.Stats(); s.BackpressureSeconds <= 0 {
		t.Fatalf("stats %+v: want positive backpressure", s)
	}
}

// errPFS is the storage error failingPipeline's armed write returns.
var errPFS = errors.New("pfs exploded")

// failingPipeline is a pipeline over Raw whose next write fails once
// failNext is set, and its storage.
func failingPipeline() (*AsyncCheckpointer, *Checkpointer, *atomic.Bool) {
	var failNext atomic.Bool
	st := &hookStorage{Storage: NewMemStorage(), onWrite: func(string) error {
		if failNext.CompareAndSwap(true, false) {
			return errPFS
		}
		return nil
	}}
	c := New(st, Raw{})
	return NewAsync(c), c, &failNext
}

func TestAsyncErrorSurfacedOnNextSave(t *testing.T) {
	a, c, failNext := failingPipeline()
	x := sparse.SmoothField(500, 3)

	if _, err := a.SaveAsync(testSnapshot(1, x)); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}

	failNext.Store(true)
	if _, err := a.SaveAsync(testSnapshot(2, x)); err != nil {
		t.Fatalf("SaveAsync itself must not fail, the write does: %v", err)
	}
	a.WaitBackpressure()
	// Peek reports the failure, named by the checkpoint it was
	// committing and unwrapping to the storage error, and leaves it with
	// the pipeline, however often it is asked.
	for range 2 {
		_, done, err := a.Peek()
		if !done || !errors.Is(err, errPFS) || !strings.Contains(err.Error(), ckptName(2)) {
			t.Fatalf("Peek after the failed write: done=%v err=%v", done, err)
		}
	}

	// It surfaces on the next call, which is not started.
	if _, err := a.SaveAsync(testSnapshot(3, x)); err == nil {
		t.Fatal("previous background failure was not surfaced")
	}
	// The error is consumed; subsequent saves proceed.
	if _, err := a.SaveAsync(testSnapshot(4, x)); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iteration != 4 {
		t.Fatalf("restored iteration %d, want 4", got.Iteration)
	}
	if info, _, _ := a.Peek(); info.Seq != 2 {
		t.Fatalf("committed seq %d, want 2 (failed save rolled back)", info.Seq)
	}
}

// TestAsyncSaveFailureKeepsItsFaultError: a background save that
// exhausts the resilient storage layer's retries surfaces that layer's
// *FaultError — attempts and class — through the pipeline's wrap, as a
// synchronous save returns it.
func TestAsyncSaveFailureKeepsItsFaultError(t *testing.T) {
	fs := newFlakyStore(&classedErr{ClassTransient})
	fs.fail("write", ckptName(1), 100)
	r := NewResilient(fs, FaultPolicy{MaxRetries: 2, Sleep: func(time.Duration) {}})
	a := NewAsync(New(r, Raw{}))
	if _, err := a.SaveAsync(testSnapshot(1, sparse.SmoothField(100, 4))); err != nil {
		t.Fatal(err)
	}
	err := a.Flush()
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Attempts != 3 || fe.Class != ClassTransient {
		t.Fatalf("want the 3-attempt transient *FaultError, got %v", err)
	}
	if ClassifyError(err) != ClassTransient || !strings.HasPrefix(err.Error(), "fti: async save "+ckptName(1)+": ") {
		t.Fatalf("async failure lost its class or its name: %v", err)
	}
}

// TestAsyncFlushSurfacesErrorOnce: a failure that no SaveAsync met is
// returned by the first Flush alone.
func TestAsyncFlushSurfacesErrorOnce(t *testing.T) {
	a, _, failNext := failingPipeline()
	x := sparse.SmoothField(100, 4)

	failNext.Store(true)
	if _, err := a.SaveAsync(testSnapshot(1, x)); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err == nil {
		t.Fatal("Flush should report the write failure")
	}
	if err := a.Flush(); err != nil {
		t.Fatalf("error surfaced twice: %v", err)
	}
	if _, err := a.SaveAsync(testSnapshot(2, x)); err != nil {
		t.Fatalf("error surfaced twice: %v", err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncCaptureIsDeepCopy pins the pipeline's central safety
// property: the solver may mutate its state the moment SaveAsync
// returns, and the checkpoint still holds the values at capture time.
// The encoder is gated so the mutation provably happens before the
// background encode reads anything.
func TestAsyncCaptureIsDeepCopy(t *testing.T) {
	gate := make(chan struct{})
	c := New(NewMemStorage(), gateEncoder{Encoder: Raw{}, gate: gate})
	a := NewAsync(c)

	x := sparse.SmoothField(2000, 5)
	want := append([]float64(nil), x...)
	if _, err := a.SaveAsync(testSnapshot(9, x)); err != nil {
		t.Fatal(err)
	}
	// Solver keeps iterating: trash the live vector mid-flight.
	for i := range x {
		x[i] = -7
	}
	close(gate)
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := vec.MaxAbsDiff(want, got.Vectors["x"]); d != 0 {
		t.Fatalf("checkpoint saw post-capture mutations (diff %g)", d)
	}
	if got.Iteration != 9 || got.Scalars["rho"] != 1.5 {
		t.Fatalf("restored %+v", got)
	}
}

// TestAsyncDoubleBufferKeepsCommittedCheckpoints mirrors the
// synchronous encode-buffer-reuse test for the double-buffered async
// path: consecutive saves must not clobber each other's stored bytes.
func TestAsyncDoubleBufferKeepsCommittedCheckpoints(t *testing.T) {
	c := New(NewMemStorage(), Raw{})
	a := NewAsync(c)

	x := sparse.SmoothField(3000, 6)
	v1 := append([]float64(nil), x...)
	if _, err := a.SaveAsync(testSnapshot(1, x)); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		x[i] = -x[i]
	}
	if _, err := a.SaveAsync(testSnapshot(2, x)); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}

	if err := c.DropLatest(); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iteration != 1 {
		t.Fatalf("restored iteration %d, want 1", got.Iteration)
	}
	if d := vec.MaxAbsDiff(v1, got.Vectors["x"]); d != 0 {
		t.Fatalf("save 2 corrupted save 1's bytes (diff %g)", d)
	}
}

// TestAsyncFlushAndPeekIdle: before the first save there is nothing to
// drain, to report or to surface.
func TestAsyncFlushAndPeekIdle(t *testing.T) {
	a := NewAsync(New(NewMemStorage(), Raw{}))
	if err := a.Flush(); err != nil {
		t.Fatalf("idle Flush: %v", err)
	}
	if info, done, err := a.Peek(); !done || err != nil || info != (Info{}) {
		t.Fatalf("idle Peek: %+v done=%v err=%v", info, done, err)
	}
	if a.InFlight() {
		t.Fatal("idle pipeline in flight")
	}
}

func TestAsyncStatsAccounting(t *testing.T) {
	a := NewAsync(New(NewMemStorage(), Raw{}))
	x := sparse.SmoothField(200000, 7)
	for i := 1; i <= 3; i++ {
		if _, err := a.SaveAsync(testSnapshot(i, x)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if info, _, _ := a.Peek(); info.Seq != 3 {
		t.Fatalf("newest save %+v, want the third", info)
	}
	s := a.Stats()
	if s.FailedSaves != 0 {
		t.Fatalf("FailedSaves = %d", s.FailedSaves)
	}
	if s.EncodeWriteSeconds <= 0 {
		t.Fatalf("EncodeWriteSeconds = %g, want > 0", s.EncodeWriteSeconds)
	}
}
