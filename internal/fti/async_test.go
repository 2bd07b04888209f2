package fti

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
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

// gateEncoder blocks Encode until the gate channel is closed, making
// the background stage's timing deterministic in tests.
type gateEncoder struct {
	Encoder
	gate chan struct{}
}

func (g gateEncoder) Encode(dst []byte, x []float64, st *codec.Stats) ([]byte, error) {
	<-g.gate
	return g.Encoder.Encode(dst, x, st)
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
	tk, err := a.SaveAsync(testSnapshot(3, x))
	if err != nil {
		t.Fatal(err)
	}
	if !a.InFlight() {
		t.Fatal("save should be in flight while the write is gated")
	}
	select {
	case <-tk.Done():
		t.Fatal("ticket done before the write was released")
	default:
	}
	if names, _ := mem.List(); len(names) != 0 {
		t.Fatalf("storage already has %v before the write was released", names)
	}

	close(gate)
	info, err := tk.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 1 || tk.Seq != 1 {
		t.Fatalf("committed seq %d, ticket seq %d, want 1", info.Seq, tk.Seq)
	}
	if a.InFlight() {
		t.Fatal("still in flight after Wait")
	}
	if names, _ := mem.List(); len(names) != 1 {
		t.Fatalf("storage has %v after commit", names)
	}
	if a.CommittedSeq() != 1 {
		t.Fatalf("CommittedSeq = %d", a.CommittedSeq())
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
	if _, err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	names, _ := mem.List()
	if len(names) != 2 {
		t.Fatalf("want 2 checkpoints, have %v", names)
	}
	if s := a.Stats(); s.Saves != 2 || s.BackpressureSeconds <= 0 {
		t.Fatalf("stats %+v: want 2 saves and positive backpressure", s)
	}
}

func TestAsyncErrorSurfacedOnNextSave(t *testing.T) {
	mem := NewMemStorage()
	var failNext atomic.Bool
	boom := fmt.Errorf("pfs exploded")
	st := &hookStorage{Storage: mem, onWrite: func(string) error {
		if failNext.CompareAndSwap(true, false) {
			return boom
		}
		return nil
	}}
	a := NewAsync(New(st, Raw{}))
	x := sparse.SmoothField(500, 3)

	if _, err := a.SaveAsync(testSnapshot(1, x)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Flush(); err != nil {
		t.Fatal(err)
	}

	failNext.Store(true)
	tk, err := a.SaveAsync(testSnapshot(2, x))
	if err != nil {
		t.Fatalf("SaveAsync itself must not fail, the write does: %v", err)
	}
	<-tk.Done()

	// The failure surfaces on the next call, which is not started.
	if _, err := a.SaveAsync(testSnapshot(3, x)); err == nil {
		t.Fatal("previous background failure was not surfaced")
	}
	// The error is consumed; subsequent saves proceed.
	if _, err := a.SaveAsync(testSnapshot(4, x)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := a.Checkpointer().Restore()
	if err != nil {
		t.Fatal(err)
	}
	if got.Iteration != 4 {
		t.Fatalf("restored iteration %d, want 4", got.Iteration)
	}
	if a.CommittedSeq() != 2 {
		t.Fatalf("CommittedSeq %d, want 2 (failed save rolled back)", a.CommittedSeq())
	}
}

func TestAsyncTicketWaitConsumesError(t *testing.T) {
	var failNext atomic.Bool
	st := &hookStorage{Storage: NewMemStorage(), onWrite: func(string) error {
		if failNext.CompareAndSwap(true, false) {
			return fmt.Errorf("transient")
		}
		return nil
	}}
	a := NewAsync(New(st, Raw{}))
	x := sparse.SmoothField(100, 4)

	failNext.Store(true)
	tk, err := a.SaveAsync(testSnapshot(1, x))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(); err == nil {
		t.Fatal("ticket Wait should report the write failure")
	}
	// Consumed by Wait: the next save must not see it again.
	if _, err := a.SaveAsync(testSnapshot(2, x)); err != nil {
		t.Fatalf("error surfaced twice: %v", err)
	}
	if _, err := a.Flush(); err != nil {
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
	a := NewAsync(New(NewMemStorage(), gateEncoder{Encoder: Raw{}, gate: gate}))

	x := sparse.SmoothField(2000, 5)
	want := append([]float64(nil), x...)
	tk, err := a.SaveAsync(testSnapshot(9, x))
	if err != nil {
		t.Fatal(err)
	}
	// Solver keeps iterating: trash the live vector mid-flight.
	for i := range x {
		x[i] = -7
	}
	close(gate)
	if _, err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	got, err := a.Checkpointer().Restore()
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
	mem := NewMemStorage()
	a := NewAsync(New(mem, Raw{}))

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
	if _, err := a.Flush(); err != nil {
		t.Fatal(err)
	}

	c := a.Checkpointer()
	if err := c.DropLatest(); err != nil {
		t.Fatal(err)
	}
	got, err := c.Restore()
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

func TestAsyncFlushIdleAndZeroTicket(t *testing.T) {
	a := NewAsync(New(NewMemStorage(), Raw{}))
	if info, err := a.Flush(); err != nil || info.Seq != 0 {
		t.Fatalf("idle Flush: %+v %v", info, err)
	}
	var zero Ticket
	select {
	case <-zero.Done():
	default:
		t.Fatal("zero ticket Done must be closed")
	}
	if _, err := zero.Wait(); err == nil {
		t.Fatal("zero ticket Wait must error")
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
	if _, err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	s := a.Stats()
	if s.Saves != 3 {
		t.Fatalf("Saves = %d", s.Saves)
	}
	if s.EncodeWriteSeconds <= 0 {
		t.Fatalf("EncodeWriteSeconds = %g, want > 0", s.EncodeWriteSeconds)
	}
}
