package fti

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/fti/shard"
)

// classedErr self-classifies, like the fault injector's errors.
type classedErr struct{ class ErrClass }

func (e *classedErr) Error() string        { return "classed " + e.class.String() + " fault" }
func (e *classedErr) FaultClass() ErrClass { return e.class }

// flakyStore fails the first N attempts of each named op with err,
// then forwards to an in-memory store.
type flakyStore struct {
	*MemStorage
	mu       sync.Mutex
	failures map[string]int // "op:name" → attempts left to fail
	err      error
	attempts map[string]int
}

func newFlakyStore(err error) *flakyStore {
	return &flakyStore{
		MemStorage: NewMemStorage(),
		failures:   map[string]int{},
		err:        err,
		attempts:   map[string]int{},
	}
}

func (f *flakyStore) fail(op, name string, n int) {
	f.mu.Lock()
	f.failures[op+":"+name] = n
	f.mu.Unlock()
}

func (f *flakyStore) gate(op, name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	key := op + ":" + name
	f.attempts[key]++
	if f.failures[key] > 0 {
		f.failures[key]--
		return f.err
	}
	return nil
}

func (f *flakyStore) Write(name string, data []byte) error {
	if err := f.gate("write", name); err != nil {
		return err
	}
	return f.MemStorage.Write(name, data)
}

func (f *flakyStore) Read(name string) ([]byte, error) {
	if err := f.gate("read", name); err != nil {
		return nil, err
	}
	return f.MemStorage.Read(name)
}

// sleepRecorder substitutes FaultPolicy.Sleep so tests observe the
// backoff schedule without wall-clock waits.
type sleepRecorder struct {
	mu    sync.Mutex
	slept []time.Duration
}

func (s *sleepRecorder) sleep(d time.Duration) {
	s.mu.Lock()
	s.slept = append(s.slept, d)
	s.mu.Unlock()
}

func (s *sleepRecorder) all() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.slept...)
}

func TestResilientAbsorbsTransientFaults(t *testing.T) {
	fs := newFlakyStore(&classedErr{ClassTransient})
	fs.fail("write", "a", 2)
	rec := &sleepRecorder{}
	r := NewResilient(fs, FaultPolicy{MaxRetries: 4, Seed: 1, Sleep: rec.sleep})
	if err := r.Write("a", []byte{1, 2}); err != nil {
		t.Fatalf("write should have been absorbed: %v", err)
	}
	got, err := r.Read("a")
	if err != nil || len(got) != 2 {
		t.Fatalf("read back: %v %v", got, err)
	}
	st := r.Stats()
	if st.Retries != 2 || st.Recovered != 1 || st.Exhausted != 0 || st.Permanent != 0 {
		t.Fatalf("stats %+v: want 2 retries, 1 recovered", st)
	}
	if len(rec.all()) != 2 {
		t.Fatalf("slept %d times, want 2", len(rec.all()))
	}
}

func TestResilientPermanentFailsFast(t *testing.T) {
	fs := newFlakyStore(&classedErr{ClassPermanent})
	fs.fail("write", "a", 1)
	rec := &sleepRecorder{}
	r := NewResilient(fs, FaultPolicy{MaxRetries: 4, Sleep: rec.sleep})
	err := r.Write("a", []byte{1})
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("want *FaultError, got %v", err)
	}
	if fe.Attempts != 1 || fe.Class != ClassPermanent || fe.Op != "write" || fe.Name != "a" {
		t.Fatalf("fault error %+v", fe)
	}
	if len(rec.all()) != 0 {
		t.Fatal("permanent errors must not back off")
	}
	if st := r.Stats(); st.Permanent != 1 {
		t.Fatalf("stats %+v: want 1 permanent", st)
	}
}

func TestResilientExhaustsRetries(t *testing.T) {
	fs := newFlakyStore(&classedErr{ClassTransient})
	fs.fail("write", "a", 100)
	rec := &sleepRecorder{}
	r := NewResilient(fs, FaultPolicy{MaxRetries: 3, Sleep: rec.sleep})
	err := r.Write("a", []byte{1})
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("want *FaultError, got %v", err)
	}
	if fe.Attempts != 4 || fe.Class != ClassTransient {
		t.Fatalf("fault error %+v: want 4 attempts, transient", fe)
	}
	if len(rec.all()) != 3 {
		t.Fatalf("slept %d times, want 3", len(rec.all()))
	}
	if st := r.Stats(); st.Exhausted != 1 {
		t.Fatalf("stats %+v: want 1 exhausted", st)
	}
}

func TestResilientOpBudgetBoundsBackoff(t *testing.T) {
	fs := newFlakyStore(&classedErr{ClassTransient})
	fs.fail("write", "a", 100)
	rec := &sleepRecorder{}
	// The first backoff step is ≥ BaseDelay/2 = 5ms > the 4ms budget,
	// so the op must give up without sleeping at all.
	r := NewResilient(fs, FaultPolicy{
		MaxRetries: 10, BaseDelay: 10 * time.Millisecond,
		OpBudget: 4 * time.Millisecond, Sleep: rec.sleep,
	})
	err := r.Write("a", []byte{1})
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Attempts != 1 {
		t.Fatalf("want 1-attempt exhaustion, got %v", err)
	}
	if len(rec.all()) != 0 {
		t.Fatalf("budget exceeded before the first retry; slept %v", rec.all())
	}
}

func TestResilientBackoffDeterministicAndCapped(t *testing.T) {
	schedule := func() []time.Duration {
		fs := newFlakyStore(&classedErr{ClassTransient})
		fs.fail("write", "a", 100)
		rec := &sleepRecorder{}
		r := NewResilient(fs, FaultPolicy{
			MaxRetries: 8, BaseDelay: time.Millisecond,
			MaxDelay: 8 * time.Millisecond, Seed: 42, Sleep: rec.sleep,
		})
		_ = r.Write("a", []byte{1})
		return rec.all()
	}
	a, b := schedule(), schedule()
	if len(a) != 8 {
		t.Fatalf("want 8 backoffs, got %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded backoff differs at step %d: %v vs %v", i, a[i], b[i])
		}
		step := time.Millisecond << uint(i)
		if step > 8*time.Millisecond {
			step = 8 * time.Millisecond
		}
		if a[i] < step/2 || a[i] > step {
			t.Fatalf("backoff %d = %v outside [%v, %v]", i, a[i], step/2, step)
		}
	}
}

func TestClassifyError(t *testing.T) {
	cases := []struct {
		err  error
		want ErrClass
	}{
		{&classedErr{ClassCorruption}, ClassCorruption},
		{&classedErr{ClassPermanent}, ClassPermanent},
		{fmt.Errorf("wrap: %w", &classedErr{ClassPermanent}), ClassPermanent},
		{&FaultError{Class: ClassTransient, Err: errors.New("x")}, ClassTransient},
		{fs.ErrNotExist, ClassPermanent},
		{fs.ErrPermission, ClassPermanent},
		{syscall.EIO, ClassTransient},
		{syscall.EINTR, ClassTransient},
		{syscall.ETIMEDOUT, ClassTransient},
		{syscall.ENOSPC, ClassPermanent},
		{syscall.EROFS, ClassPermanent},
		{errors.New("fti: object \"x\" not found"), ClassPermanent},
		{errors.New("some mysterious blip"), ClassTransient},
	}
	for _, c := range cases {
		if got := ClassifyError(c.err); got != c.want {
			t.Errorf("ClassifyError(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// batchProbe records whether the batch path was taken.
type batchProbe struct {
	*MemStorage
	batched int
}

func (b *batchProbe) WriteBatched(name string, data []byte) error {
	b.batched++
	return b.MemStorage.Write(name, data)
}

func TestResilientPreservesBatchPath(t *testing.T) {
	bp := &batchProbe{MemStorage: NewMemStorage()}
	r := NewResilient(bp, FaultPolicy{})
	if err := r.WriteBatched("a", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if bp.batched != 1 {
		t.Fatalf("batch path not taken (batched=%d)", bp.batched)
	}
	// A store without a batch path silently degrades to Write.
	r2 := NewResilient(NewMemStorage(), FaultPolicy{})
	if err := r2.WriteBatched("b", []byte{2}); err != nil {
		t.Fatal(err)
	}
	if got, err := r2.Read("b"); err != nil || len(got) != 1 {
		t.Fatalf("fallback write not visible: %v %v", got, err)
	}
}

func TestResilientCheckpointRoundTrip(t *testing.T) {
	// End to end: a Checkpointer over a flaky store (every object's
	// first write attempt fails) commits and restores cleanly.
	fs := newFlakyStore(&classedErr{ClassTransient})
	r := NewResilient(fs, FaultPolicy{MaxRetries: 2, Sleep: func(time.Duration) {}})
	c := New(r, Raw{})
	if err := c.SetSharding(4, 2); err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	c.Protect("x", &x)
	// Fail the first attempt of every shard object of the next group.
	base := ckptName(1)
	for i := 0; i < 4; i++ {
		fs.fail("write", shard.ShardName(base, i), 1)
	}
	fs.fail("write", base, 1)
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("checkpoint under flaky store: %v", err)
	}
	for i := range x {
		x[i] = 0
	}
	if err := c.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if x[7] != 8 {
		t.Fatalf("restored state wrong: %v", x)
	}
	if st := r.Stats(); st.Recovered != 5 {
		t.Fatalf("stats %+v: want all 5 object writes recovered", st)
	}
}
