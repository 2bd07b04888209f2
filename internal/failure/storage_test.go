package failure

import (
	"errors"
	"testing"
	"time"

	"repro/internal/fti"
)

var _ fti.Storage = (*StorageInjector)(nil)

func TestStorageInjectorArmedOneShots(t *testing.T) {
	mem := fti.NewMemStorage()
	si := NewStorageInjector(mem, 1, StorageProfile{})
	si.ArmWrite(1)
	err := si.Write("a", []byte{1})
	if err == nil {
		t.Fatal("armed write fault did not fire")
	}
	if fti.ClassifyError(err) != fti.ClassTransient {
		t.Fatalf("armed fault classified %v, want transient", fti.ClassifyError(err))
	}
	// The fault fired on the attempt, not the op: the retry passes.
	if err := si.Write("a", []byte{1}); err != nil {
		t.Fatalf("retry after armed fault: %v", err)
	}
	si.ArmRead(1)
	if _, err := si.Read("a"); err == nil {
		t.Fatal("armed read fault did not fire")
	}
	if got, err := si.Read("a"); err != nil || len(got) != 1 {
		t.Fatalf("read after armed fault: %v %v", got, err)
	}
	st := si.Stats()
	if st.WriteFaults != 1 || st.ReadFaults != 1 || st.TransientFaults != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestStorageInjectorSlowDelay(t *testing.T) {
	mem := fti.NewMemStorage()
	si := NewStorageInjector(mem, 1, StorageProfile{})
	si.ArmSlow(1)
	start := time.Now()
	if err := si.Write("a", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < slowDelay {
		t.Fatalf("slow op returned in %v, want ≥ %v", d, slowDelay)
	}
	if err := si.Write("b", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if st := si.Stats(); st.SlowOps != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestStorageInjectorFailFirstAttempt(t *testing.T) {
	mem := fti.NewMemStorage()
	si := NewStorageInjector(mem, 1, StorageProfile{FailFirstAttempt: true})
	names := []string{"a", "b", "c", "d"}
	for _, n := range names {
		if err := si.Write(n, []byte{1}); err == nil {
			t.Fatalf("first attempt on %s must fail", n)
		}
		if err := si.Write(n, []byte{1}); err != nil {
			t.Fatalf("second attempt on %s must pass: %v", n, err)
		}
	}
	st := si.Stats()
	// Deterministic campaign accounting: exactly one fault per distinct
	// (op, name) pair, all transient.
	if st.WriteFaults != len(names) || st.TransientFaults != len(names) || st.PermanentFaults != 0 {
		t.Fatalf("stats %+v, want exactly %d transient write faults", st, len(names))
	}
}

func TestStorageInjectorSeededDeterminism(t *testing.T) {
	run := func() InjectStats {
		si := NewStorageInjector(fti.NewMemStorage(), 99, StorageProfile{Rate: 0.5, TransientFrac: 0.7})
		for i := 0; i < 200; i++ {
			_ = si.Write("obj", []byte{byte(i)})
			_, _ = si.Read("obj")
		}
		return si.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different campaigns: %+v vs %+v", a, b)
	}
	if a.WriteFaults+a.ReadFaults == 0 || a.TransientFaults == 0 || a.PermanentFaults == 0 {
		t.Fatalf("rate 0.5 / frac 0.7 over 400 attempts should mix classes: %+v", a)
	}
}

func TestStorageInjectorCrashReviveFsck(t *testing.T) {
	mem := fti.NewMemStorage()
	si := NewStorageInjector(mem, 1, StorageProfile{})
	// A real committed checkpoint, then a crash mid-way through the next.
	c := fti.New(si, fti.Raw{})
	x := []float64{1, 2, 3}
	c.Protect("x", &x)
	if _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	si.ArmCrash()
	if _, err := c.Checkpoint(); err == nil {
		t.Fatal("checkpoint through a crashing store must fail")
	}
	err := si.Write("ckpt-000000000003", []byte("never commits"))
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash write returned %v", err)
	}
	if fti.ClassifyError(err) != fti.ClassPermanent {
		t.Fatal("a crashed store must classify permanent (fail fast, no retry storm)")
	}
	if !si.Crashed() {
		t.Fatal("store should be dead")
	}
	// Dead store: every op fails, and the torn temp artifact is on the
	// inner store (crash point 2).
	if _, err := si.Read("ckpt-000000000001"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read on dead store: %v", err)
	}
	if _, err := si.List(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("list on dead store: %v", err)
	}
	if _, err := mem.Read("ckpt-000000000002.tmp"); err != nil {
		t.Fatalf("crashed checkpoint left no temp debris: %v", err)
	}
	// Restart: revive, fsck, and only the committed object survives.
	si.Revive()
	rep, err := fti.Fsck(si)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.TempRemoved) != 1 {
		t.Fatalf("fsck report %s: want the torn temp swept", rep)
	}
	names, err := si.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "ckpt-000000000001" {
		t.Fatalf("post-fsck namespace %v", names)
	}
}

func TestParsePlanIterRanges(t *testing.T) {
	p, err := ParsePlan("storagewrite@10..20/5,slowio@12", 1)
	if err != nil {
		t.Fatal(err)
	}
	evs := p.Events()
	if len(evs) != 4 {
		t.Fatalf("events %v, want iterations 10, 12, 15, 20", evs)
	}
	wantIters := []int{10, 12, 15, 20}
	for i, ev := range evs {
		if ev.Iteration != wantIters[i] {
			t.Fatalf("event %d at %d, want %d", i, ev.Iteration, wantIters[i])
		}
	}
	if evs[1].Kinds[0] != SlowIO {
		t.Fatalf("iteration 12 kinds %v", evs[1].Kinds)
	}
	// A campaign spec expands to one event per scheduled iteration.
	p, err = ParsePlan("storageread@100..600", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events()) != 501 {
		t.Fatalf("range 100..600 gave %d events", len(p.Events()))
	}
	for _, bad := range []string{
		"storagewrite@5/2",   // stride without a range
		"proc@20..10",        // descending range
		"proc@0..5",          // non-positive start
		"proc@1..9999999999", // over the expansion bound
		"crash@3..9/0",       // non-positive stride
		"storagewrit@5",      // typo'd kind
	} {
		if _, err := ParsePlan(bad, 1); err == nil {
			t.Errorf("spec %q should fail to parse", bad)
		}
	}
}

func TestInjectedErrorSelfClassifies(t *testing.T) {
	for _, class := range []fti.ErrClass{fti.ClassTransient, fti.ClassPermanent} {
		e := &InjectedError{Class: class, Msg: "x"}
		if fti.ClassifyError(e) != class {
			t.Errorf("InjectedError class %v misclassified as %v", class, fti.ClassifyError(e))
		}
	}
	var cl fti.Classifier
	if !errors.As(error(ErrCrashed), &cl) || cl.FaultClass() != fti.ClassPermanent {
		t.Fatal("ErrCrashed must classify permanent")
	}
}
