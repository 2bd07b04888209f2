package failure

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/fti"
)

// StorageInjector interposes between the resilient retry layer and a
// real Storage, injecting the storage fault kinds of the plan grammar
// (storagewrite, storageread, slowio, crash) plus seeded random fault
// campaigns. Injected errors carry their intended classification via
// fti.Classifier, so the retry layer treats an armed transient fault
// exactly like a real transient PFS error — and a campaign of them
// must be fully absorbed before the solver ever sees one.
//
// Faults fire on the *attempt*, not the operation: a transient fault
// armed once fails exactly one attempt, and the retry that follows
// reaches the inner store untouched. Safe for concurrent use (the
// shard layer's worker pool calls it from many goroutines).
type StorageInjector struct {
	inner fti.Storage

	mu         sync.Mutex
	rng        *rand.Rand
	prof       StorageProfile
	armedWrite int
	armedRead  int
	armedSlow  int
	crashArmed bool
	crashed    bool
	seenFirst  map[string]bool
	stats      InjectStats
}

// StorageProfile configures the injector's continuous (per-attempt)
// fault behavior; the zero profile injects nothing and only armed
// one-shot faults fire.
type StorageProfile struct {
	// Rate is the per-attempt fault probability for reads and writes,
	// drawn from the seeded stream.
	Rate float64
	// TransientFrac is the fraction of injected faults that are
	// transient (the rest are permanent). Out-of-range values clamp;
	// an unset (zero) value with a nonzero Rate means all-transient —
	// set PermanentFrac-style mixes explicitly via a value in (0,1).
	TransientFrac float64
	// FailFirstAttempt makes the first attempt of every distinct
	// (op, name) pair fail transiently, exactly once — the
	// deterministic campaign mode: the injected-fault count equals the
	// number of distinct storage objects touched regardless of
	// scheduling, and every fault is absorbed by one retry.
	FailFirstAttempt bool
}

// slowDelay is the latency an armed slowio fault adds to one attempt.
const slowDelay = 2 * time.Millisecond

// InjectStats counts what the injector did.
type InjectStats struct {
	WriteFaults     int // write attempts failed (transient + permanent)
	ReadFaults      int // read attempts failed
	TransientFaults int
	PermanentFaults int
	SlowOps         int // attempts delayed
	CrashedOps      int // attempts rejected while crashed
}

// ErrCrashed is what every operation returns between a crash arming
// and Revive — classified permanent so the retry layer fails fast,
// exactly like a node that lost its PFS mount.
var ErrCrashed = &InjectedError{Class: fti.ClassPermanent, Msg: "failure: storage crashed (awaiting revive)"}

// InjectedError is a fault manufactured by the injector; it
// self-classifies (fti.Classifier) so the retry layer's taxonomy sees
// the intended class, not a string guess.
type InjectedError struct {
	Class fti.ErrClass
	Msg   string
}

// Error returns the injected fault's message.
func (e *InjectedError) Error() string { return e.Msg }

// FaultClass implements fti.Classifier.
func (e *InjectedError) FaultClass() fti.ErrClass { return e.Class }

// NewStorageInjector wraps inner with a seeded injector; prof may be
// the zero profile (armed one-shot faults only).
func NewStorageInjector(inner fti.Storage, seed int64, prof StorageProfile) *StorageInjector {
	if prof.TransientFrac <= 0 {
		prof.TransientFrac = 1
	}
	if prof.TransientFrac > 1 {
		prof.TransientFrac = 1
	}
	return &StorageInjector{
		inner:     inner,
		rng:       rand.New(rand.NewSource(seed)),
		prof:      prof,
		seenFirst: map[string]bool{},
	}
}

// ArmWrite schedules the next n write attempts to fail per the seeded
// transient/permanent mix.
func (si *StorageInjector) ArmWrite(n int) {
	si.mu.Lock()
	si.armedWrite += n
	si.mu.Unlock()
}

// ArmRead schedules the next n read attempts to fail.
func (si *StorageInjector) ArmRead(n int) {
	si.mu.Lock()
	si.armedRead += n
	si.mu.Unlock()
}

// ArmSlow schedules the next n attempts (read or write) to be delayed
// by slowDelay.
func (si *StorageInjector) ArmSlow(n int) {
	si.mu.Lock()
	si.armedSlow += n
	si.mu.Unlock()
}

// ArmCrash makes the next write attempt crash the store: the write
// leaves a partial "<name>.tmp" artifact on the inner store (the
// commit protocol's crash points 1–2), then every operation fails
// with ErrCrashed until Revive.
func (si *StorageInjector) ArmCrash() {
	si.mu.Lock()
	si.crashArmed = true
	si.mu.Unlock()
}

// Revive brings a crashed store back — the restart path: the caller
// then runs fti.Fsck to sweep the partial artifacts before recovery.
func (si *StorageInjector) Revive() {
	si.mu.Lock()
	si.crashed = false
	si.crashArmed = false
	si.mu.Unlock()
}

// Crashed reports whether the store is currently dead.
func (si *StorageInjector) Crashed() bool {
	si.mu.Lock()
	defer si.mu.Unlock()
	return si.crashed
}

// Stats returns a snapshot of the injection accounting.
func (si *StorageInjector) Stats() InjectStats {
	si.mu.Lock()
	defer si.mu.Unlock()
	return si.stats
}

// decide runs the per-attempt gate for op ("write" or "read") on
// name. It returns an error to inject, a delay to impose (0 = none),
// and for writes whether to crash.
func (si *StorageInjector) decide(op, name string) (inject error, delay time.Duration, crash bool) {
	si.mu.Lock()
	defer si.mu.Unlock()
	if si.crashed {
		si.stats.CrashedOps++
		return ErrCrashed, 0, false
	}
	if op == "write" && si.crashArmed {
		si.crashed, si.crashArmed = true, false
		si.stats.CrashedOps++
		return nil, 0, true
	}
	if si.armedSlow > 0 {
		si.armedSlow--
		si.stats.SlowOps++
		delay = slowDelay
	}
	fault := false
	if op == "write" && si.armedWrite > 0 {
		si.armedWrite--
		fault = true
	}
	if op == "read" && si.armedRead > 0 {
		si.armedRead--
		fault = true
	}
	if !fault && si.prof.FailFirstAttempt {
		key := op + ":" + name
		if !si.seenFirst[key] {
			si.seenFirst[key] = true
			si.stats.TransientFaults++
			si.countFault(op)
			return &InjectedError{Class: fti.ClassTransient,
				Msg: fmt.Sprintf("failure: injected transient %s fault on %s (first attempt)", op, name)}, delay, false
		}
	}
	if !fault && si.prof.Rate > 0 && si.rng.Float64() < si.prof.Rate {
		fault = true
	}
	if !fault {
		return nil, delay, false
	}
	class := fti.ClassTransient
	if si.rng.Float64() >= si.prof.TransientFrac {
		class = fti.ClassPermanent
		si.stats.PermanentFaults++
	} else {
		si.stats.TransientFaults++
	}
	si.countFault(op)
	return &InjectedError{Class: class,
		Msg: fmt.Sprintf("failure: injected %s %s fault on %s", class, op, name)}, delay, false
}

func (si *StorageInjector) countFault(op string) {
	if op == "write" {
		si.stats.WriteFaults++
	} else {
		si.stats.ReadFaults++
	}
}

// Write injects armed/seeded write faults, crash behavior, and delays
// ahead of the inner store's Write.
func (si *StorageInjector) Write(name string, data []byte) error {
	return si.write(name, data, si.inner.Write)
}

// WriteBatched forwards to the inner store's batch path under the same
// fault gate.
func (si *StorageInjector) WriteBatched(name string, data []byte) error {
	return si.write(name, data, si.inner.WriteBatched)
}

func (si *StorageInjector) write(name string, data []byte, inner func(string, []byte) error) error {
	inject, delay, crash := si.decide("write", name)
	if delay > 0 {
		time.Sleep(delay)
	}
	if crash {
		// The crash strikes mid-commit: a partial temp file has been
		// created and fsynced, but the rename never happened (crash
		// point 2). Best effort — a dead store that can't even leave
		// debris is fine too.
		if len(data) > 0 {
			_ = si.inner.Write(name+".tmp", data[:(len(data)+1)/2])
		}
		return ErrCrashed
	}
	if inject != nil {
		return inject
	}
	return inner(name, data)
}

// Read injects armed/seeded read faults and delays ahead of the inner
// store's Read.
func (si *StorageInjector) Read(name string) ([]byte, error) {
	inject, delay, _ := si.decide("read", name)
	if delay > 0 {
		time.Sleep(delay)
	}
	if inject != nil {
		return nil, inject
	}
	return si.inner.Read(name)
}

// Delete passes through unless crashed.
func (si *StorageInjector) Delete(name string) error {
	si.mu.Lock()
	dead := si.crashed
	if dead {
		si.stats.CrashedOps++
	}
	si.mu.Unlock()
	if dead {
		return ErrCrashed
	}
	return si.inner.Delete(name)
}

// List passes through unless crashed.
func (si *StorageInjector) List() ([]string, error) {
	si.mu.Lock()
	dead := si.crashed
	if dead {
		si.stats.CrashedOps++
	}
	si.mu.Unlock()
	if dead {
		return nil, ErrCrashed
	}
	return si.inner.List()
}

// SweepTemp forwards to the inner store (fsck runs after Revive,
// through the injector).
func (si *StorageInjector) SweepTemp() ([]string, error) { return si.inner.SweepTemp() }
