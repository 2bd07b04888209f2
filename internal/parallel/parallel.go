// Package parallel provides the shared data-parallel substrate for the
// hot paths of this repository: a bounded range-splitting For loop used
// by the blocked SZ compressor and the CSR matrix kernels, and reusable
// scratch-buffer pools that keep the checkpoint encode path free of
// per-call allocations.
//
// The design is deliberately deadlock-free: For spawns at most
// Workers() short-lived goroutines per call and the caller's goroutine
// participates in the work, so nested parallel sections (e.g. a
// simulated MPI rank calling a parallel MulVec) can never starve a
// shared queue. Chunks are handed out by an atomic counter, which load-
// balances uneven work (rows with unequal nonzero counts, blocks with
// unequal entropy) without any locking in the steady state.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workerOverride holds a positive worker-count override set with
// SetWorkers, or 0 to track GOMAXPROCS.
var workerOverride atomic.Int64

// Workers returns the number of goroutines a parallel section may use:
// the SetWorkers override if one is set, otherwise GOMAXPROCS.
func Workers() int {
	if w := int(workerOverride.Load()); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers overrides the worker count for subsequent parallel
// sections and returns the previous override (0 means "track
// GOMAXPROCS"). n <= 0 clears the override. It is the package's single
// tuning knob: benchmarks use SetWorkers(1) to measure serial
// baselines, and tests use a count above GOMAXPROCS to force
// interleaving on small machines.
func SetWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(workerOverride.Swap(int64(n)))
}

// For splits the index range [0, n) into chunks of about grain indices
// and calls fn(lo, hi) once per chunk, using up to Workers() goroutines
// (including the calling one). fn must be safe to call concurrently on
// disjoint ranges. For returns when every chunk has completed; a panic
// in any chunk is re-raised on the calling goroutine after the
// remaining workers drain.
//
// When the range fits in one chunk or only one worker is available the
// loop runs inline with zero scheduling overhead, so callers can use
// For unconditionally and tune the serial cutoff purely through grain.
func For(n, grain int, fn func(lo, hi int)) {
	ForBounded(n, grain, 0, fn)
}

// ForBounded is For with an explicit cap on the goroutine count:
// at most workers goroutines (including the calling one) execute fn.
// workers <= 0 means Workers(). Unlike For, the cap may exceed
// GOMAXPROCS — the sharded checkpoint writer uses that for I/O-bound
// storage fan-out, where goroutines spend their time blocked in write
// syscalls rather than on a core.
func ForBounded(n, grain, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	chunks := (n + grain - 1) / grain
	w := workers
	if w <= 0 {
		w = Workers()
	}
	if w > chunks {
		w = chunks
	}
	if w <= 1 || chunks == 1 {
		fn(0, n)
		return
	}

	var next atomic.Int64
	var panicOnce sync.Once
	var panicked atomic.Bool
	var panicVal any
	body := func() {
		for {
			c := int(next.Add(1)) - 1
			if c >= chunks || panicked.Load() {
				return
			}
			lo := c * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						panicOnce.Do(func() {
							panicVal = r
							panicked.Store(true)
						})
					}
				}()
				fn(lo, hi)
			}()
		}
	}

	var wg sync.WaitGroup
	wg.Add(w - 1)
	for i := 0; i < w-1; i++ {
		go func() {
			defer wg.Done()
			body()
		}()
	}
	body() // the caller works too
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
}

// Grain returns a chunk size that splits n indices into roughly
// chunksPerWorker chunks per worker (for load balancing of uneven
// work), but never below minGrain (so tiny inputs stay serial and
// per-chunk overhead stays amortized).
func Grain(n, minGrain, chunksPerWorker int) int {
	if chunksPerWorker < 1 {
		chunksPerWorker = 1
	}
	g := n / (Workers() * chunksPerWorker)
	if g < minGrain {
		g = minGrain
	}
	return g
}

// ---- Scratch-buffer pools ---------------------------------------------------
//
// The checkpoint encode path (fti.encodeSnapshot → sz.Compress →
// huffman encoding) used to grow fresh byte/int/float64 slices on
// every checkpoint. These pools recycle those slices across calls;
// Get* returns a zero-length slice with at least the requested
// capacity, and Put* recycles it. Contents are never zeroed — callers
// must treat returned slices as uninitialized beyond their own writes.

var bytePool, intPool, float64Pool sync.Pool

// get returns a zero-length slice with capacity ≥ n from p.
func get[T any](p *sync.Pool, n int) []T {
	if s, ok := p.Get().(*[]T); ok && cap(*s) >= n {
		return (*s)[:0]
	}
	return make([]T, 0, max(n, 1024))
}

// put recycles s into p. The caller must not use s afterwards.
func put[T any](p *sync.Pool, s []T) {
	if cap(s) > 0 {
		s = s[:0]
		p.Put(&s)
	}
}

// GetBytes returns a zero-length byte slice with capacity ≥ n.
func GetBytes(n int) []byte { return get[byte](&bytePool, n) }

// PutBytes recycles a slice obtained from GetBytes.
func PutBytes(b []byte) { put(&bytePool, b) }

// GetInts returns a zero-length int slice with capacity ≥ n.
func GetInts(n int) []int { return get[int](&intPool, n) }

// PutInts recycles a slice obtained from GetInts.
func PutInts(s []int) { put(&intPool, s) }

// GetFloat64s returns a zero-length float64 slice with capacity ≥ n.
func GetFloat64s(n int) []float64 { return get[float64](&float64Pool, n) }

// PutFloat64s recycles a slice obtained from GetFloat64s.
func PutFloat64s(s []float64) { put(&float64Pool, s) }
