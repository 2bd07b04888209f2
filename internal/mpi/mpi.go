// Package mpi provides a small message-passing runtime that stands in
// for MPI in this reproduction. Ranks are goroutines inside one
// process; the package offers the collective and point-to-point
// semantics the solvers need (Allreduce, Allgatherv, Send/Recv), so
// the distributed numerical code paths are exercised for real even
// though no network is involved.
//
// The paper ran PETSc over MPI on 2,048 physical cores. The numerics
// of a Krylov or stationary solver are independent of the transport:
// what matters is that reductions combine partial dot products in the
// same way and that halo exchange delivers the right ghost values.
// This runtime provides exactly those operations.
package mpi

import (
	"fmt"
	"sync"
)

// World owns the shared state for one group of ranks. Create one with
// NewWorld and hand each rank its Comm via Run.
type World struct {
	size int
	coll *collective
	mail []chan msg // mail[to*size+from]: ordered per-pair channels
}

type msg struct {
	tag  int
	data []float64
}

// NewWorld creates a World with the given number of ranks.
// Mailboxes are buffered so that simple neighbor exchanges
// (send-then-receive on both sides) do not deadlock.
func NewWorld(size int) *World {
	if size <= 0 {
		panic(fmt.Sprintf("mpi: world size must be positive, got %d", size))
	}
	w := &World{
		size: size,
		coll: newCollective(size),
		mail: make([]chan msg, size*size),
	}
	for i := range w.mail {
		w.mail[i] = make(chan msg, 4)
	}
	return w
}

// Comm is a per-rank communicator handle. It is not safe to share one
// Comm between goroutines; each rank goroutine owns its Comm.
type Comm struct {
	w    *World
	rank int
}

// Comm returns the communicator for the given rank.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, w.size))
	}
	return &Comm{w: w, rank: rank}
}

// Rank returns this communicator's rank in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.w.size }

// Run spawns size ranks, each executing fn with its own Comm, and
// waits for all of them. The first non-nil error (or panic, converted
// to an error) is returned. It is the moral equivalent of mpiexec.
func Run(size int, fn func(*Comm) error) error {
	w := NewWorld(size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	wg.Add(size)
	for r := 0; r < size; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
				}
			}()
			errs[rank] = fn(w.Comm(rank))
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// collective implements generation-counted collectives. All ranks must
// invoke collectives in the same order (the usual MPI contract).
type collective struct {
	mu     sync.Mutex
	cond   *sync.Cond
	size   int
	gen    uint64
	count  int
	accF   float64
	accV   []float64
	result []float64
	resF   float64
}

func newCollective(size int) *collective {
	c := &collective{size: size}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// phase runs one generation of a collective. contribute is called with
// the lock held for every rank; finish is called with the lock held by
// the last rank to arrive, before the generation advances. read is
// called with the lock held after the generation completes.
func (c *collective) phase(contribute, finish, read func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	myGen := c.gen
	contribute()
	c.count++
	if c.count == c.size {
		if finish != nil {
			finish()
		}
		c.count = 0
		c.gen++
		c.cond.Broadcast()
	} else {
		for c.gen == myGen {
			c.cond.Wait()
		}
	}
	if read != nil {
		read()
	}
}

// AllreduceSum returns the sum of x over all ranks. This is the kernel
// behind distributed dot products and norms.
func (c *Comm) AllreduceSum(x float64) float64 {
	cl := c.w.coll
	var out float64
	cl.phase(
		func() {
			if cl.count == 0 {
				cl.accF = 0
			}
			cl.accF += x
		},
		func() { cl.resF = cl.accF },
		func() { out = cl.resF },
	)
	return out
}

// AllreduceSumVec element-wise sums x across ranks and writes the
// result back into x on every rank. All ranks must pass equal lengths.
func (c *Comm) AllreduceSumVec(x []float64) {
	cl := c.w.coll
	cl.phase(
		func() {
			if cl.count == 0 {
				if cap(cl.accV) < len(x) {
					cl.accV = make([]float64, len(x))
				}
				cl.accV = cl.accV[:len(x)]
				for i := range cl.accV {
					cl.accV[i] = 0
				}
			}
			if len(x) != len(cl.accV) {
				panic("mpi: AllreduceSumVec length mismatch across ranks")
			}
			for i, v := range x {
				cl.accV[i] += v
			}
		},
		func() {
			cl.result = append(cl.result[:0], cl.accV...)
		},
		func() {
			copy(x, cl.result)
		},
	)
}

// Allgatherv concatenates each rank's local slice in rank order and
// returns the concatenation on every rank. counts[r] must equal
// len(local) on rank r and be the same array on all ranks.
func (c *Comm) Allgatherv(local []float64, counts []int) []float64 {
	if len(counts) != c.w.size {
		panic("mpi: Allgatherv counts must have one entry per rank")
	}
	if counts[c.rank] != len(local) {
		panic(fmt.Sprintf("mpi: Allgatherv rank %d contributed %d values, counts says %d",
			c.rank, len(local), counts[c.rank]))
	}
	total := 0
	offset := 0
	for r, n := range counts {
		if r < c.rank {
			offset += n
		}
		total += n
	}
	cl := c.w.coll
	out := make([]float64, total)
	cl.phase(
		func() {
			if cl.count == 0 {
				if cap(cl.accV) < total {
					cl.accV = make([]float64, total)
				}
				cl.accV = cl.accV[:total]
			}
			copy(cl.accV[offset:offset+len(local)], local)
		},
		func() {
			cl.result = append(cl.result[:0], cl.accV...)
		},
		func() {
			copy(out, cl.result)
		},
	)
	return out
}

// Send delivers data to rank `to` with the given tag. Per-pair
// ordering is preserved. The data slice is copied, so the caller may
// reuse it immediately.
func (c *Comm) Send(to, tag int, data []float64) {
	if to < 0 || to >= c.w.size {
		panic(fmt.Sprintf("mpi: Send to invalid rank %d", to))
	}
	buf := make([]float64, len(data))
	copy(buf, data)
	c.w.mail[to*c.w.size+c.rank] <- msg{tag: tag, data: buf}
}

// Recv receives the next message from rank `from`, asserting the tag
// matches. It returns the payload.
func (c *Comm) Recv(from, tag int) []float64 {
	if from < 0 || from >= c.w.size {
		panic(fmt.Sprintf("mpi: Recv from invalid rank %d", from))
	}
	m := <-c.w.mail[c.rank*c.w.size+from]
	if m.tag != tag {
		panic(fmt.Sprintf("mpi: rank %d expected tag %d from %d, got %d", c.rank, tag, from, m.tag))
	}
	return m.data
}
