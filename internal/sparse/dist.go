package sparse

import (
	"fmt"
	"sort"

	"repro/internal/mpi"
)

// Dist is a row-partitioned distributed matrix: each rank owns a
// contiguous block of rows and the matching block of every vector,
// exactly like PETSc's MPIAIJ layout. Off-rank vector entries needed
// by the local rows (the ghost region) are fetched with point-to-point
// exchange during MulVec.
type Dist struct {
	comm   *mpi.Comm
	n      int   // global dimension
	starts []int // starts[r] = first global row of rank r; len = size+1

	local *CSR // owned rows; columns remapped to [0, nLocal+nGhost)

	ghostGlobal []int // global index of each ghost slot, ascending
	recvFrom    []ghostRange
	sendTo      []sendPlan

	xExt []float64 // scratch [owned | ghosts]
}

type ghostRange struct {
	rank   int
	lo, hi int // ghost slot range [lo, hi) filled by this neighbor
}

type sendPlan struct {
	rank    int
	indices []int // local indices to gather and ship
	buf     []float64
}

const tagGhost = 1001

// PartitionStarts returns the canonical contiguous partition of n rows
// over size ranks: rank r owns [starts[r], starts[r+1]).
func PartitionStarts(n, size int) []int {
	starts := make([]int, size+1)
	for r := 0; r <= size; r++ {
		starts[r] = r * n / size
	}
	return starts
}

// NewDist builds the distributed form of the global matrix a on the
// calling rank. Every rank must call it collectively with an identical
// matrix. The matrix must be square (solvers require it).
func NewDist(comm *mpi.Comm, a *CSR) *Dist {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("sparse: NewDist requires square matrix, got %dx%d", a.Rows, a.Cols))
	}
	size := comm.Size()
	starts := PartitionStarts(a.Rows, size)
	rank := comm.Rank()
	lo, hi := starts[rank], starts[rank+1]
	nLocal := hi - lo

	sub := a.SubmatrixRows(lo, hi)

	// Collect ghost columns: global columns outside [lo, hi).
	ghostSet := map[int]bool{}
	for _, j := range sub.ColIdx {
		if j < lo || j >= hi {
			ghostSet[j] = true
		}
	}
	ghosts := make([]int, 0, len(ghostSet))
	for j := range ghostSet {
		ghosts = append(ghosts, j)
	}
	sort.Ints(ghosts)
	slot := make(map[int]int, len(ghosts))
	for s, j := range ghosts {
		slot[j] = s
	}

	// Remap local columns to [0, nLocal) ∪ ghost slots.
	for k, j := range sub.ColIdx {
		if j >= lo && j < hi {
			sub.ColIdx[k] = j - lo
		} else {
			sub.ColIdx[k] = nLocal + slot[j]
		}
	}
	sub.Cols = nLocal + len(ghosts)

	d := &Dist{
		comm:        comm,
		n:           a.Rows,
		starts:      starts,
		local:       sub,
		ghostGlobal: ghosts,
		xExt:        make([]float64, nLocal+len(ghosts)),
	}
	d.buildExchangePlan()
	return d
}

// owner returns the rank owning global row j.
func (d *Dist) owner(j int) int {
	return sort.SearchInts(d.starts[1:], j+1)
}

// buildExchangePlan agrees, collectively, on who sends what to whom.
// Each rank publishes its ghost requests (owner, index) via
// Allgatherv; every rank then extracts the requests addressed to it.
func (d *Dist) buildExchangePlan() {
	size := d.comm.Size()
	rank := d.comm.Rank()
	lo := d.starts[rank]

	// Requests as flat (ownerRank, globalIndex) pairs encoded in
	// float64 (exact for indices below 2^53).
	reqs := make([]float64, 0, 2*len(d.ghostGlobal))
	for _, j := range d.ghostGlobal {
		reqs = append(reqs, float64(d.owner(j)), float64(j))
	}

	// Share per-rank request counts, then the requests themselves.
	counts := make([]float64, size)
	counts[rank] = float64(len(reqs))
	d.comm.AllreduceSumVec(counts)
	icounts := make([]int, size)
	for r := range counts {
		icounts[r] = int(counts[r])
	}
	all := d.comm.Allgatherv(reqs, icounts)

	// Receive ranges: contiguous runs of my sorted ghost list per owner.
	for s := 0; s < len(d.ghostGlobal); {
		r := d.owner(d.ghostGlobal[s])
		e := s
		for e < len(d.ghostGlobal) && d.owner(d.ghostGlobal[e]) == r {
			e++
		}
		d.recvFrom = append(d.recvFrom, ghostRange{rank: r, lo: s, hi: e})
		s = e
	}

	// Send plans: scan the global request list for entries owned by me.
	perRequester := map[int][]int{}
	off := 0
	for r := 0; r < size; r++ {
		cnt := icounts[r]
		for k := 0; k < cnt; k += 2 {
			own := int(all[off+k])
			j := int(all[off+k+1])
			if own == rank {
				perRequester[r] = append(perRequester[r], j-lo)
			}
		}
		off += cnt
	}
	requesters := make([]int, 0, len(perRequester))
	for r := range perRequester {
		requesters = append(requesters, r)
	}
	sort.Ints(requesters)
	for _, r := range requesters {
		idx := perRequester[r]
		// Requests arrive in ascending global order because each
		// requester's ghost list is sorted, so the receive side's
		// contiguous slot range lines up with this order.
		d.sendTo = append(d.sendTo, sendPlan{
			rank:    r,
			indices: idx,
			buf:     make([]float64, len(idx)),
		})
	}
}

// GlobalRows returns the global dimension of the matrix.
func (d *Dist) GlobalRows() int { return d.n }

// LocalRows returns the number of rows owned by this rank.
func (d *Dist) LocalRows() int { return d.starts[d.comm.Rank()+1] - d.starts[d.comm.Rank()] }

// RowStart returns the first global row owned by this rank.
func (d *Dist) RowStart() int { return d.starts[d.comm.Rank()] }

// Counts returns the per-rank row counts (shared by Allgatherv calls).
func (d *Dist) Counts() []int {
	counts := make([]int, d.comm.Size())
	for r := range counts {
		counts[r] = d.starts[r+1] - d.starts[r]
	}
	return counts
}

// MulVec computes dst ← A·x on the owned block. x and dst hold only
// the owned entries (length LocalRows); ghost values are exchanged
// internally. All ranks must call MulVec collectively.
func (d *Dist) MulVec(dst, x []float64) {
	nLocal := d.LocalRows()
	if len(x) != nLocal || len(dst) != nLocal {
		panic(fmt.Sprintf("sparse: Dist.MulVec local length %d, got x=%d dst=%d",
			nLocal, len(x), len(dst)))
	}
	copy(d.xExt[:nLocal], x)

	// Ship requested values to every requester first (buffered
	// channels make this safe), then collect our ghosts.
	for i := range d.sendTo {
		p := &d.sendTo[i]
		for k, li := range p.indices {
			p.buf[k] = x[li]
		}
		d.comm.Send(p.rank, tagGhost, p.buf)
	}
	for _, g := range d.recvFrom {
		vals := d.comm.Recv(g.rank, tagGhost)
		if len(vals) != g.hi-g.lo {
			panic("sparse: ghost exchange size mismatch")
		}
		copy(d.xExt[nLocal+g.lo:nLocal+g.hi], vals)
	}
	d.local.MulVec(dst, d.xExt)
}

// Diag extracts the owned part of the global diagonal.
func (d *Dist) Diag(dst []float64) {
	nLocal := d.LocalRows()
	if len(dst) != nLocal {
		panic("sparse: Dist.Diag length mismatch")
	}
	for i := 0; i < nLocal; i++ {
		dst[i] = 0
		for k := d.local.RowPtr[i]; k < d.local.RowPtr[i+1]; k++ {
			if d.local.ColIdx[k] == i {
				dst[i] = d.local.Val[k]
				break
			}
		}
	}
}

// Gather assembles the full global vector from the owned pieces on
// every rank (an Allgatherv). Used by tests and small demos only.
func (d *Dist) Gather(x []float64) []float64 {
	return d.comm.Allgatherv(x, d.Counts())
}
