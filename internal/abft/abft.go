// Package abft provides algorithm-based fault tolerance for the
// Krylov solvers: checkpoint-free recovery of CG/PCG state from
// redundant algorithm data, so the tiered recovery chain can try an
// algorithmic reconstruction before touching the parallel file system.
//
// Two reconstruction methods are implemented, following the related
// work cited in PAPERS.md; the solver's type picks which one a guard
// runs:
//
//   - ExactState (Pachajoa & Levonyak): every iteration the guard
//     retains redundant copies of the search direction p and residual r
//     plus the replicated scalars (i, ρ, ‖r‖). When a rank's block of x
//     is lost, the block is reconstructed by solving the local system
//
//     A_kk·x_k = b_k − r_k − Σ_{j≠k} A_kj·x_j
//
//     with a local inner solve, after which the full dynamic state
//     (x, p, ρ, i) is reinstated exactly (up to the inner tolerance)
//     and CG continues as if the failure never happened.
//
//   - BackwardForward (Fasi, Langou, Robert & Uçar): every
//     protectEvery iterations the guard retains a copy of x only. On
//     failure the lost block is spliced from the retained (stale) copy
//     into the surviving blocks' current values and the solver is
//     Restarted from the hybrid iterate — trading a few extra
//     iterations for far less retained state. Every solver other than
//     CG gets this method.
//
// Either way, the reconstruction is accepted only after verification:
// the retained copies must pass their checksums, and the true residual
// ‖b − A·x‖ after reconstruction must be within verifyFactor of the
// retained pre-failure residual norm. A reconstruction that fails
// verification is rejected and the caller falls back to the next
// recovery tier (the lossy checkpoint).
package abft

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/precond"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// Method names the reconstruction algorithm a guard runs.
type Method int

const (
	// ExactState is Pachajoa/Levonyak exact-state reconstruction for
	// CG: redundant (r, p) retained every iteration, lost x-block
	// rebuilt by a local solve. A *solver.CG gets it.
	ExactState Method = iota
	// BackwardForward is the Fasi et al. backward/forward recovery:
	// a periodic retained copy of x, hybrid restart on failure. Any
	// other solver gets it.
	BackwardForward
)

// String names the method.
func (m Method) String() string {
	switch m {
	case ExactState:
		return "exact-state"
	case BackwardForward:
		return "backward-forward"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

const (
	// ranks is the number of simulated process blocks the vectors are
	// partitioned into (clamped to the system size). A failure loses
	// one block.
	ranks = 8
	// protectEvery is the BackwardForward retention cadence in
	// iterations. ExactState retains every iteration — its redundancy
	// is the per-iteration neighbor exchange.
	protectEvery = 10
	// verifyFactor bounds the accepted post-reconstruction true
	// residual at verifyFactor × the retained pre-failure residual
	// norm. NaN or anything beyond rejects the tier.
	verifyFactor = 4.0
	// localRTol is the relative tolerance of the exact-state local
	// solve — well below any outer tolerance, so the reconstruction
	// error stays invisible to the outer iteration. The local solve is
	// capped at 4× the block size.
	localRTol = 1e-12
)

// Config assembles a Guard.
type Config struct {
	// Seed drives the deterministic failed-rank selection of
	// FailNextRank (default 1).
	Seed int64
}

// Recon reports one accepted reconstruction.
type Recon struct {
	Method Method
	// Rank is the block that was lost and rebuilt.
	Rank int
	// Iteration is the solver iteration the reconstruction restored —
	// the pre-failure iteration for ExactState, the current iteration
	// for BackwardForward (Restart preserves the counter).
	Iteration int
	// LocalIterations is the inner-solve iteration count (ExactState;
	// zero for BackwardForward). This is what the ABFT tier costs —
	// iterations, not PFS reads.
	LocalIterations int
	// ResidualNorm is the verified true residual after reconstruction.
	ResidualNorm float64
	// Reference is the retained pre-failure residual norm the
	// verification compared against.
	Reference float64
}

// Stats counts what the guard did over its lifetime.
type Stats struct {
	Observes        int // retention updates
	Reconstructions int // accepted reconstructions
	Rejected        int // reconstructions that failed verification
	LocalIterations int // total inner-solve iterations across reconstructions
}

// Guard retains the redundant algorithm data ABFT recovery rebuilds
// from and performs the reconstruction. It is not safe for concurrent
// use; drive it from the solver loop.
type Guard struct {
	method Method
	ranks  int
	a      *sparse.CSR
	b      []float64
	s      solver.Checkpointable
	cg     *solver.CG // non-nil for ExactState
	cuts   []int      // rank block boundaries, len ranks+1

	// Retained redundancy. ExactState keeps (r, p, ρ, ‖r‖, i) from the
	// last Observe; BackwardForward keeps (x, ‖r‖, i) from the last
	// retention point. The checksums are plain float sums recomputed
	// bitwise-identically at verification time, the vector-level
	// analogue of the operator checksum — corruption of the retained
	// copies is detected before any reconstruction work is done.
	have       bool
	retainedAt int
	rRho       float64
	rRnorm     float64
	rR, rP     []float64 // ExactState
	rX         []float64 // BackwardForward
	sumR, sumP float64   // retained-copy checksums (ExactState)
	sumX       float64   // retained-copy checksum (BackwardForward)

	rng    *rand.Rand
	failed int // rank lost by the most recent failure, -1 when none

	stats Stats
	met   guardMetrics
}

// NewGuard builds a guard over the system A·x = b protected by the
// given solver: ExactState for a *solver.CG, BackwardForward for any
// other.
func NewGuard(a *sparse.CSR, b []float64, s solver.Checkpointable, cfg Config) (*Guard, error) {
	if a == nil || a.Rows != a.Cols {
		return nil, fmt.Errorf("abft: need a square operator")
	}
	if len(b) != a.Rows {
		return nil, fmt.Errorf("abft: rhs length %d does not match system size %d", len(b), a.Rows)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	g := &Guard{ranks: min(ranks, a.Rows), a: a, b: b, s: s, failed: -1}
	if cg, ok := s.(*solver.CG); ok {
		g.method, g.cg = ExactState, cg
		g.rR = make([]float64, a.Rows)
		g.rP = make([]float64, a.Rows)
	} else {
		g.method = BackwardForward
		g.rX = make([]float64, a.Rows)
	}
	g.cuts = make([]int, g.ranks+1)
	for i := 0; i <= g.ranks; i++ {
		g.cuts[i] = i * a.Rows / g.ranks
	}
	g.rng = rand.New(rand.NewSource(cfg.Seed))
	return g, nil
}

// Solver returns the solver the guard protects.
func (g *Guard) Solver() solver.Checkpointable { return g.s }

// Method returns the reconstruction method the solver's type picked.
func (g *Guard) Method() Method { return g.method }

// Ranks returns the number of simulated process blocks.
func (g *Guard) Ranks() int { return g.ranks }

// Stats returns the guard's lifetime counters.
func (g *Guard) Stats() Stats { return g.stats }

// Observe refreshes the retained redundancy after one accepted solver
// step. Call it once per iteration, after Step. For ExactState this is
// the per-iteration retention of (r, p, ρ); for BackwardForward it
// retains x every protectEvery iterations.
func (g *Guard) Observe() {
	it := g.s.Iteration()
	switch g.method {
	case ExactState:
		copy(g.rR, g.cg.R())
		copy(g.rP, g.cg.P())
		g.rRho = g.cg.Rho()
		g.rRnorm = g.s.ResidualNorm()
		g.sumR = checksum(g.rR)
		g.sumP = checksum(g.rP)
	case BackwardForward:
		if g.have && it-g.retainedAt < protectEvery {
			return
		}
		copy(g.rX, g.s.X())
		g.rRnorm = g.s.ResidualNorm()
		g.sumX = checksum(g.rX)
	}
	g.retainedAt = it
	g.have = true
	g.stats.Observes++
	g.met.observes.Inc()
}

// FailRank simulates the fail-stop loss of rank k: the rank's block of
// the live solver state is poisoned (set to NaN, the way a lost node's
// memory is simply gone). Reconstruct then rebuilds it.
func (g *Guard) FailRank(k int) {
	if k < 0 || k >= g.ranks {
		return
	}
	if gm, ok := g.s.(*solver.GMRES); ok {
		gm.Settle() // an async save may still be reading x
	}
	lo, hi := g.cuts[k], g.cuts[k+1]
	poison(g.s.X()[lo:hi])
	if g.cg != nil {
		poison(g.cg.P()[lo:hi])
		poison(g.cg.R()[lo:hi])
	}
	g.failed = k
}

// FailNextRank draws the next failed rank from the guard's seeded
// stream and fails it, returning the rank — the deterministic
// injection entry point.
func (g *Guard) FailNextRank() int {
	k := g.rng.Intn(g.ranks)
	g.FailRank(k)
	return k
}

// CorruptRetained damages the retained redundant copies — the
// injection hook for the ABFT-verify-fail tier transition. The
// corruption is detected by the retained-copy checksums at
// Reconstruct time.
func (g *Guard) CorruptRetained() {
	for i := 0; i < len(g.rR); i += 97 {
		g.rR[i] = g.rR[i]*1.75 + 1e-3
	}
	for i := 0; i < len(g.rP); i += 97 {
		g.rP[i] = g.rP[i]*1.75 + 1e-3
	}
	for i := 0; i < len(g.rX); i += 97 {
		g.rX[i] = g.rX[i]*1.75 + 1e-3
	}
}

// Reconstruct rebuilds the failed rank's state from the retained
// redundancy and verifies the result against the true residual. On
// success the solver is left fully restored and ready to Step. On
// error the solver state is unspecified — the caller must fall back to
// the next recovery tier, whose restore overwrites everything.
func (g *Guard) Reconstruct() (*Recon, error) {
	if g.failed < 0 {
		return nil, fmt.Errorf("abft: no failed rank recorded")
	}
	if !g.have {
		return nil, fmt.Errorf("abft: no retained state yet (failure before the first protected iteration)")
	}
	k := g.failed
	var rec *Recon
	var err error
	switch g.method {
	case ExactState:
		rec, err = g.reconstructExact(k)
	default:
		rec, err = g.reconstructBF(k)
	}
	if err != nil {
		g.stats.Rejected++
		return nil, err
	}
	g.failed = -1
	g.stats.Reconstructions++
	g.stats.LocalIterations += rec.LocalIterations
	g.met.localIterations.Add(uint64(rec.LocalIterations))
	return rec, nil
}

// reconstructExact is the Pachajoa/Levonyak path: verify the retained
// copies, rebuild x_k by the local solve, reinstate (x, p, ρ, i) and
// verify the recomputed true residual.
func (g *Guard) reconstructExact(k int) (*Recon, error) {
	if checksum(g.rR) != g.sumR || checksum(g.rP) != g.sumP {
		g.met.checksumFailures.Inc()
		return nil, fmt.Errorf("abft: retained state failed checksum verification")
	}
	if it := g.s.Iteration(); it != g.retainedAt {
		// The redundancy describes iteration retainedAt but the solver
		// stands elsewhere (e.g. a nested failure after a checkpoint
		// rollback): the surviving blocks would be inconsistent with the
		// retained residual, so the exact-state system does not hold.
		return nil, fmt.Errorf("abft: retained state is stale (iteration %d, solver at %d)", g.retainedAt, it)
	}
	lo, hi := g.cuts[k], g.cuts[k+1]

	// Surviving blocks of x with the lost block zeroed: the off-block
	// contribution Σ_{j≠k} A_kj·x_j is then just (A·x)|rows k.
	xwork := append([]float64(nil), g.cg.X()...)
	for i := lo; i < hi; i++ {
		xwork[i] = 0
	}
	rhs := make([]float64, hi-lo)
	for i := lo; i < hi; i++ {
		s := 0.0
		for idx := g.a.RowPtr[i]; idx < g.a.RowPtr[i+1]; idx++ {
			s += g.a.Val[idx] * xwork[g.a.ColIdx[idx]]
		}
		rhs[i-lo] = g.b[i] - g.rR[i] - s
	}

	// Local solve A_kk·x_k = rhs. The principal submatrix of an SPD
	// matrix is SPD, so a Jacobi-preconditioned local CG applies.
	sub := extractBlock(g.a, lo, hi)
	opts := solver.Options{RTol: localRTol, MaxIter: 4 * (hi - lo)}
	local := solver.NewCG(sub, precond.NewJacobiFromMatrix(sub), rhs, nil, solver.SeqSpace{}, opts)
	res, err := solver.RunToConvergence(local, opts, nil)
	if err != nil {
		return nil, fmt.Errorf("abft: local solve: %w", err)
	}
	copy(xwork[lo:hi], local.X())

	// Reinstate the exact dynamic state; RestoreDynamic recomputes
	// r = b − A·x and the true residual norm.
	if err := g.cg.RestoreDynamic(solver.DynamicState{
		Iteration: g.retainedAt,
		Scalars:   map[string]float64{"rho": g.rRho},
		Vectors:   map[string][]float64{"x": xwork, "p": g.rP},
	}); err != nil {
		return nil, fmt.Errorf("abft: reinstate: %w", err)
	}
	rnorm := g.cg.ResidualNorm()
	if !(rnorm <= verifyFactor*g.rRnorm) { // NaN-safe: NaN fails the comparison
		return nil, fmt.Errorf("abft: verification failed: reconstructed residual %.3e exceeds %.1f× retained %.3e",
			rnorm, verifyFactor, g.rRnorm)
	}
	return &Recon{
		Method:          ExactState,
		Rank:            k,
		Iteration:       g.retainedAt,
		LocalIterations: res.Iterations,
		ResidualNorm:    rnorm,
		Reference:       g.rRnorm,
	}, nil
}

// reconstructBF is the Fasi et al. backward/forward path: splice the
// retained (possibly stale) x-block into the surviving blocks' current
// values and Restart from the hybrid iterate.
func (g *Guard) reconstructBF(k int) (*Recon, error) {
	if checksum(g.rX) != g.sumX {
		g.met.checksumFailures.Inc()
		return nil, fmt.Errorf("abft: retained state failed checksum verification")
	}
	lo, hi := g.cuts[k], g.cuts[k+1]
	xh := append([]float64(nil), g.s.X()...)
	copy(xh[lo:hi], g.rX[lo:hi])
	g.s.Restart(xh)
	rnorm := g.s.ResidualNorm()
	if !(rnorm <= verifyFactor*g.rRnorm) { // NaN-safe
		return nil, fmt.Errorf("abft: verification failed: hybrid-restart residual %.3e exceeds %.1f× retained %.3e",
			rnorm, verifyFactor, g.rRnorm)
	}
	return &Recon{
		Method:       BackwardForward,
		Rank:         k,
		Iteration:    g.s.Iteration(),
		ResidualNorm: rnorm,
		Reference:    g.rRnorm,
	}, nil
}

// checksum is the retained-copy integrity check: a plain left-to-right
// float sum, recomputed in the identical order at verification time so
// an intact copy compares bitwise equal.
func checksum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// poison overwrites a lost block with NaN.
func poison(v []float64) {
	nan := math.NaN()
	for i := range v {
		v[i] = nan
	}
}

// extractBlock returns the principal submatrix A[lo:hi, lo:hi) as a
// fresh CSR with column indices shifted to the block.
func extractBlock(a *sparse.CSR, lo, hi int) *sparse.CSR {
	n := hi - lo
	sub := &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for i := lo; i < hi; i++ {
		for idx := a.RowPtr[i]; idx < a.RowPtr[i+1]; idx++ {
			if j := a.ColIdx[idx]; j >= lo && j < hi {
				sub.ColIdx = append(sub.ColIdx, j-lo)
				sub.Val = append(sub.Val, a.Val[idx])
			}
		}
		sub.RowPtr[i-lo+1] = len(sub.ColIdx)
	}
	return sub
}
