// Package abft provides algorithm-based fault tolerance for the
// Krylov solvers: checkpoint-free recovery of CG/PCG state from
// redundant algorithm data, so the tiered recovery chain can try an
// algorithmic reconstruction before touching the parallel file system.
//
// Two reconstruction methods are implemented, following the related
// work cited in PAPERS.md:
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
//     ProtectEvery iterations the guard retains a copy of x only. On
//     failure the lost block is spliced from the retained (stale) copy
//     into the surviving blocks' current values and the solver is
//     Restarted from the hybrid iterate — trading a few extra
//     iterations for far less retained state, and applicable to any
//     Restartable solver, not just CG.
//
// Either way, the reconstruction is accepted only after verification:
// the retained copies must pass their checksums, and the true residual
// ‖b − A·x‖ after reconstruction must be within VerifyFactor of the
// retained pre-failure residual norm. A reconstruction that fails
// verification is rejected and the caller falls back to the next
// recovery tier (the lossy checkpoint).
//
// The package also provides ChecksumOperator, a Huang–Abraham style
// checksum-augmented operator: A's column sums are precomputed and
// every MulVec verifies Σ(A·x) against c·x, detecting silent
// corruption of the operator application.
package abft

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/precond"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/vec"
)

// Method selects the reconstruction algorithm.
type Method int

const (
	// ExactState is Pachajoa/Levonyak exact-state reconstruction for
	// CG: redundant (r, p) retained every iteration, lost x-block
	// rebuilt by a local solve. Requires a *solver.CG.
	ExactState Method = iota
	// BackwardForward is the Fasi et al. backward/forward recovery:
	// a periodic retained copy of x, hybrid restart on failure. Works
	// with any Restartable solver.
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

// Config assembles a Guard.
type Config struct {
	// Ranks is the number of simulated process blocks the vectors are
	// partitioned into (default 8, clamped to the system size). A
	// failure loses one block.
	Ranks int
	// Method picks the reconstruction algorithm (default ExactState).
	Method Method
	// ProtectEvery is the BackwardForward retention cadence in
	// iterations (default 10). ExactState retains every iteration —
	// its redundancy is the per-iteration neighbor exchange.
	ProtectEvery int
	// VerifyFactor bounds the accepted post-reconstruction true
	// residual at VerifyFactor × the retained pre-failure residual
	// norm (default 4). NaN or anything beyond rejects the tier.
	VerifyFactor float64
	// LocalRTol is the relative tolerance of the exact-state local
	// solve (default 1e-12 — well below any outer tolerance, so the
	// reconstruction error stays invisible to the outer iteration).
	LocalRTol float64
	// LocalMaxIter caps the local solve (default 4× the block size).
	LocalMaxIter int
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
	cfg  Config
	a    *sparse.CSR
	b    []float64
	s    solver.Checkpointable
	cg   *solver.CG         // non-nil for ExactState
	rst  solver.Restartable // non-nil for BackwardForward
	cuts []int              // rank block boundaries, len Ranks+1

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
// given solver. ExactState requires a *solver.CG; BackwardForward
// requires a Restartable solver.
func NewGuard(a *sparse.CSR, b []float64, s solver.Checkpointable, cfg Config) (*Guard, error) {
	if a == nil || a.Rows != a.Cols {
		return nil, fmt.Errorf("abft: need a square operator")
	}
	if len(b) != a.Rows {
		return nil, fmt.Errorf("abft: rhs length %d does not match system size %d", len(b), a.Rows)
	}
	if cfg.Ranks <= 0 {
		cfg.Ranks = 8
	}
	if cfg.Ranks > a.Rows {
		cfg.Ranks = a.Rows
	}
	if cfg.ProtectEvery <= 0 {
		cfg.ProtectEvery = 10
	}
	if cfg.VerifyFactor <= 0 {
		cfg.VerifyFactor = 4
	}
	if cfg.LocalRTol <= 0 {
		cfg.LocalRTol = 1e-12
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	g := &Guard{cfg: cfg, a: a, b: b, s: s, failed: -1}
	switch cfg.Method {
	case ExactState:
		cg, ok := s.(*solver.CG)
		if !ok {
			return nil, fmt.Errorf("abft: exact-state reconstruction needs a *solver.CG, %T is not", s)
		}
		g.cg = cg
		g.rR = make([]float64, a.Rows)
		g.rP = make([]float64, a.Rows)
	case BackwardForward:
		rst, ok := s.(solver.Restartable)
		if !ok {
			return nil, fmt.Errorf("abft: backward/forward recovery needs a restartable solver, %T is not", s)
		}
		g.rst = rst
		g.rX = make([]float64, a.Rows)
	default:
		return nil, fmt.Errorf("abft: unknown method %v", cfg.Method)
	}
	g.cuts = make([]int, cfg.Ranks+1)
	for i := 0; i <= cfg.Ranks; i++ {
		g.cuts[i] = i * a.Rows / cfg.Ranks
	}
	g.rng = rand.New(rand.NewSource(cfg.Seed))
	return g, nil
}

// Solver returns the solver the guard protects.
func (g *Guard) Solver() solver.Checkpointable { return g.s }

// Method returns the configured reconstruction method.
func (g *Guard) Method() Method { return g.cfg.Method }

// Ranks returns the number of simulated process blocks.
func (g *Guard) Ranks() int { return g.cfg.Ranks }

// Stats returns the guard's lifetime counters.
func (g *Guard) Stats() Stats { return g.stats }

// Observe refreshes the retained redundancy after one accepted solver
// step. Call it once per iteration, after Step. For ExactState this is
// the per-iteration retention of (r, p, ρ); for BackwardForward it
// retains x every ProtectEvery iterations.
func (g *Guard) Observe() {
	it := g.s.Iteration()
	switch g.cfg.Method {
	case ExactState:
		copy(g.rR, g.cg.R())
		copy(g.rP, g.cg.P())
		g.rRho = g.cg.Rho()
		g.rRnorm = g.s.ResidualNorm()
		g.sumR = checksum(g.rR)
		g.sumP = checksum(g.rP)
	case BackwardForward:
		if g.have && it-g.retainedAt < g.cfg.ProtectEvery {
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
	if k < 0 || k >= g.cfg.Ranks {
		return
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
	k := g.rng.Intn(g.cfg.Ranks)
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
	switch g.cfg.Method {
	case ExactState:
		rec, err = g.reconstructExact(k)
	default:
		rec, err = g.reconstructBF(k)
	}
	if err != nil {
		g.stats.Rejected++
		g.met.rejects.Inc()
		return nil, err
	}
	g.failed = -1
	g.stats.Reconstructions++
	g.stats.LocalIterations += rec.LocalIterations
	g.met.reconstructions.Inc()
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
	maxIter := g.cfg.LocalMaxIter
	if maxIter <= 0 {
		maxIter = 4 * (hi - lo)
	}
	local := solver.NewCG(sub, precond.NewJacobiFromMatrix(sub), rhs, nil, solver.SeqSpace{},
		solver.Options{RTol: g.cfg.LocalRTol, MaxIter: maxIter})
	res, err := solver.RunToConvergence(local, solver.Options{RTol: g.cfg.LocalRTol, MaxIter: maxIter}, nil)
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
	if !(rnorm <= g.cfg.VerifyFactor*g.rRnorm) { // NaN-safe: NaN fails the comparison
		return nil, fmt.Errorf("abft: verification failed: reconstructed residual %.3e exceeds %.1f× retained %.3e",
			rnorm, g.cfg.VerifyFactor, g.rRnorm)
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
	g.rst.Restart(xh)
	rnorm := g.s.ResidualNorm()
	if !(rnorm <= g.cfg.VerifyFactor*g.rRnorm) { // NaN-safe
		return nil, fmt.Errorf("abft: verification failed: hybrid-restart residual %.3e exceeds %.1f× retained %.3e",
			rnorm, g.cfg.VerifyFactor, g.rRnorm)
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

// ChecksumOperator wraps a CSR operator with Huang–Abraham checksum
// verification: the column sums c_j = Σ_i A_ij are precomputed, and
// every MulVec checks Σ_i (A·x)_i against c·x to a rounding-aware
// tolerance. The numerics are untouched — dst is exactly A·x — so a
// checksum-augmented run is bitwise identical to an unguarded one;
// only silent corruption of the apply is detected and counted.
type ChecksumOperator struct {
	a            *sparse.CSR
	c            []float64 // column sums
	cabs         []float64 // absolute column sums, for the error bound
	applications int
	mismatches   int
}

// NewChecksumOperator precomputes the checksum rows of a.
func NewChecksumOperator(a *sparse.CSR) *ChecksumOperator {
	o := &ChecksumOperator{a: a, c: make([]float64, a.Cols), cabs: make([]float64, a.Cols)}
	for i := 0; i < a.Rows; i++ {
		for idx := a.RowPtr[i]; idx < a.RowPtr[i+1]; idx++ {
			j := a.ColIdx[idx]
			o.c[j] += a.Val[idx]
			o.cabs[j] += math.Abs(a.Val[idx])
		}
	}
	return o
}

// MulVec applies dst ← A·x and verifies the result's checksum.
func (o *ChecksumOperator) MulVec(dst, x []float64) {
	o.a.MulVec(dst, x)
	o.applications++
	want := vec.Dot(o.c, x)
	got := 0.0
	for _, v := range dst {
		got += v
	}
	scale := 0.0
	for j, xv := range x {
		scale += o.cabs[j] * math.Abs(xv)
	}
	// The two sums accumulate the same products in different orders;
	// the tolerance covers that reordering at float64 precision.
	tol := 1e-10*scale + 1e-300
	if diff := math.Abs(want - got); !(diff <= tol) { // NaN-safe
		o.mismatches++
	}
}

// Applications reports how many operator applications were checked.
func (o *ChecksumOperator) Applications() int { return o.applications }

// Mismatches reports how many applications failed the checksum.
func (o *ChecksumOperator) Mismatches() int { return o.mismatches }

var _ solver.Operator = (*ChecksumOperator)(nil)
