package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fti"
	"repro/internal/lossless"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/sz"
)

// methodNames lists the three iterative methods the paper evaluates.
var methodNames = []string{"jacobi", "gmres", "cg"}

// schemeOrder lists the three checkpointing schemes in paper order.
var schemeOrder = []core.Scheme{core.Traditional, core.Lossless, core.Lossy}

// buildSolver constructs the named method on A·x = b with the paper's
// configuration (block-Jacobi/ILU-class preconditioning for CG, plain
// GMRES(30), plain Jacobi sweeps) and the paper's per-method rtol.
func buildSolver(method string, a *sparse.CSR, b []float64, rtol float64) (solver.Checkpointable, error) {
	opts := solver.Options{RTol: rtol}
	switch method {
	case "jacobi":
		s, err := solver.NewStationary(solver.KindJacobi, a, b, nil, 0, opts)
		if err != nil {
			return nil, err
		}
		return s, nil
	case "gmres":
		// The paper runs GMRES(30) with N ≈ 5,875 iterations (≈200
		// Krylov cycles). Our laptop-scale systems converge in tens to
		// hundreds of iterations, so the restart length scales down to
		// keep N ≫ k — otherwise a single lossy restart would wipe out
		// the only Krylov cycle of the run, a regime the paper never
		// operates in.
		return solver.NewGMRES(a, nil, b, nil, 5, solver.SeqSpace{}, opts), nil
	case "cg":
		// Unpreconditioned CG: at laptop scale the block-ILU
		// preconditioner collapses the iteration count to a handful,
		// which would leave the simulated iteration time comparable to
		// the checkpoint interval — again a regime the paper's
		// 2,400-iteration CG never enters. The preconditioned variant
		// is exercised by the solver tests and the ablation bench.
		return solver.NewCG(a, nil, b, nil, solver.SeqSpace{}, opts), nil
	}
	return nil, fmt.Errorf("experiments: unknown method %q", method)
}

// simGrid returns the per-method grid dimension for the virtual-time
// experiments, chosen so the failure-free iteration count keeps the
// simulated iteration time well below the checkpoint interval.
func simGrid(method string, quick bool) int {
	full := map[string]int{"jacobi": 14, "gmres": 20, "cg": 20}
	q := map[string]int{"jacobi": 8, "gmres": 12, "cg": 12}
	if quick {
		return q[method]
	}
	return full[method]
}

// poissonSystem builds the paper's Eq. (15) system at grid dimension m
// (n = m³ unknowns) with the all-ones right-hand side.
func poissonSystem(m int) (*sparse.CSR, []float64) {
	a := sparse.Poisson3D(m)
	return a, sparse.OnesRHS(a.Rows)
}

// gridFor picks a laptop-scale grid dimension standing in for a paper
// scale, preserving the weak-scaling shape (larger scale → larger
// problem).
func gridFor(procs int, quick bool) int {
	base := map[int]int{256: 10, 512: 12, 768: 13, 1024: 14, 1280: 15, 1536: 16, 1792: 17, 2048: 18}
	m, ok := base[procs]
	if !ok {
		m = 12
	}
	if quick {
		m = m/2 + 3
	}
	return m
}

// gridForMethod scales the method's sim grid across the weak-scaling
// axis (larger paper scale → larger laptop problem), keeping each
// method in its healthy iteration regime.
func gridForMethod(method string, procs int, quick bool) int {
	g := simGrid(method, quick)
	switch procs {
	case 256:
		g = g * 7 / 10
	case 512:
		g = g * 85 / 100
	case 1024:
		// base size
	case 2048:
		g = g * 115 / 100
	}
	if g < 5 {
		g = 5
	}
	return g
}

// ratios holds measured compression ratios per checkpointing scheme on
// a real solver state.
type ratios struct {
	Traditional float64 // always 1
	Lossless    float64
	Lossy       float64
}

// measureRatios runs the method partway to convergence on an
// affordable system, captures the checkpoint vector(s), and measures
// the compression ratio of each scheme on that real solver state.
//
// The system is the 7-point Poisson operator on an anisotropic grid
// whose x-extent matches the paper's grids (≈2,160): the compression
// ratio of 1D SZ on checkpoint data is governed by the smoothness of
// the vector in traversal order, i.e. by the grid's x-resolution, not
// by the total unknown count. A cubic laptop-scale grid (runs of ≈16
// values) would understate the paper's ratios by ≈5×; the anisotropic
// grid reproduces the paper's 20–60× regime on real solver state. The
// lossy ratio uses the value-range-relative bound, matching the SZ
// 1.4.12 REL mode the paper deploys; the pointwise-relative bound
// (the theorems' definition) is what the numerical experiments use.
func measureRatios(method string, grid int, eb float64) (ratios, error) {
	nx := 135 * grid / 16 * 16 // ≈2,160 at grid 16, scaled down in quick mode
	if nx < 256 {
		nx = 256
	}
	a := sparse.Poisson3DAniso(nx, 8, 8)
	b := sparse.SmoothField(a.Rows, 77)
	base := cluster.PaperBaselines()[method]
	s, err := buildSolver(method, a, b, base.RTol)
	if err != nil {
		return ratios{}, err
	}
	// Advance to roughly half convergence so the state is realistic
	// (neither the trivial guess nor the converged fixed point).
	res, err := solver.RunToConvergence(s, solver.Options{MaxIter: 100000}, nil)
	if err != nil {
		return ratios{}, err
	}
	half := res.Iterations / 2
	if half < 1 {
		half = 1
	}
	s2, err := buildSolver(method, a, b, base.RTol)
	if err != nil {
		return ratios{}, err
	}
	for i := 0; i < half; i++ {
		s2.Step()
	}
	// Compressed on the spot, so the live view needs no copy.
	state := s2.DynamicView()
	if g, ok := s2.(*solver.GMRES); ok {
		state.Vectors["x"] = g.CurrentX() // mid-cycle, X() lags the iterate
	}

	out := ratios{Traditional: 1}
	var rawTotal, flateTotal, szTotal int
	for _, v := range state.Vectors {
		rawTotal += 8 * len(v)
		fl, err := (lossless.Flate{}).Compress(v)
		if err != nil {
			return ratios{}, err
		}
		flateTotal += len(fl)
		lz, err := sz.Compress(v, sz.Params{Mode: sz.RelRange, ErrorBound: eb})
		if err != nil {
			return ratios{}, err
		}
		szTotal += len(lz)
	}
	if flateTotal == 0 || szTotal == 0 {
		return ratios{}, fmt.Errorf("experiments: empty compressed state")
	}
	out.Lossless = float64(rawTotal) / float64(flateTotal)
	out.Lossy = float64(rawTotal) / float64(szTotal)
	return out, nil
}

// managedRun builds a solver plus manager pair for a sim run.
func managedRun(method string, a *sparse.CSR, b []float64, rtol float64, scheme core.Scheme, eb float64) (solver.Checkpointable, *core.Manager, error) {
	s, err := buildSolver(method, a, b, rtol)
	if err != nil {
		return nil, nil, err
	}
	cfg := core.Config{Scheme: scheme}
	if scheme == core.Lossy {
		cfg.SZParams = sz.Params{Mode: sz.PWRel, ErrorBound: eb}
		if method == "gmres" {
			cfg.Adaptive = true
			cfg.AdaptiveC = 1
			cfg.BNorm = solver.SeqSpace{}.Norm2(b)
		}
	}
	m, err := core.NewManager(cfg, fti.NewMemStorage(), s)
	if err != nil {
		return nil, nil, err
	}
	return s, m, nil
}
