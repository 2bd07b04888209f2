package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/abft"
	"repro/internal/fti"
	"repro/internal/precond"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/sz"
)

// inPlaceRig is a CG large enough that every scheme's vectors span the
// four shards of a checkpoint in several compression blocks, so a bad
// shard is met after good ones were already decoded into the solver.
type inPlaceRig struct {
	a   *sparse.CSR
	b   []float64
	cfg Config
}

func newInPlaceRig(scheme Scheme) inPlaceRig {
	// A lossless vector is cut into codec.BlockedFlate's 16,384-element
	// blocks, so its grid is large enough for several of them.
	n := 70
	if scheme == Lossless {
		n = 260
	}
	a := sparse.Poisson2D(n)
	return inPlaceRig{a: a, b: sparse.OnesRHS(a.Rows), cfg: Config{
		Scheme:         scheme,
		Shards:         4,
		StorageWorkers: 2,
		SZParams:       sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4, BlockSize: 512},
	}}
}

func (r inPlaceRig) solver() *solver.CG {
	return solver.NewCG(r.a, nil, r.b, nil, solver.SeqSpace{}, solver.Options{RTol: 1e-10})
}

func (r inPlaceRig) manager(t *testing.T, st fti.Storage, s solver.Checkpointable) *Manager {
	t.Helper()
	m, err := NewManager(r.cfg, st, s)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFailedInPlaceRestoreIsNeverAdopted: the restore decodes into the
// solver's own vectors, so a checkpoint rejected part-way leaves them
// half-new. Whatever is broken in the newest group — each shard in turn
// missing, truncated or bit-flipped, or the manifest missing — and then in
// both groups, when RecoverTiered returns the solver's dynamic state is
// bit for bit that of the checkpoint it reports (a clean recovery of
// that checkpoint alone), or of a fresh solver at x0.
func TestFailedInPlaceRestoreIsNeverAdopted(t *testing.T) {
	const newest, previous = "ckpt-000000000002", "ckpt-000000000001"
	for _, scheme := range []Scheme{Traditional, Lossless, Lossy} {
		r := newInPlaceRig(scheme)
		// run checkpoints every 6 iterations up to last and stops at 17.
		run := func(last int) (*solver.CG, *Manager, *fti.MemStorage) {
			s, st := r.solver(), fti.NewMemStorage()
			m := r.manager(t, st, s)
			for it := 1; it <= 17; it++ {
				s.Step()
				if it%6 != 0 || it > last {
					continue
				}
				if info, err := m.Checkpoint(); err != nil || info.Shards != 4 {
					t.Fatalf("%v: checkpoint in %d shards: %v", scheme, info.Shards, err)
				}
			}
			return s, m, st
		}

		// What a clean recovery of each checkpoint restores: the newest
		// of a run that saved no later.
		restored := map[int]solver.DynamicState{}
		for _, last := range []int{6, 12} {
			s2, m2, _ := run(last)
			if it := recoverCheckpoint(t, m2); it == last {
				restored[it] = s2.DynamicView().Clone()
			}
		}
		if len(restored) != 2 {
			t.Fatalf("%v: reference recoveries landed on %d iterations", scheme, len(restored))
		}
		fresh := r.solver().DynamicView().Clone()
		x0 := make([]float64, r.a.Rows)

		// shard < 0 takes the manifest away instead.
		type breakage struct {
			shard int
			how   string
		}
		breakages := []breakage{{-1, "missing"}}
		for i := 0; i < 4; i++ {
			for _, how := range []string{"missing", "truncated", "bit-flipped"} {
				breakages = append(breakages, breakage{i, how})
			}
		}
		damage := func(st *fti.MemStorage, base string, what breakage) {
			t.Helper()
			name := base
			if what.shard >= 0 {
				name = fmt.Sprintf("%s.s%05d", base, what.shard)
			}
			data, err := st.Read(name)
			if err != nil {
				t.Fatal(err)
			}
			switch what.how {
			case "missing":
				err = st.Delete(name)
			case "truncated":
				err = st.Write(name, data[:len(data)/2])
			case "bit-flipped":
				data[len(data)/2] ^= 0x10
				err = st.Write(name, data)
			}
			if err != nil {
				t.Fatal(err)
			}
		}

		for _, both := range []bool{false, true} {
			for _, what := range breakages {
				s2, m2, st := run(12)
				damage(st, newest, what)
				if both {
					damage(st, previous, what)
				}
				rep, err := m2.RecoverTiered(x0)
				if err != nil {
					t.Fatalf("%v, %v (both=%v): %v", scheme, what, both, err)
				}
				want, wantTier := restored[rep.Iteration], TierPreviousCheckpoint
				if both {
					want, wantTier = fresh, TierRestartZero
				}
				if both || scheme == Lossy {
					want.Iteration = s2.Iteration() // a restart keeps the counter
				}
				if rep.Used != wantTier {
					t.Fatalf("%v, %v (both=%v): recovered through %v, want %v", scheme, what, both, rep.Used, wantTier)
				}
				if !sameDynamic(s2.DynamicView(), want) {
					t.Fatalf("%v, %v (both=%v): the solver's state is not that of the %v it reports (iteration %d)",
						scheme, what, both, rep.Used, rep.Iteration)
				}
			}
		}
	}
}

// readCounter counts the reads and listings that reach a store.
type readCounter struct {
	*fti.MemStorage
	reads int
}

func (c *readCounter) Read(name string) ([]byte, error) { c.reads++; return c.MemStorage.Read(name) }
func (c *readCounter) List() ([]string, error)          { c.reads++; return c.MemStorage.List() }

// TestABFTTierSeesThePreRestoreState: the restore targets are the
// solver's own vectors, so the ABFT tier, which reconstructs from the
// state the failure left, has to run before any checkpoint byte is
// read. An accepted reconstruction touches storage not at all and
// agrees with a guard that has no checkpoints to fall back to.
func TestABFTTierSeesThePreRestoreState(t *testing.T) {
	run := func(withCheckpoint bool) (solver.DynamicState, *RecoveryReport, int) {
		a := sparse.Poisson3D(8)
		b := sparse.OnesRHS(a.Rows)
		cg := solver.NewCG(a, precond.NewJacobiFromMatrix(a), b, nil, solver.SeqSpace{}, solver.Options{RTol: 1e-8})
		g, err := abft.NewGuard(a, b, cg, abft.Config{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		st := &readCounter{MemStorage: fti.NewMemStorage()}
		m, err := NewManager(Config{Scheme: Traditional, Shards: 4, ABFT: g}, st, cg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			cg.Step()
			g.Observe()
			if withCheckpoint && i == 4 {
				if _, err := m.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		st.reads = 0
		g.FailNextRank()
		rep, err := m.RecoverTiered(make([]float64, a.Rows))
		if err != nil {
			t.Fatal(err)
		}
		return cg.DynamicView().Clone(), rep, st.reads
	}
	alone, _, _ := run(false)
	guarded, rep, reads := run(true)
	if rep.Used != TierABFT || reads != 0 {
		t.Fatalf("recovered through %v after %d storage reads, want abft and none", rep.Used, reads)
	}
	if !sameDynamic(alone, guarded) {
		t.Fatal("the reconstruction differs when a checkpoint exists: it did not see the pre-restore state")
	}
}

// TestRecoveryAllocatesOnlyTheReads: an exact recovery decodes the
// shard chunks Storage.Read hands it straight into the solver, so past
// those chunks (MemStorage copies each object once) it allocates
// nothing that scales with the state — from the first recovery of a
// solve on, there being no staging buffer to warm.
func TestRecoveryAllocatesOnlyTheReads(t *testing.T) {
	r := newInPlaceRig(Traditional)
	s := r.solver()
	m := r.manager(t, fti.NewMemStorage(), s)
	for i := 0; i < 8; i++ {
		s.Step()
	}
	info, err := m.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	x0 := make([]float64, r.a.Rows)
	for rec := 1; rec <= 2; rec++ {
		s.Step()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rep, err := m.RecoverTiered(x0)
		runtime.ReadMemStats(&after)
		if err != nil || rep.Used != TierCheckpoint {
			t.Fatalf("recovery %d: %+v, %v; want the checkpoint", rec, rep, err)
		}
		vector := 8 * r.a.Rows
		if extra := int(after.TotalAlloc-before.TotalAlloc) - info.Bytes; extra > vector/2 {
			t.Fatalf("recovery %d allocated %d bytes beyond the %d it read (one vector is %d)",
				rec, extra, info.Bytes, vector)
		}
	}
}
