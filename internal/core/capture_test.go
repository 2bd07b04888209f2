package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/fti"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/sz"
)

func sameBits(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// onlyObject returns the single object a store holds.
func onlyObject(t *testing.T, st *fti.MemStorage) []byte {
	t.Helper()
	names, err := st.List()
	if err != nil || len(names) != 1 {
		t.Fatalf("store holds %v (%v), want one checkpoint", names, err)
	}
	data, err := st.Read(names[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// iterate returns a copy of the solver's up-to-the-step solution.
func iterate(s solver.Checkpointable) []float64 {
	if g, ok := s.(*solver.GMRES); ok {
		return g.CurrentX()
	}
	return append([]float64(nil), s.X()...)
}

// captureSolvers are the two capture shapes, 12 steps in: CG exposes its
// live x (and p, ρ); GMRES is mid-cycle, where X() lags the iterate.
func captureSolvers(t *testing.T) map[string]solver.Checkpointable {
	a, b, _ := cgSystem(t)
	solvers := map[string]solver.Checkpointable{
		"cg":    newCG(t, a, b),
		"gmres": solver.NewGMRES(a, nil, b, nil, 30, solver.SeqSpace{}, solver.Options{RTol: 1e-10}),
	}
	for _, s := range solvers {
		for i := 0; i < 12; i++ {
			s.Step()
		}
	}
	return solvers
}

// frozen is a clone-based capture: what the scheme saves of s, copied.
func frozen(s solver.Checkpointable, scheme Scheme) *fti.Snapshot {
	st := s.DynamicView().Clone()
	st.Vectors["x"] = iterate(s)
	if scheme == Lossy {
		return &fti.Snapshot{Iteration: st.Iteration, Vectors: map[string][]float64{"x": st.Vectors["x"]}}
	}
	return &fti.Snapshot{Iteration: st.Iteration, Scalars: st.Scalars, Vectors: st.Vectors}
}

// sameDynamic reports whether two dynamic states agree bit for bit.
func sameDynamic(a, b solver.DynamicState) bool {
	if a.Iteration != b.Iteration || len(a.Scalars) != len(b.Scalars) || len(a.Vectors) != len(b.Vectors) {
		return false
	}
	for k, v := range a.Scalars {
		if w, ok := b.Scalars[k]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	for k, v := range a.Vectors {
		if !sameBits(v, b.Vectors[k]) {
			return false
		}
	}
	return true
}

// syncCaptureIsCopyFree: a synchronous save encodes the solver's live
// vectors (GMRES: the iterate materialized into the Manager's one
// buffer) where it used to encode a fresh copy. The stored checkpoint
// is byte-identical to one saved from a copy, and the solver's state is
// bit-unchanged across Checkpoint.
func syncCaptureIsCopyFree(t *testing.T, scheme Scheme) {
	params := sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4}
	for name, s := range captureSolvers(t) {
		st := fti.NewMemStorage()
		m, err := NewManager(Config{Scheme: scheme, SZParams: params}, st, s)
		if err != nil {
			t.Fatal(err)
		}
		live, want := s.DynamicView().Clone(), iterate(s)
		if _, err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if !sameDynamic(s.DynamicView(), live) || !sameBits(iterate(s), want) {
			t.Fatalf("%v/%s: Checkpoint changed the solver's state", scheme, name)
		}

		ref := fti.NewMemStorage()
		if _, err := fti.New(ref, m.encoder()).Save(frozen(s, scheme)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onlyObject(t, st), onlyObject(t, ref)) {
			t.Fatalf("%v/%s: checkpoint bytes differ from a copy-based capture's", scheme, name)
		}

		if name == "gmres" { // the second capture lands in the first one's buffer
			first := &m.xbuf[0]
			s.Step()
			if _, err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if &m.xbuf[0] != first || !sameBits(m.xbuf, iterate(s)) {
				t.Fatalf("%v/gmres: the capture buffer was not reused for the new iterate", scheme)
			}
		}
	}
}

func TestLossySyncCaptureIsCopyFree(t *testing.T) { syncCaptureIsCopyFree(t, Lossy) }

func TestExactSyncCaptureIsCopyFree(t *testing.T) {
	syncCaptureIsCopyFree(t, Traditional)
	syncCaptureIsCopyFree(t, Lossless)
}

// gateAudit holds every save at its first step, before any vector is
// encoded, until the test opens the gate; it audits nothing.
type gateAudit struct{ gate chan struct{} }

func (g gateAudit) SampleSave(int, int) bool                                     { <-g.gate; return false }
func (gateAudit) ObserveVector(int, int, string, []float64, []byte, fti.Encoder) {}

// TestAsyncCaptureOutlivesSolverSteps: what an async checkpoint
// restores is the state at the capture, under every scheme, whatever
// happens to the vectors the capture aliased before the background
// stage gets to encode them: the solver steps on, GMRES through a cycle
// end that rewrites the x its capture read. The background stage reads
// the pipeline's double-buffer copy.
func TestAsyncCaptureOutlivesSolverSteps(t *testing.T) {
	const eb = 1e-4
	for _, scheme := range []Scheme{Traditional, Lossless, Lossy} {
		for name, s := range captureSolvers(t) {
			m, err := NewManager(Config{Scheme: scheme, Async: true, SZParams: sz.Params{Mode: sz.PWRel, ErrorBound: eb}},
				fti.NewMemStorage(), s)
			if err != nil {
				t.Fatal(err)
			}
			gate := make(chan struct{})
			m.Checkpointer().SetSaveAudit(gateAudit{gate})
			want := frozen(s, scheme)
			if _, err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 25; i++ { // GMRES: through the cycle boundary
				s.Step()
			}
			close(gate)
			if _, err := m.WaitCheckpoint(); err != nil {
				t.Fatal(err)
			}
			if it := recoverCheckpoint(t, m); it != want.Iteration {
				t.Fatalf("%v/%s: recovered to iteration %d, want %d", scheme, name, it, want.Iteration)
			}
			got := s.DynamicView()
			if scheme != Lossy {
				if !sameDynamic(got, solver.DynamicState{Iteration: want.Iteration, Scalars: want.Scalars, Vectors: want.Vectors}) {
					t.Fatalf("%v/%s: restored state is not the captured one", scheme, name)
				}
				continue
			}
			for i, v := range got.Vectors["x"] {
				w := want.Vectors["x"][i]
				if d := math.Abs(v - w); !(d <= eb*math.Abs(w)*(1+1e-10)) {
					t.Fatalf("lossy/%s: restored x[%d] = %g, captured %g", name, i, v, w)
				}
			}
		}
	}
}

// TestAsyncGMRESSavesMatchSync: an async GMRES save hands the pipeline
// the cycle — boundary x, basis, coefficients — and the background
// goroutine materializes the iterate while the solver steps on. Twin
// solvers in lockstep, one saved async and one sync, must leave stores
// that are equal object for object, byte for byte: saves at j = 0, 10
// and 20, one in flight across a cycle end, one in flight when the
// solve converges mid-cycle, a RecoverTiered while one is in flight,
// and at restart lengths 2 and 3 a save before every step, so that
// cycle ends race the background goroutine and the race detector sees
// the hold.
func TestAsyncGMRESSavesMatchSync(t *testing.T) {
	a := sparse.Poisson3D(12)
	b := sparse.RHSForSolution(a, sparse.SmoothField(a.Rows, 21))
	// GMRES(30) restarts at the recovery and converges 19 steps into the
	// cycle after the one the recovery begins.
	const recoverAt = 20
	for _, scheme := range []Scheme{Traditional, Lossless, Lossy} {
		for _, k := range []int{30, 3, 2} {
			t.Run(fmt.Sprintf("%v/k%d", scheme, k), func(t *testing.T) {
				saveAt := func(step int) bool {
					return k < 30 || step%10 == 0 || (step-recoverAt)%k == k-1 || step >= recoverAt+k+10
				}
				cfg := Config{Scheme: scheme, SZParams: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4}}
				var twins [2]*solver.GMRES
				for i := range twins {
					twins[i] = solver.NewGMRES(a, nil, b, nil, k, solver.SeqSpace{}, solver.Options{RTol: 1e-10})
				}
				stores := [2]*fti.MemStorage{fti.NewMemStorage(), fti.NewMemStorage()}
				var ms [2]*Manager
				for i := range ms {
					cfg.Async = i == 0
					m, err := NewManager(cfg, stores[i], twins[i])
					if err != nil {
						t.Fatal(err)
					}
					if err := m.Checkpointer().SetKeep(1 << 20); err != nil {
						t.Fatal(err)
					}
					ms[i] = m
				}
				for step := 0; ; step++ {
					var rnorm [2]float64
					for i, m := range ms {
						if saveAt(step) {
							if _, err := m.Checkpoint(); err != nil {
								t.Fatal(err)
							}
						}
						if step == recoverAt {
							if it := recoverCheckpoint(t, m); it != twins[i].Iteration() {
								t.Fatalf("step %d: recovered to iteration %d, want the save just taken", step, it)
							}
						}
						rnorm[i] = twins[i].Step()
					}
					if !sameBits(twins[0].CurrentX(), twins[1].CurrentX()) {
						t.Fatalf("step %d: the twins' iterates differ", step)
					}
					if twins[0].Converged(rnorm[0]) {
						if k == 30 && (step-recoverAt+1)%k == 0 {
							t.Fatalf("GMRES(30) converged at a cycle end (step %d); the test wants it mid-cycle", step)
						}
						break
					}
				}
				if _, err := ms[0].WaitCheckpoint(); err != nil {
					t.Fatal(err)
				}
				names, err := stores[1].List()
				if err != nil {
					t.Fatal(err)
				}
				if got, _ := stores[0].List(); !slices.Equal(got, names) {
					t.Fatalf("async store holds %v, sync store %v", got, names)
				}
				for _, name := range names {
					got, _ := stores[0].Read(name)
					want, _ := stores[1].Read(name)
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: the async save's bytes differ from the sync save's", name)
					}
				}
			})
		}
	}
}
