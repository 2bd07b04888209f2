package core

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/fti"
	"repro/internal/solver"
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
// stage gets to encode them: the solver steps on, and the Manager's
// GMRES buffer is overwritten. The background stage reads the
// pipeline's double-buffer copy.
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
			for i := range m.xbuf {
				m.xbuf[i] = math.NaN()
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
