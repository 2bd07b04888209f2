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

// lossySolvers are the two capture shapes, 12 steps in: CG exposes its
// live x; GMRES is mid-cycle, where X() lags the iterate.
func lossySolvers(t *testing.T) map[string]solver.Checkpointable {
	a, b, _ := cgSystem(t)
	solvers := map[string]solver.Checkpointable{
		"cg":    newCG(t, a, b),
		"gmres": solver.NewGMRES(a, nil, b, nil, 30, solver.SeqSpace{}, solver.Options{RTol: 1e-10}),
	}
	for _, s := range solvers {
		for i := 0; i < 12; i++ {
			s.(solver.Stepper).Step()
		}
	}
	return solvers
}

// TestLossySyncCaptureIsCopyFree: the synchronous lossy save encodes
// the solver's live x (GMRES: the iterate materialized into the
// Manager's one buffer) where it used to encode a fresh copy. The
// stored checkpoint is byte-identical to one saved from a copy, and
// the solver's state is bit-unchanged across Checkpoint.
func TestLossySyncCaptureIsCopyFree(t *testing.T) {
	params := sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4}
	for name, s := range lossySolvers(t) {
		st := fti.NewMemStorage()
		m, err := NewManager(Config{Scheme: Lossy, SZParams: params}, st, s)
		if err != nil {
			t.Fatal(err)
		}
		live, want := append([]float64(nil), s.X()...), iterate(s)
		if _, err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if !sameBits(s.X(), live) || !sameBits(iterate(s), want) {
			t.Fatalf("%s: Checkpoint changed the solver's state", name)
		}

		ref := fti.NewMemStorage()
		snap := &fti.Snapshot{Iteration: s.Iteration(), Vectors: map[string][]float64{"x": want}}
		if _, err := fti.New(ref, fti.SZ{Params: params}).Save(snap); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onlyObject(t, st), onlyObject(t, ref)) {
			t.Fatalf("%s: checkpoint bytes differ from a copy-based capture's", name)
		}

		if name == "gmres" { // the second capture lands in the first one's buffer
			first := &m.xbuf[0]
			s.(solver.Stepper).Step()
			if _, err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if &m.xbuf[0] != first || !sameBits(m.xbuf, iterate(s)) {
				t.Fatal("gmres: the capture buffer was not reused for the new iterate")
			}
		}
	}
}

// gatedSZ holds every encode until the test opens the gate.
type gatedSZ struct {
	fti.SZ
	gate chan struct{}
}

func (g gatedSZ) Encode(x []float64) ([]byte, error) {
	<-g.gate
	return g.SZ.Encode(x)
}

// TestAsyncCaptureOutlivesSolverSteps: what an async checkpoint
// restores is the iterate at the capture, whatever happens to the
// vectors the capture read before the background stage gets to encode:
// the solver steps on, and the Manager's GMRES buffer is overwritten.
// The background stage reads the pipeline's double-buffer copy.
func TestAsyncCaptureOutlivesSolverSteps(t *testing.T) {
	const eb = 1e-4
	for name, s := range lossySolvers(t) {
		enc := gatedSZ{SZ: fti.SZ{Params: sz.Params{Mode: sz.PWRel, ErrorBound: eb}}, gate: make(chan struct{})}
		m, err := NewManager(Config{Scheme: Lossy, Async: true, LossyEncoder: enc}, fti.NewMemStorage(), s)
		if err != nil {
			t.Fatal(err)
		}
		want, at := iterate(s), s.Iteration()
		if _, err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 25; i++ { // GMRES: through the cycle boundary
			s.(solver.Stepper).Step()
		}
		for i := range m.xbuf {
			m.xbuf[i] = math.NaN()
		}
		close(enc.gate)
		if _, err := m.WaitCheckpoint(); err != nil {
			t.Fatal(err)
		}
		if it, err := m.Recover(); err != nil || it != at {
			t.Fatalf("%s: recovered to iteration %d (%v), want %d", name, it, err, at)
		}
		for i, v := range s.X() {
			if d := math.Abs(v - want[i]); !(d <= eb*math.Abs(want[i])*(1+1e-10)) {
				t.Fatalf("%s: restored x[%d] = %g, captured %g", name, i, v, want[i])
			}
		}
	}
}
