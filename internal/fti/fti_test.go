package fti

import (
	"bytes"
	"encoding/binary"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/codec"
	"repro/internal/sparse"
	"repro/internal/sz"
	"repro/internal/vec"
)

func encoders() []Encoder {
	return []Encoder{
		Raw{},
		Lossless{Codec: codec.BlockedFlate{}},
		SZ{Params: sz.Params{Mode: sz.Abs, ErrorBound: 1e-6}},
	}
}

func TestEncoderRoundTrips(t *testing.T) {
	x := sparse.SmoothField(2000, 1)
	for _, e := range encoders() {
		blob, err := e.Encode(nil, x)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		got := make([]float64, len(x))
		if err := e.DecodeInto(got, blob); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if err := e.DecodeInto(make([]float64, len(x)+1), blob); err == nil {
			t.Fatalf("%s: decoded %d values into %d", e.Name(), len(x), len(x)+1)
		}
		// Two shapes, and Blocks says which: the raw image, or one
		// container of the codec Blocks names.
		if lay, err := codec.ParseBlockLayout(codec.Whole(blob), len(blob)); e.Blocks() == nil {
			if len(blob) != 8*len(x) {
				t.Fatalf("%s: no block codec and %d bytes for %d values", e.Name(), len(blob), len(x))
			}
		} else if err != nil || lay.ID != e.Blocks().ID() || lay.N != len(x) {
			t.Fatalf("%s: blob is not a container of its block codec: %+v, %v", e.Name(), lay, err)
		}
		if d := vec.MaxAbsDiff(x, got); d > 1e-6 {
			t.Fatalf("%s: error %g beyond encoder bound", e.Name(), d)
		}
	}
}

// TestRawIsExact holds Raw to its format on both byte-order paths —
// the one copy of the memory image little-endian platforms take and
// the element loop of big-endian ones — over the values an exact
// checkpoint must carry bit for bit: signed zeros and infinities, quiet
// and signalling NaNs with payloads, subnormals and the extremes. Every
// whole-element run of the image (what one shard holds) decodes on its
// own, from any byte alignment.
func TestRawIsExact(t *testing.T) {
	bits := []uint64{
		0, 1 << 63, // ±0
		0x7ff0000000000000, 0xfff0000000000000, // ±Inf
		0x7ff8000000000000, 0x7ff8000000000123, 0xfff8dead0000beef, // quiet NaNs
		0x7ff0000000000001, 0x7ff4000000000abc, 0xfff0000000000777, // signalling NaNs
		1, 0x000fffffffffffff, 0x800fffffffffffff, // subnormals
		0x0010000000000000, math.Float64bits(math.MaxFloat64), math.Float64bits(-math.MaxFloat64),
		math.Float64bits(1.5), math.Float64bits(-math.Pi),
	}
	x := make([]float64, len(bits))
	want := []byte("hdr")
	for i, b := range bits {
		x[i] = math.Float64frombits(b)
		want = binary.LittleEndian.AppendUint64(want, b)
	}
	image := want[3:]
	for _, native := range []bool{true, false} {
		name := map[bool]string{true: "native", false: "portable"}[native]
		t.Run(name, func(t *testing.T) {
			prev := nativeIsRaw
			if native && !prev {
				t.Skip("the memory image is not little-endian on this platform")
			}
			nativeIsRaw = native
			t.Cleanup(func() { nativeIsRaw = prev })

			blob, err := Raw{}.Encode([]byte("hdr"), x)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, want) {
				t.Fatalf("Encode appended\n%x, want\n%x", blob, want)
			}
			shifted := append([]byte{0}, image...)[1:] // off the allocation's alignment
			for i := 0; i <= len(x); i++ {
				for j := i; j <= len(x); j++ {
					got := make([]float64, j-i)
					if err := (Raw{}).DecodeInto(got, shifted[8*i:8*j]); err != nil {
						t.Fatalf("elements [%d, %d): %v", i, j, err)
					}
					for k, v := range got {
						if math.Float64bits(v) != bits[i+k] {
							t.Fatalf("elements [%d, %d): element %d decoded as %#016x, want %#016x", i, j, i+k, math.Float64bits(v), bits[i+k])
						}
					}
				}
			}
			for _, n := range []int{5, len(image) - 8, len(image) + 8} {
				data := append(append([]byte(nil), image...), make([]byte, 8)...)[:n]
				if err := (Raw{}).DecodeInto(make([]float64, len(x)), data); err == nil {
					t.Fatalf("decoded a %d-byte payload into %d elements", n, len(x))
				}
			}
		})
	}
}

func storages(t *testing.T) map[string]Storage {
	t.Helper()
	ds, err := NewDirStorage(filepath.Join(t.TempDir(), "ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Storage{
		"dir": ds,
		"mem": NewMemStorage(),
	}
}

func TestStorageBasics(t *testing.T) {
	for name, s := range storages(t) {
		if err := s.Write("a", []byte{1, 2, 3}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := s.Read("a")
		if err != nil || len(got) != 3 || got[2] != 3 {
			t.Fatalf("%s: read %v %v", name, got, err)
		}
		if err := s.Write("a", []byte{9}); err != nil {
			t.Fatalf("%s: overwrite: %v", name, err)
		}
		got, _ = s.Read("a")
		if len(got) != 1 || got[0] != 9 {
			t.Fatalf("%s: overwrite not visible: %v", name, got)
		}
		names, err := s.List()
		if err != nil || len(names) != 1 || names[0] != "a" {
			t.Fatalf("%s: list %v %v", name, names, err)
		}
		if err := s.Delete("a"); err != nil {
			t.Fatalf("%s: delete: %v", name, err)
		}
		if _, err := s.Read("a"); err == nil {
			t.Fatalf("%s: read after delete should fail", name)
		}
		if err := s.Delete("a"); err != nil {
			t.Fatalf("%s: double delete should be fine: %v", name, err)
		}
	}
}

func TestDirStorageRejectsPathEscape(t *testing.T) {
	ds, err := NewDirStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "../x", "a/b", "..", `a\b`} {
		if err := ds.Write(bad, []byte{1}); err == nil {
			t.Fatalf("name %q should be rejected", bad)
		}
	}
}

func TestSnapshotSaveRestore(t *testing.T) {
	for name, st := range storages(t) {
		c := New(st, Raw{})
		x := sparse.SmoothField(500, 2)
		s := &Snapshot{
			Iteration: 42,
			Scalars:   map[string]float64{"rho": 3.5},
			Vectors:   map[string][]float64{"x": x},
		}
		info, err := c.Save(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if info.RawBytes != 8*500+8 {
			t.Fatalf("%s: RawBytes = %d", name, info.RawBytes)
		}
		got, _, err := c.Restore(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Iteration != 42 || got.Scalars["rho"] != 3.5 {
			t.Fatalf("%s: restored %+v", name, got)
		}
		if d := vec.MaxAbsDiff(x, got.Vectors["x"]); d != 0 {
			t.Fatalf("%s: vector corrupted by %g", name, d)
		}
	}
}

func TestRestoreNewestCheckpoint(t *testing.T) {
	c := New(NewMemStorage(), Raw{})
	for i := 1; i <= 3; i++ {
		_, err := c.Save(&Snapshot{Iteration: i * 10})
		if err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := c.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iteration != 30 {
		t.Fatalf("restored iteration %d, want 30 (newest)", got.Iteration)
	}
}

// TestNewResumesSequence: a Checkpointer created over pre-existing
// storage (the restart-after-failure path) must extend the checkpoint
// series, not silently overwrite ckpt-000000000001.
func TestNewResumesSequence(t *testing.T) {
	st := NewMemStorage()
	c1 := New(st, Raw{})
	for i := 1; i <= 3; i++ {
		if _, err := c1.Save(&Snapshot{Iteration: i * 10}); err != nil {
			t.Fatal(err)
		}
	}
	// keep=2 leaves ckpt-2 and ckpt-3.
	before, _ := st.Read(ckptName(3))
	saved := append([]byte(nil), before...)

	c2 := New(st, Raw{})
	if c2.LatestSeq() != 3 {
		t.Fatalf("restarted Checkpointer starts at seq %d, want 3", c2.LatestSeq())
	}
	info, err := c2.Save(&Snapshot{Iteration: 40})
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 4 {
		t.Fatalf("post-restart save got seq %d, want 4", info.Seq)
	}
	after, err := st.Read(ckptName(3))
	if err != nil {
		t.Fatalf("pre-existing checkpoint vanished: %v", err)
	}
	if string(saved) != string(after) {
		t.Fatal("post-restart save overwrote a pre-existing checkpoint")
	}
	got, _, err := c2.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iteration != 40 {
		t.Fatalf("restored iteration %d, want 40", got.Iteration)
	}
}

// TestRestoreResyncsSequence: if storage advanced behind this
// Checkpointer's back (another writer, a recovered run), Restore must
// re-sync the counter so the next save does not overwrite survivors.
func TestRestoreResyncsSequence(t *testing.T) {
	st := NewMemStorage()
	c1 := New(st, Raw{})
	if _, err := c1.Save(&Snapshot{Iteration: 10}); err != nil {
		t.Fatal(err)
	}
	c2 := New(st, Raw{}) // sees seq 1
	for i := 2; i <= 3; i++ {
		if _, err := c1.Save(&Snapshot{Iteration: i * 10}); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := c2.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iteration != 30 {
		t.Fatalf("restored iteration %d, want 30", got.Iteration)
	}
	if c2.LatestSeq() != 3 {
		t.Fatalf("seq after Restore = %d, want 3", c2.LatestSeq())
	}
	if info, err := c2.Save(&Snapshot{Iteration: 40}); err != nil || info.Seq != 4 {
		t.Fatalf("save after resync: %+v %v, want seq 4", info, err)
	}
}

func TestSetKeepValidatesAndApplies(t *testing.T) {
	st := NewMemStorage()
	c := New(st, Raw{})
	if err := c.SetKeep(0); err == nil {
		t.Fatal("SetKeep(0) must be rejected: recovery needs a target")
	}
	if err := c.SetKeep(-2); err == nil {
		t.Fatal("SetKeep(-2) must be rejected")
	}
	if err := c.SetKeep(3); err != nil {
		t.Fatal(err)
	}
	if c.Keep() != 3 {
		t.Fatalf("Keep() = %d", c.Keep())
	}
	for i := 0; i < 6; i++ {
		if _, err := c.Save(&Snapshot{Iteration: i}); err != nil {
			t.Fatal(err)
		}
	}
	names, _ := st.List()
	if len(names) != 3 {
		t.Fatalf("retained %d checkpoints with keep=3: %v", len(names), names)
	}
}

func TestRetentionKeepsTwo(t *testing.T) {
	st := NewMemStorage()
	c := New(st, Raw{})
	for i := 0; i < 5; i++ {
		if _, err := c.Save(&Snapshot{Iteration: i}); err != nil {
			t.Fatal(err)
		}
	}
	names, _ := st.List()
	if len(names) != 2 {
		t.Fatalf("retained %d checkpoints, want 2: %v", len(names), names)
	}
}

func TestCorruptCheckpointFallsBack(t *testing.T) {
	st := NewMemStorage()
	c := New(st, Raw{})
	if _, err := c.Save(&Snapshot{Iteration: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Save(&Snapshot{Iteration: 2}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the newest checkpoint.
	names, _ := st.List()
	newest := names[len(names)-1]
	data, _ := st.Read(newest)
	data[len(data)/2] ^= 0xff
	if err := st.Write(newest, data); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iteration != 1 {
		t.Fatalf("fallback restored iteration %d, want 1", got.Iteration)
	}
}

func TestRestoreNoCheckpoints(t *testing.T) {
	c := New(NewMemStorage(), Raw{})
	if _, _, err := c.Restore(nil); err == nil {
		t.Fatal("expected error with no checkpoints")
	}
}

func TestEncoderMismatchRejected(t *testing.T) {
	st := NewMemStorage()
	c := New(st, Raw{})
	if _, err := c.Save(&Snapshot{Iteration: 5}); err != nil {
		t.Fatal(err)
	}
	c2 := New(st, SZ{Params: sz.Params{Mode: sz.Abs, ErrorBound: 1e-4}})
	c2.seq = c.seq
	if _, _, err := c2.Restore(nil); err == nil {
		t.Fatal("expected encoder-mismatch error")
	}
}

func TestProtectCheckpointRecover(t *testing.T) {
	// The paper's workflow (§4.2): register variables, snapshot
	// periodically, recover after a failure.
	st := NewMemStorage()
	c := New(st, Raw{})
	x := sparse.SmoothField(200, 4)
	it := 7
	rho := 2.25
	c.Protect("x", &x)
	c.ProtectInt("iteration", &it)
	c.ProtectFloat("rho", &rho)

	info, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if info.Seq != 1 {
		t.Fatalf("Seq = %d", info.Seq)
	}

	// Simulate the failure: trash the live state.
	saved := append([]float64(nil), x...)
	for i := range x {
		x[i] = -1
	}
	it = 0
	rho = 0

	if err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	if it != 7 || rho != 2.25 {
		t.Fatalf("recovered it=%d rho=%v", it, rho)
	}
	if d := vec.MaxAbsDiff(saved, x); d != 0 {
		t.Fatalf("recovered x differs by %g", d)
	}
}

func TestLossyCheckpointRespectsBound(t *testing.T) {
	st := NewMemStorage()
	const eb = 1e-4
	c := New(st, SZ{Params: sz.Params{Mode: sz.PWRel, ErrorBound: eb}})
	x := sparse.SmoothField(5000, 6)
	for i := range x {
		x[i] += 3 // keep away from zero
	}
	orig := append([]float64(nil), x...)
	c.Protect("x", &x)
	info, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if info.CompressionRatio < 5 {
		t.Fatalf("lossy checkpoint ratio %.1f too low", info.CompressionRatio)
	}
	for i := range x {
		x[i] = 0
	}
	if err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	var d float64 // max |x_i − x'_i| / |x_i| over x_i ≠ 0, the paper's pointwise bound
	for i, v := range orig {
		if v != 0 {
			d = max(d, math.Abs(v-x[i])/math.Abs(v))
		}
	}
	if d > eb*(1+1e-10) {
		t.Fatalf("recovered x violates pointwise bound: %g > %g", d, eb)
	}
}

func TestStatics(t *testing.T) {
	st := NewMemStorage()
	c := New(st, Raw{})
	a := sparse.Poisson2D(4)
	if err := c.WriteStatic("A", a.Serialize()); err != nil {
		t.Fatal(err)
	}
	blob, err := c.ReadStatic("A")
	if err != nil {
		t.Fatal(err)
	}
	got, err := sparse.Deserialize(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != a.Rows || got.NNZ() != a.NNZ() {
		t.Fatal("static matrix corrupted")
	}
	if _, err := c.ReadStatic("missing"); err == nil {
		t.Fatal("expected error for missing static")
	}
}

func TestSetEncoderAdaptiveBound(t *testing.T) {
	// Theorem-3 style: tighten the bound between checkpoints.
	st := NewMemStorage()
	c := New(st, SZ{Params: sz.Params{Mode: sz.Abs, ErrorBound: 1e-2}})
	x := sparse.SmoothField(3000, 8)
	c.Protect("x", &x)
	infoLoose, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	c.SetEncoder(SZ{Params: sz.Params{Mode: sz.Abs, ErrorBound: 1e-10}})
	infoTight, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if infoTight.Bytes <= infoLoose.Bytes {
		t.Fatalf("tighter bound should cost more: %d vs %d", infoTight.Bytes, infoLoose.Bytes)
	}
	if err := c.Recover(); err != nil {
		t.Fatal(err)
	}
}

// TestEncodeBufferReuseKeepsCheckpointsIndependent: the Checkpointer
// reuses its encode buffer across checkpoints; earlier checkpoints in
// storage must not be clobbered by later ones, and recovery from an
// older retained checkpoint must still decode.
func TestEncodeBufferReuseKeepsCheckpoints(t *testing.T) {
	store := NewMemStorage()
	x := sparse.SmoothField(5000, 9)
	it := 0
	c := New(store, Raw{})
	c.Protect("x", &x)
	c.ProtectInt("iteration", &it)

	// First checkpoint.
	it = 1
	if _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	firstBytes, err := store.Read(ckptName(1))
	if err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), firstBytes...)

	// Second checkpoint with different content reuses the buffer.
	for i := range x {
		x[i] = -x[i]
	}
	it = 2
	if _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	afterBytes, err := store.Read(ckptName(1))
	if err != nil {
		t.Fatal(err)
	}
	if string(saved) != string(afterBytes) {
		t.Fatal("buffer reuse corrupted an already-stored checkpoint")
	}

	// Drop the newest; recovery must reproduce checkpoint 1 exactly.
	if err := c.DropLatest(); err != nil {
		t.Fatal(err)
	}
	it = 0
	for i := range x {
		x[i] = 0
	}
	if err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	if it != 1 {
		t.Fatalf("recovered iteration %d, want 1", it)
	}
	want := sparse.SmoothField(5000, 9)
	if d := vec.MaxAbsDiff(want, x); d != 0 {
		t.Fatalf("recovered vector differs from checkpoint 1 by %g", d)
	}
}

// LatestSeq returns the sequence number of the last written
// checkpoint, 0 if none.
func (c *Checkpointer) LatestSeq() int { return c.seq }

// Keep reports the current retention window.
func (c *Checkpointer) Keep() int { return c.keep }
