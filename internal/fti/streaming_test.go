package fti

import (
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/fti/shard"
	"repro/internal/sparse"
	"repro/internal/sz"
)

// streamState builds a smooth positive state; at the sizes the tests
// use, a container of many blocks.
func streamState(n int, seed int64) []float64 {
	x := sparse.SmoothField(n, seed)
	for i := range x {
		x[i] += 2.5
	}
	return x
}

// streamSnap is a representative snapshot: one large vector (many
// blocks), one small vector (one block), scalars, iteration.
func streamSnap(it int, big, small []float64) *Snapshot {
	return &Snapshot{
		Iteration: it,
		Scalars:   map[string]float64{"rho": 0.125, "int:k": 7},
		Vectors:   map[string][]float64{"x": big, "p": small},
	}
}

// snapshotsBitwiseEqual fails the test unless a and b match exactly.
func snapshotsBitwiseEqual(t *testing.T, label string, a, b *Snapshot) {
	t.Helper()
	if a.Iteration != b.Iteration {
		t.Fatalf("%s: iteration %d != %d", label, a.Iteration, b.Iteration)
	}
	if len(a.Scalars) != len(b.Scalars) || len(a.Vectors) != len(b.Vectors) {
		t.Fatalf("%s: shape mismatch", label)
	}
	for k, v := range a.Scalars {
		if w, ok := b.Scalars[k]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			t.Fatalf("%s: scalar %q %v != %v", label, k, v, b.Scalars[k])
		}
	}
	for k, v := range a.Vectors {
		w, ok := b.Vectors[k]
		if !ok || len(v) != len(w) {
			t.Fatalf("%s: vector %q shape mismatch", label, k)
		}
		for i := range v {
			if math.Float64bits(v[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s: vector %q index %d: %g != %g", label, k, i, v[i], w[i])
			}
		}
	}
}

// streamingEncoders is the encoder matrix for the equivalence tests:
// every codec ID of the container at several block sizes, and the raw
// image.
func streamingEncoders() []Encoder {
	return []Encoder{
		SZ{Params: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4, BlockSize: 4096}},
		SZ{Params: sz.Params{Mode: sz.Abs, ErrorBound: 1e-5}},
		Raw{},
		Lossless{Codec: codec.BlockedFlate{}},
		Lossless{Codec: codec.BlockedFlate{BlockElems: 5000}},
	}
}

// TestStreamingRestoreMatchesReassembled: across every encoder and
// layout, the streaming restore must produce snapshots bitwise
// identical to the reassemble-then-decode reference.
func TestStreamingRestoreMatchesReassembled(t *testing.T) {
	big := streamState(60_000, 1)
	small := streamState(500, 2)
	for _, enc := range streamingEncoders() {
		for _, shards := range []int{1, 3, 8} {
			st := NewMemStorage()
			c := New(st, enc)
			if err := c.SetSharding(shards, 2); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Save(streamSnap(42, big, small)); err != nil {
				t.Fatalf("%s shards=%d: %v", enc.Name(), shards, err)
			}
			legacy, err := c.RestoreReassembled()
			if err != nil {
				t.Fatalf("%s shards=%d legacy: %v", enc.Name(), shards, err)
			}
			streaming, _, err := c.Restore(nil)
			if err != nil {
				t.Fatalf("%s shards=%d streaming: %v", enc.Name(), shards, err)
			}
			snapshotsBitwiseEqual(t, enc.Name(), legacy, streaming)
		}
	}
}

// TestStreamingRestoreMatchesReassembledAsync extends the matrix to
// checkpoints written by the asynchronous pipeline: sharded/monolithic
// × sync/async writers must all restore bitwise identically through
// both decode paths.
func TestStreamingRestoreMatchesReassembledAsync(t *testing.T) {
	big := streamState(60_000, 3)
	small := streamState(500, 4)
	enc := SZ{Params: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4, BlockSize: 4096}}
	for _, shards := range []int{1, 8} {
		for _, async := range []bool{false, true} {
			st := NewMemStorage()
			c := New(st, enc)
			if err := c.SetSharding(shards, 2); err != nil {
				t.Fatal(err)
			}
			if async {
				ac := NewAsync(c)
				if _, err := ac.SaveAsync(streamSnap(42, big, small)); err != nil {
					t.Fatal(err)
				}
				if err := ac.Flush(); err != nil {
					t.Fatal(err)
				}
			} else if _, err := c.Save(streamSnap(42, big, small)); err != nil {
				t.Fatal(err)
			}
			legacy, err := c.RestoreReassembled()
			if err != nil {
				t.Fatalf("shards=%d async=%v legacy: %v", shards, async, err)
			}
			streaming, _, err := c.Restore(nil)
			if err != nil {
				t.Fatalf("shards=%d async=%v streaming: %v", shards, async, err)
			}
			snapshotsBitwiseEqual(t, "async-matrix", legacy, streaming)
		}
	}
}

// TestRestoreIntoDecodesInPlace: a target with matching name and
// length must receive the decode in place (the snapshot aliases it);
// mismatched lengths must get fresh allocations.
func TestRestoreIntoDecodesInPlace(t *testing.T) {
	big := streamState(60_000, 5)
	small := streamState(500, 6)
	enc := SZ{Params: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4, BlockSize: 4096}}
	for _, shards := range []int{1, 8} {
		st := NewMemStorage()
		c := New(st, enc)
		if err := c.SetSharding(shards, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Save(streamSnap(7, big, small)); err != nil {
			t.Fatal(err)
		}
		want, err := c.RestoreReassembled()
		if err != nil {
			t.Fatal(err)
		}
		tx := make([]float64, len(big))
		tp := make([]float64, len(small)+1) // length mismatch: must not be used
		s, _, err := c.Restore(map[string][]float64{"x": tx, "p": tp})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if &s.Vectors["x"][0] != &tx[0] {
			t.Fatalf("shards=%d: x not decoded into the provided target", shards)
		}
		if len(s.Vectors["p"]) != len(small) || &s.Vectors["p"][0] == &tp[0] {
			t.Fatalf("shards=%d: mismatched-length target misused", shards)
		}
		snapshotsBitwiseEqual(t, "restore-into", want, s)
	}
}

// TestRecoverInPlaceAndLengthMismatch: Recover must decode into the
// registered slices without replacing them when lengths match, and on
// a length change must install a fresh copy that does not alias the
// restored snapshot's arrays (the retained-Snapshot safety fix).
func TestRecoverInPlaceAndLengthMismatch(t *testing.T) {
	big := streamState(60_000, 7)
	small := streamState(500, 8)
	enc := SZ{Params: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4, BlockSize: 4096}}
	st := NewMemStorage()
	c := New(st, enc)
	if err := c.SetSharding(8, 2); err != nil {
		t.Fatal(err)
	}

	x := append([]float64(nil), big...)
	p := append([]float64(nil), small...)
	it, k := 0, 0
	rho := 0.0
	c.Protect("x", &x)
	c.Protect("p", &p)
	c.ProtectInt("iteration", &it)
	c.ProtectInt("k", &k)
	c.ProtectFloat("rho", &rho)
	it, k, rho = 42, 7, 0.125
	if _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want, err := c.RestoreReassembled()
	if err != nil {
		t.Fatal(err)
	}

	// Matching lengths: decode lands in the registered backing arrays.
	it, k, rho = 0, 0, 0
	for i := range x {
		x[i] = -1
	}
	x0, p0 := &x[0], &p[0]
	if err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	if &x[0] != x0 || &p[0] != p0 {
		t.Fatal("Recover replaced registered slices despite matching lengths")
	}
	if it != 42 || k != 7 || rho != 0.125 {
		t.Fatalf("scalars not recovered: it=%d k=%d rho=%v", it, k, rho)
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(want.Vectors["x"][i]) {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want.Vectors["x"][i])
		}
	}

	// Length mismatch: a fresh slice is installed, and mutating it must
	// not reach the snapshot a later Restore returns (no aliasing).
	x = make([]float64, 10)
	if err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	if len(x) != len(big) {
		t.Fatalf("recovered x has %d elements, want %d", len(x), len(big))
	}
	x[0] = math.Inf(1)
	s2, _, err := c.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(s2.Vectors["x"][0], 1) {
		t.Fatal("mutating the recovered slice reached a restored snapshot (aliasing)")
	}
}

// corrupt flips a byte of a stored object in place.
func corruptObject(t *testing.T, st *MemStorage, name string, flip int) {
	t.Helper()
	data, err := st.Read(name)
	if err != nil {
		t.Fatal(err)
	}
	data[flip%len(data)] ^= 0xff
	if err := st.Write(name, data); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingFallbackMidStream: a corrupt or missing shard detected
// while streaming — possibly after blocks of the bad checkpoint were
// already decoded into the registered vectors — must land recovery on
// the previous committed checkpoint, for sync- and async-written
// series alike.
func TestStreamingFallbackMidStream(t *testing.T) {
	enc := SZ{Params: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4, BlockSize: 4096}}
	gen1 := streamState(60_000, 9)
	gen2 := streamState(60_000, 10)
	small := streamState(500, 11)

	for _, async := range []bool{false, true} {
		for _, breakIt := range []string{"corrupt-shard", "missing-shard", "corrupt-manifest"} {
			st := NewMemStorage()
			c := New(st, enc)
			if err := c.SetSharding(6, 2); err != nil {
				t.Fatal(err)
			}
			save := func(it int, x []float64) {
				t.Helper()
				if async {
					ac := NewAsync(c)
					if _, err := ac.SaveAsync(streamSnap(it, x, small)); err != nil {
						t.Fatal(err)
					}
					if err := ac.Flush(); err != nil {
						t.Fatal(err)
					}
				} else if _, err := c.Save(streamSnap(it, x, small)); err != nil {
					t.Fatal(err)
				}
			}
			save(10, gen1)
			save(20, gen2)
			want, err := c.RestoreReassembled() // gen2, while still intact
			if err != nil {
				t.Fatal(err)
			}
			switch breakIt {
			case "corrupt-shard":
				corruptObject(t, st, "ckpt-000000000002.s00003", 100)
			case "missing-shard":
				if err := st.Delete("ckpt-000000000002.s00001"); err != nil {
					t.Fatal(err)
				}
			case "corrupt-manifest":
				corruptObject(t, st, "ckpt-000000000002", 9)
			}

			// Decode into live targets, as Recover does: partial decode
			// of the bad generation must be fully overwritten by the
			// fallback to checkpoint 1.
			x := append([]float64(nil), want.Vectors["x"]...)
			p := append([]float64(nil), want.Vectors["p"]...)
			it := 0
			c.Protect("x", &x)
			c.Protect("p", &p)
			c.ProtectInt("iteration", &it)
			if err := c.Recover(); err != nil {
				t.Fatalf("async=%v %s: %v", async, breakIt, err)
			}
			if it != 10 {
				t.Fatalf("async=%v %s: recovered iteration %d, want fallback to 10", async, breakIt, it)
			}
			prev, err := c.RestoreReassembled() // now resolves to checkpoint 1
			if err != nil {
				t.Fatal(err)
			}
			if prev.Iteration != 10 {
				t.Fatalf("fallback target is iteration %d", prev.Iteration)
			}
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(prev.Vectors["x"][i]) {
					t.Fatalf("async=%v %s: x[%d] not from the fallback checkpoint", async, breakIt, i)
				}
			}
		}
	}
}

// TestStreamingUnalignedCuts: shard cuts that ignore block boundaries
// (no aligned offsets handed to the writer) force blocks to straddle
// shards; the stitched-block path must still restore bitwise
// identically.
func TestStreamingUnalignedCuts(t *testing.T) {
	big := streamState(60_000, 12)
	enc := SZ{Params: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4, BlockSize: 4096}}
	st := NewMemStorage()
	c := New(st, enc)

	// Encode the snapshot exactly as Save would, then shard it with
	// nil alignment so cuts fall mid-block.
	payload, _, err := encodeSnapshot(streamSnap(5, big, big[:500]), enc, nil, false, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.seq = 1
	if _, err := shard.Write(st, ckptName(1), enc.Name(), payload, nil, shard.Options{Shards: 7}); err != nil {
		t.Fatal(err)
	}
	legacy, err := c.RestoreReassembled()
	if err != nil {
		t.Fatal(err)
	}
	streaming, _, err := c.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	snapshotsBitwiseEqual(t, "unaligned", legacy, streaming)
}
