package fti

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/fti/shard"
	"repro/internal/sparse"
)

// allocatedBytes reports the heap bytes allocated while f runs.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestEncodeAppends: Encode and EncodeStats extend dst as append does —
// what was in it stays, whether or not it had room — and what they
// append is what they produce from an empty dst, for all four encoders.
func TestEncodeAppends(t *testing.T) {
	x := sparse.SmoothField(2000, 1)
	prefix := []byte("what the payload already holds")
	for _, e := range encoders() {
		alone, err := e.Encode(nil, x)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		for _, room := range []int{0, 64, len(alone) + 64} { // must grow, grows mid-blob, fits
			dst := append(make([]byte, 0, len(prefix)+room), prefix...)
			out, err := e.Encode(dst, x)
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			if !bytes.Equal(dst, prefix) || !bytes.Equal(out[:len(prefix)], prefix) {
				t.Fatalf("%s room=%d: Encode changed what dst held", e.Name(), room)
			}
			if !bytes.Equal(out[len(prefix):], alone) {
				t.Fatalf("%s room=%d: appended bytes differ from Encode(nil, x)", e.Name(), room)
			}
			out, st, err := e.(StatsEncoder).EncodeStats(dst, x)
			if err != nil || st.Elements != len(x) {
				t.Fatalf("%s: EncodeStats: %d elements, %v", e.Name(), st.Elements, err)
			}
			if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], alone) {
				t.Fatalf("%s room=%d: EncodeStats is not prefix + Encode's bytes", e.Name(), room)
			}
		}
	}
}

// discardStorage takes writes and keeps nothing, so a save's own
// allocations can be counted.
type discardStorage struct{}

func (discardStorage) Write(string, []byte) error  { return nil }
func (discardStorage) Read(string) ([]byte, error) { return nil, nil }
func (discardStorage) Delete(string) error         { return nil }
func (discardStorage) List() ([]string, error)     { return nil, nil }

// TestRawSaveAllocatesNoPayload: after the first save sized the
// payload buffer, a synchronous raw save stores the vectors straight
// into it — no blob per vector, nothing that scales with the state —
// monolithic and sharded.
func TestRawSaveAllocatesNoPayload(t *testing.T) {
	snap := streamSnap(7, streamState(40_000, 1), streamState(40_000, 2))
	const payload = 2 * 8 * 40_000
	for _, shards := range []int{1, 8} {
		c := New(discardStorage{}, Raw{})
		if err := c.SetSharding(shards, 2); err != nil {
			t.Fatal(err)
		}
		save := func() {
			if _, err := c.Save(snap); err != nil {
				t.Fatal(err)
			}
		}
		save()
		var total uint64
		allocs := testing.AllocsPerRun(10, func() { total += allocatedBytes(save) })
		if perSave := total / 11; perSave > payload/16 {
			t.Fatalf("shards=%d: a steady-state raw save allocates %d bytes (%v objects) for a %d-byte payload",
				shards, perSave, allocs, payload)
		}
	}
}

// rawBits fills a vector with arbitrary bit patterns — NaNs with
// payloads, infinities, denormals — and both zeros.
func rawBits(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Float64frombits(rng.Uint64())
	}
	x[0], x[n/2], x[n-1] = math.Copysign(0, -1), 0, math.Float64frombits(0x7ff0000000000001)
	return x
}

// writeEvenShards stores snap as checkpoint 1 of c's storage in n
// shards cut evenly, ignoring vector starts, and returns where in each
// raw blob the cuts fell, modulo 8.
func writeEvenShards(t *testing.T, c *Checkpointer, snap *Snapshot, n int) map[int]bool {
	t.Helper()
	payload, _, _, starts, err := encodeSnapshot(snap, Raw{}, nil, true, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.seq = 1
	if _, err := shard.Write(c.storage, ckptName(1), "raw", payload, nil, shard.Options{Shards: n}); err != nil {
		t.Fatal(err)
	}
	cutAt := map[int]bool{}
	for _, r := range shard.Split(len(payload), n, nil)[1:] {
		for i, name := range slices.Sorted(maps.Keys(snap.Vectors)) {
			if off := r.Start - starts[i]; off > 0 && off < 8*len(snap.Vectors[name]) {
				cutAt[off%8] = true
			}
		}
	}
	return cutAt
}

// TestRawShardedRestoreInPlace: a raw vector that spans shards decodes
// from each shard's chunk straight into its target, and a float64 the
// cut runs through is stitched on its own. Differential against the
// reassembling path over shard counts and vector lengths that between
// them put a cut at every byte offset of an element, with every bit
// pattern a float64 has (NaN payloads, ±0) preserved.
func TestRawShardedRestoreInPlace(t *testing.T) {
	cutAt := map[int]bool{}
	for _, shards := range []int{1, 2, 3, 7, 8, 16} {
		for n := 250; n < 258; n++ {
			snap := streamSnap(n, rawBits(n, int64(n)), rawBits(2*n+3, int64(-n)))
			c := New(NewMemStorage(), Raw{})
			for off := range writeEvenShards(t, c, snap, shards) {
				cutAt[off] = true
			}
			want, err := c.RestoreReassembled()
			if err != nil {
				t.Fatal(err)
			}
			snapshotsBitwiseEqual(t, "reassembled", snap, want)

			targets := map[string][]float64{"x": make([]float64, n), "p": make([]float64, 2*n+3)}
			got, err := c.RestoreInto(targets)
			if err != nil {
				t.Fatalf("shards=%d n=%d: %v", shards, n, err)
			}
			snapshotsBitwiseEqual(t, "in place", want, got)
			for name, v := range targets {
				if &got.Vectors[name][0] != &v[0] {
					t.Fatalf("shards=%d n=%d: %q was not decoded into its target", shards, n, name)
				}
			}
			fresh, err := c.Restore()
			if err != nil {
				t.Fatal(err)
			}
			snapshotsBitwiseEqual(t, "no targets", want, fresh)
		}
	}
	for off := 0; off < 8; off++ {
		if !cutAt[off] {
			t.Errorf("no shard cut fell %d bytes into an element", off)
		}
	}
}

// TestRawShardSmallerThanAnElement: with more shards than elements an
// eight-byte value spans several shards, none of which holds a whole
// one.
func TestRawShardSmallerThanAnElement(t *testing.T) {
	snap := &Snapshot{Iteration: 3, Vectors: map[string][]float64{"x": rawBits(5, 9)}}
	c := New(NewMemStorage(), Raw{})
	writeEvenShards(t, c, snap, 40)
	got, err := c.RestoreInto(map[string][]float64{"x": make([]float64, 5)})
	if err != nil {
		t.Fatal(err)
	}
	snapshotsBitwiseEqual(t, "tiny shards", snap, got)
}

// rawPayload frames a checkpoint of one raw vector "x" whose header
// declares n values over the given blob, with a valid CRC trailer.
func rawPayload(n uint64, blob []byte) []byte {
	p := append([]byte(fileMagic), 9)              // iteration
	p = append(append(p, 3), "raw"...)             // encoder
	p = append(p, 0, 1)                            // no scalars, one vector
	p = append(append(p, 1), "x"...)               // its name
	p = binary.AppendUvarint(p, n)                 // declared values
	p = binary.AppendUvarint(p, uint64(len(blob))) // blob length
	p = append(p, blob...)
	return binary.LittleEndian.AppendUint32(p, crc32.ChecksumIEEE(p))
}

const untouched = 0x7ff8dead0000beef // a NaN no blob below contains

func sentinelTarget(n int) []float64 {
	t := make([]float64, n)
	for i := range t {
		t[i] = math.Float64frombits(untouched)
	}
	return t
}

func isUntouched(v []float64) bool {
	for _, e := range v {
		if math.Float64bits(e) != untouched {
			return false
		}
	}
	return true
}

// craftedPayload is a checkpoint whose raw vector header disagrees with
// its blob or with a 4-element target; ok marks a well-formed
// checkpoint of some other length.
type craftedPayload struct {
	data []byte
	ok   bool
}

func craftedRawPayloads() map[string]craftedPayload {
	blob := func(n int) []byte { b, _ := Raw{}.Encode(nil, sparse.SmoothField(n, 5)); return b }
	return map[string]craftedPayload{
		"n-over-blob":    {rawPayload(4, blob(3)), false},
		"n-under-blob":   {rawPayload(4, blob(5)), false},
		"n-2pow61":       {rawPayload(1<<61, blob(4)), false}, // 8·n wraps to 0
		"ragged-blob":    {rawPayload(4, blob(4)[:31]), false},
		"shorter-vector": {rawPayload(3, blob(3)), true},
		"longer-vector":  {rawPayload(5, blob(5)), true},
		"empty-vector":   {rawPayload(0, nil), true},
	}
}

// TestRawHeaderMismatchLeavesTargetUntouched: a raw vector whose header
// count disagrees with its blob is rejected, and one that disagrees
// with its target's length is decoded elsewhere, in both cases before
// anything is written to the target — monolithic, and sharded so finely
// that the header itself is stitched.
func TestRawHeaderMismatchLeavesTargetUntouched(t *testing.T) {
	for name, c := range craftedRawPayloads() {
		for _, shards := range []int{1, 2, 5} {
			st := NewMemStorage()
			ck := New(st, Raw{})
			if shards == 1 {
				if err := st.Write(ckptName(1), c.data); err != nil {
					t.Fatal(err)
				}
			} else if _, err := shard.Write(st, ckptName(1), "raw", c.data, nil, shard.Options{Shards: shards}); err != nil {
				t.Fatal(err)
			}
			target := sentinelTarget(4)
			snap, err := ck.RestoreInto(map[string][]float64{"x": target})
			if (err == nil) != c.ok {
				t.Fatalf("%s shards=%d: err = %v, want accepted = %v", name, shards, err, c.ok)
			}
			if !isUntouched(target) {
				t.Fatalf("%s shards=%d: the mismatched target was written", name, shards)
			}
			if c.ok && len(snap.Vectors["x"]) == len(target) {
				t.Fatalf("%s shards=%d: restored %d values", name, shards, len(snap.Vectors["x"]))
			}
		}
	}
}

// FuzzDecodeSnapshotInto: any bytes, with and without a valid CRC
// trailer put behind them, either fail to decode or decode to what the
// target-free decoder returns, without panicking and without allocating
// more than a multiple of the input; a target is written in full or not
// at all, and a vector of its target's length is decoded nowhere else.
func FuzzDecodeSnapshotInto(f *testing.F) {
	for _, c := range craftedRawPayloads() {
		f.Add(c.data[:len(c.data)-4], uint16(4))
	}
	good, _, _, _, err := encodeSnapshot(streamSnap(12, rawBits(40, 1), rawBits(7, 2)), Raw{}, nil, false, 0, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good[:len(good)-4], uint16(40))
	f.Add(good[:len(good)-4], uint16(7))
	f.Add(good[:len(good)/2], uint16(40))
	f.Fuzz(func(t *testing.T, body []byte, n uint16) {
		n %= 1 << 12
		sealed := binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body))
		for _, data := range [][]byte{body, sealed} {
			targets := map[string][]float64{"x": sentinelTarget(int(n)), "p": sentinelTarget(int(n))}
			var got *Snapshot
			var err error
			allocated := allocatedBytes(func() { got, err = decodeSnapshotInto(data, Raw{}, targets) })
			// Names, map entries and the vectors without a target: each
			// costs input bytes.
			if limit := uint64(64*len(data) + 16<<10); allocated > limit {
				t.Fatalf("%d input bytes allocated %d", len(data), allocated)
			}
			// Accepted or not, a target is never left half-written.
			for name, target := range targets {
				written := 0
				for _, e := range target {
					if math.Float64bits(e) != untouched {
						written++
					}
				}
				if written != 0 && written != len(target) {
					t.Fatalf("%q: %d of %d target values written (%v)", name, written, len(target), err)
				}
			}
			want, werr := decodeSnapshotInto(data, Raw{}, nil)
			if (err == nil) != (werr == nil) {
				t.Fatalf("with targets: %v; without: %v", err, werr)
			}
			if err != nil {
				continue
			}
			snapshotsBitwiseEqual(t, "targets vs none", want, got)
			for name, target := range targets {
				if v := got.Vectors[name]; len(v) == len(target) && len(v) > 0 && &v[0] != &target[0] {
					t.Fatalf("%q matches its target's length and was decoded elsewhere", name)
				}
			}
		}
	})
}
