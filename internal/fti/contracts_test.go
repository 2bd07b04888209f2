package fti

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/fti/shard"
	"repro/internal/parallel"
	"repro/internal/sparse"
	"repro/internal/sz"
)

// Every store meets the whole Storage contract; no caller probes for a
// method.
var (
	_ Storage = (*DirStorage)(nil)
	_ Storage = (*MemStorage)(nil)
	_ Storage = (*Resilient)(nil)
)

// allocatedBytes reports the heap bytes allocated while f runs.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestEncodeAppends: Encode extends dst as append does — what was in it
// stays, whether or not it had room — and what it appends is what it
// produces from an empty dst, for all three encoders.
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
		}
	}
}

// discardStorage takes writes and keeps nothing, so a save's own
// allocations can be counted.
type discardStorage struct{}

func (discardStorage) Write(string, []byte) error        { return nil }
func (discardStorage) WriteBatched(string, []byte) error { return nil }
func (discardStorage) Read(string) ([]byte, error)       { return nil, nil }
func (discardStorage) Delete(string) error               { return nil }
func (discardStorage) List() ([]string, error)           { return nil, nil }
func (discardStorage) SweepTemp() ([]string, error)      { return nil, nil }

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

// gridIterate is a smooth positive field on a grid³ grid, x fastest:
// what SZ infers the grid of and predicts over.
func gridIterate(grid int) []float64 {
	x := make([]float64, 0, grid*grid*grid)
	for i := 0; i < cap(x); i++ {
		u, v, w := float64(i%grid), float64(i/grid%grid), float64(i/grid/grid)
		x = append(x, 2.5+math.Sin(u/5)*math.Cos(v/4+w/6)+0.2*math.Sin(w/3))
	}
	return x
}

// writeEvenShards stores snap as checkpoint 1 of c's storage in n
// shards cut evenly, ignoring vector starts, and returns where in each
// raw blob the cuts fell, modulo 8.
func writeEvenShards(t *testing.T, c *Checkpointer, snap *Snapshot, n int) map[int]bool {
	t.Helper()
	payload, starts, err := encodeSnapshot(snap, Raw{}, nil, true, 0, nil)
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
			got, _, err := c.Restore(targets)
			if err != nil {
				t.Fatalf("shards=%d n=%d: %v", shards, n, err)
			}
			snapshotsBitwiseEqual(t, "in place", want, got)
			for name, v := range targets {
				if &got.Vectors[name][0] != &v[0] {
					t.Fatalf("shards=%d n=%d: %q was not decoded into its target", shards, n, name)
				}
			}
			fresh, _, err := c.Restore(nil)
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
	got, _, err := c.Restore(map[string][]float64{"x": make([]float64, 5)})
	if err != nil {
		t.Fatal(err)
	}
	snapshotsBitwiseEqual(t, "tiny shards", snap, got)
}

// rawPayload frames a checkpoint of one raw vector "x" whose header
// declares n values over the given blob, with a valid CRC trailer.
func rawPayload(n uint64, blob []byte) []byte {
	return sealed(rawVector(rawHeader(3, "raw"), n, uint64(len(blob)), blob))
}

// rawHeader frames a checkpoint up to its vector count: encoder name
// (with a possibly lying length), no scalars, one vector.
func rawHeader(nameLen uint64, name string) []byte {
	p := append([]byte(fileMagic), 9) // iteration
	p = append(binary.AppendUvarint(p, nameLen), name...)
	return append(p, 0, 1)
}

// rawVector appends vector "x" with the given (possibly lying) lengths.
func rawVector(p []byte, n, blobLen uint64, blob []byte) []byte {
	p = append(append(p, 1), "x"...)
	p = binary.AppendUvarint(p, n)
	p = binary.AppendUvarint(p, blobLen)
	return append(p, blob...)
}

// sealed puts the IEEE CRC trailer behind a checkpoint body.
func sealed(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
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
		// Lengths that wrap negative once converted to int: compared
		// after the conversion, as the monolithic parser did before it
		// became the sharded one's cursor, they sliced out of range.
		"name-len-2pow63": {sealed(rawVector(rawHeader(1<<63, "raw"), 4, 32, blob(4))), false},
		"blob-len-2pow63": {sealed(rawVector(rawHeader(3, "raw"), 4, 1<<63+8, blob(4))), false},
	}
}

// TestCraftedLengthsDoNotPanic: a CRC is an integrity check, not a
// gate — a checkpoint with a valid one and a length of 2⁶³ in it is an
// error like any other, monolithic or sharded.
func TestCraftedLengthsDoNotPanic(t *testing.T) {
	for _, name := range []string{"name-len-2pow63", "blob-len-2pow63"} {
		data := craftedRawPayloads()[name].data
		for _, cuts := range [][]int{nil, {len(data) / 2}} {
			if _, err := restoreCut(Raw{}, data, cuts, map[string][]float64{"x": sentinelTarget(4)}); err == nil {
				t.Errorf("%s cuts=%v: restored", name, cuts)
			}
		}
	}
}

// restoreCut restores data with enc as what is stored under a
// checkpoint's name: the object itself with no cuts, else the shard
// group cut at the given payload offsets (ascending, inside the
// payload).
func restoreCut(enc Encoder, data []byte, cuts []int, targets map[string][]float64) (*Snapshot, error) {
	st := NewMemStorage()
	c := New(st, enc)
	if len(cuts) == 0 {
		return c.decodeObject(data, new(RestoreAttempt), targets)
	}
	man := &shard.Manifest{Encoder: enc.Name(), Total: len(data)}
	for i, start := 0, 0; i <= len(cuts); i++ {
		end := len(data)
		if i < len(cuts) {
			end = cuts[i]
		}
		info := shard.Info{Name: shard.ShardName(ckptName(1), i), Size: end - start, CRC: shard.Checksum(data[start:end])}
		if err := st.Write(info.Name, data[start:end]); err != nil {
			return nil, err
		}
		man.Shards = append(man.Shards, info)
		start = end
	}
	return c.decodeObject(shard.AppendManifest(nil, man), new(RestoreAttempt), targets)
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
			snap, _, err := ck.Restore(map[string][]float64{"x": target})
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

// fuzzEncoders are the encoders FuzzDecodeSnapshotInto restores with,
// by its selector: the raw image, and the two blocked containers (flate
// and SZ), whose headers and blocks the walk schedules per chunk.
var fuzzEncoders = []Encoder{Raw{}, Lossless{Codec: codec.BlockedFlate{}}, SZ{}}

// containerValues is how many values the blocked containers in data
// hold by their own headers, under the codec's allocation guards: what
// a restore may decode (and, without a target, allocate) beyond its
// framing. 0 for a raw payload and for anything that does not frame.
func containerValues(data []byte, enc Encoder) (n uint64) {
	if enc.Blocks() == nil {
		return 0
	}
	referenceWalk(data, enc, func(_ string, _ uint64, blob []byte) ([]float64, error) {
		if lay, err := codec.ParseBlockLayout(codec.Whole(blob), len(blob)); err == nil {
			n += uint64(lay.N)
		}
		return nil, nil
	})
	return n
}

// FuzzDecodeSnapshotInto: any bytes, with and without a valid CRC
// trailer put behind them, restored with the encoder the selector picks
// (raw, lossless flate or SZ), either fail to decode or decode to what
// the target-free restore and the reassembling reference decoder
// return, without panicking and without allocating more than a
// multiple of the input — plus, for a blocked container, the values its
// guarded header admits and the decoders' pools. A raw target is
// written in full or not at all, and a vector of its target's length is
// decoded nowhere else. The sealed bytes are then restored as groups of
// two and three shards cut at the fuzzer's offsets — header, lengths,
// elements and blocks stitched across chunks — and must meet the same
// verdict with a bitwise-same snapshot: there is one walk, and the
// layout is not its business.
func FuzzDecodeSnapshotInto(f *testing.F) {
	for _, c := range craftedRawPayloads() {
		f.Add(c.data[:len(c.data)-4], uint16(4), uint16(21), uint16(50), uint8(0))
	}
	good, _, err := encodeSnapshot(streamSnap(12, rawBits(40, 1), rawBits(7, 2)), Raw{}, nil, false, 0, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good[:len(good)-4], uint16(40), uint16(100), uint16(101), uint8(0))
	f.Add(good[:len(good)-4], uint16(7), uint16(3), uint16(398), uint8(0))
	f.Add(good[:len(good)/2], uint16(40), uint16(0), uint16(9), uint8(0))
	// Each compressing encoder's container of a grid iterate, in blocks
	// of 512 values so that cuts fall between and inside blocks.
	for sel, enc := range []Encoder{
		Lossless{Codec: codec.BlockedFlate{BlockElems: 512}},
		SZ{Params: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-5, BlockSize: 512}},
	} {
		blocked, _, err := encodeSnapshot(streamSnap(12, gridIterate(12), sparse.SmoothField(7, 2)), enc, nil, false, 0, nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blocked[:len(blocked)-4], uint16(1728), uint16(300), uint16(2000), uint8(sel+1))
		f.Add(blocked[:len(blocked)-4], uint16(7), uint16(len(blocked)/2), uint16(len(blocked)-9), uint8(sel+1))
	}
	f.Fuzz(func(t *testing.T, body []byte, n, cutA, cutB uint16, sel uint8) {
		n %= 1 << 12
		enc := fuzzEncoders[int(sel)%len(fuzzEncoders)]
		_, raw := enc.(Raw)
		data := sealed(bytes.Clone(body))
		newTargets := func() map[string][]float64 {
			return map[string][]float64{"x": sentinelTarget(int(n)), "p": sentinelTarget(int(n))}
		}
		// A raw target is never left half-written, accepted or not; a
		// container's blocks decode into it one by one, so a rejected one
		// may have written some (Restore's contract: the fallback
		// overwrites them), an accepted one has written it all.
		fullOrNot := func(label string, targets map[string][]float64, err error) {
			if !raw && err != nil {
				return
			}
			for name, target := range targets {
				written := 0
				for _, e := range target {
					if math.Float64bits(e) != untouched {
						written++
					}
				}
				if written != 0 && written != len(target) {
					t.Fatalf("%s: %q: %d of %d target values written (%v)", label, name, written, len(target), err)
				}
			}
		}

		// The body alone almost never carries its own CRC: rejected, and
		// nothing written.
		targets := newTargets()
		selfSealed := len(body) >= 4 && bytes.Equal(sealed(bytes.Clone(body[:len(body)-4])), body)
		if _, err := restoreCut(enc, body, nil, targets); err == nil && !selfSealed {
			t.Fatal("restored a checkpoint whose CRC does not match")
		}
		fullOrNot("unsealed", targets, nil)

		targets = newTargets()
		var got *Snapshot
		allocated := allocatedBytes(func() { got, err = restoreCut(enc, data, nil, targets) })
		// Names, map entries and the vectors without a target: each
		// costs input bytes. A container's values cost their output and
		// decode scratch, as codec's FuzzContainer allows a decode, and
		// its decoders' cold pools (float scratch, inflaters) a constant.
		limit := uint64(64*len(data) + 16<<10)
		if !raw {
			limit += 72*containerValues(data, enc) + 1<<20 + 64<<10*uint64(parallel.Workers())
		}
		if allocated > limit {
			t.Fatalf("%d input bytes allocated %d", len(data), allocated)
		}
		fullOrNot("monolithic", targets, err)
		want, werr := restoreCut(enc, data, nil, nil)
		if (err == nil) != (werr == nil) {
			t.Fatalf("with targets: %v; without: %v", err, werr)
		}
		if err == nil {
			snapshotsBitwiseEqual(t, "targets vs none", want, got)
			for name, target := range targets {
				if v := got.Vectors[name]; len(v) == len(target) && len(v) > 0 && &v[0] != &target[0] {
					t.Fatalf("%q matches its target's length and was decoded elsewhere", name)
				}
			}
			ref, rerr := referenceDecode(data, enc)
			if rerr != nil {
				t.Fatalf("restored, and the reference decoder says: %v", rerr)
			}
			snapshotsBitwiseEqual(t, "walk vs reference", ref, got)
		}

		a, b := int(cutA)%len(data), int(cutB)%len(data)
		if a > b {
			a, b = b, a
		}
		for _, cuts := range [][]int{{a}, {a, b}} {
			if cuts[0] == 0 || (len(cuts) == 2 && cuts[0] == cuts[1]) {
				continue // an empty shard: a writer never cuts one
			}
			targets := newTargets()
			sharded, serr := restoreCut(enc, data, cuts, targets)
			fullOrNot(fmt.Sprint("cuts ", cuts), targets, serr)
			if (serr == nil) != (err == nil) {
				t.Fatalf("monolithic: %v; cut at %v: %v", err, cuts, serr)
			}
			if serr == nil {
				snapshotsBitwiseEqual(t, fmt.Sprint("monolithic vs cuts ", cuts), got, sharded)
			}
		}
	})
}
