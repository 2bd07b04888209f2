package fti

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/fti/shard"
	"repro/internal/sz"
)

// shardTestState returns a deterministic smooth state large enough to
// span several SZG2 blocks, so sharded checkpoints exercise the
// block-aligned cut path.
func shardTestState(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 3 + math.Sin(float64(i)/700)*math.Cos(float64(i)/91)
	}
	return x
}

func newShardedCheckpointer(t *testing.T, st Storage, shards, workers int) *Checkpointer {
	t.Helper()
	c := New(st, SZ{Params: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-6}})
	if err := c.SetSharding(shards, workers); err != nil {
		t.Fatal(err)
	}
	return c
}

func shardSnap(it int, x []float64) *Snapshot {
	return &Snapshot{Iteration: it, Vectors: map[string][]float64{"x": x}}
}

// saveSharded writes one sharded checkpoint and returns its Info.
func saveSharded(t *testing.T, c *Checkpointer, it int, x []float64) Info {
	t.Helper()
	info, err := c.Save(shardSnap(it, x))
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestShardedSaveRestoreRoundTrip(t *testing.T) {
	st := NewMemStorage()
	c := newShardedCheckpointer(t, st, 8, 4)
	x := shardTestState(200_000)
	info := saveSharded(t, c, 7, x)
	if info.Shards != 8 {
		t.Fatalf("Info.Shards = %d, want 8", info.Shards)
	}
	names, _ := st.List()
	manifest := 0
	shardsSeen := 0
	for _, n := range names {
		if _, _, ok := shard.ShardBase(n); ok {
			shardsSeen++
		} else if _, ok := parseCkptName(n); ok {
			manifest++
		}
	}
	if manifest != 1 || shardsSeen != 8 {
		t.Fatalf("layout: %d manifests, %d shards (%v)", manifest, shardsSeen, names)
	}
	s, _, err := c.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Iteration != 7 || len(s.Vectors["x"]) != len(x) {
		t.Fatalf("restored iteration %d, %d values", s.Iteration, len(s.Vectors["x"]))
	}
	for i, v := range s.Vectors["x"] {
		if math.Abs(v-x[i]) > 1e-6*math.Abs(x[i]) {
			t.Fatalf("value %d outside error bound: %g vs %g", i, v, x[i])
		}
	}
}

func TestShardedCutsAlignToSZBlocks(t *testing.T) {
	// With a large vector the payload is dominated by one SZG2 stream;
	// the shard cut points must land on its block boundaries.
	x := shardTestState(300_000)
	enc := SZ{Params: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-6}}
	payload, bounds, err := encodeSnapshot(shardSnap(1, x), enc, nil, true, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) < 8 {
		t.Fatalf("expected ≥8 aligned boundaries for a %d-element state, got %d", len(x), len(bounds))
	}
	ranges := shard.Split(len(payload), 4, bounds)
	aligned := 0
	for _, r := range ranges[1:] {
		for _, b := range bounds {
			if r.Start == b {
				aligned++
				break
			}
		}
	}
	if aligned != len(ranges)-1 {
		t.Fatalf("only %d of %d cuts aligned to SZ block boundaries", aligned, len(ranges)-1)
	}
}

func TestShardedMissingShardFallsBack(t *testing.T) {
	st := NewMemStorage()
	c := newShardedCheckpointer(t, st, 4, 2)
	x1 := shardTestState(150_000)
	saveSharded(t, c, 1, x1)
	saveSharded(t, c, 2, shardTestState(150_001))
	// Lose one shard of the newest checkpoint.
	if err := st.Delete(shard.ShardName(ckptName(2), 2)); err != nil {
		t.Fatal(err)
	}
	s, _, err := c.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Iteration != 1 {
		t.Fatalf("restore picked iteration %d, want fallback to 1", s.Iteration)
	}
}

func TestShardedCorruptShardFallsBack(t *testing.T) {
	st := NewMemStorage()
	c := newShardedCheckpointer(t, st, 4, 0)
	saveSharded(t, c, 1, shardTestState(150_000))
	saveSharded(t, c, 2, shardTestState(150_001))
	name := shard.ShardName(ckptName(2), 1)
	data, err := st.Read(name)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x55
	if err := st.Write(name, data); err != nil {
		t.Fatal(err)
	}
	s, _, err := c.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Iteration != 1 {
		t.Fatalf("restore picked iteration %d, want fallback to 1", s.Iteration)
	}
}

func TestShardedCorruptManifestFallsBack(t *testing.T) {
	st := NewMemStorage()
	c := newShardedCheckpointer(t, st, 4, 0)
	saveSharded(t, c, 1, shardTestState(150_000))
	saveSharded(t, c, 2, shardTestState(150_001))
	name := ckptName(2)
	data, _ := st.Read(name)
	data[len(data)-1] ^= 0xFF // break the manifest trailer CRC
	_ = st.Write(name, data)
	s, _, err := c.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Iteration != 1 {
		t.Fatalf("restore picked iteration %d, want fallback to 1", s.Iteration)
	}
}

// TestOrphanShardsIgnoredAndSwept: shard objects without a manifest —
// the debris of a write that crashed between its shard writes and its
// manifest commit — must be invisible to recovery, must not block a
// restarted Checkpointer, and must be garbage-collected by the next
// successful save.
func TestOrphanShardsIgnoredAndSwept(t *testing.T) {
	st := NewMemStorage()
	c := newShardedCheckpointer(t, st, 4, 0)
	saveSharded(t, c, 1, shardTestState(150_000))
	// Simulate an aborted write at seq 9: shards present, no manifest.
	// The sequence counter only syncs off manifests, so seq 9 stays
	// dead — exactly the state a crash between shard writes and the
	// manifest commit leaves behind.
	for i := 0; i < 4; i++ {
		if err := st.Write(shard.ShardName(ckptName(9), i), []byte("partial")); err != nil {
			t.Fatal(err)
		}
	}
	// A restarted Checkpointer over this directory must not count the
	// orphans as a checkpoint...
	c2 := newShardedCheckpointer(t, st, 4, 0)
	if got := c2.CheckpointCount(); got != 1 {
		t.Fatalf("CheckpointCount = %d with orphans present, want 1", got)
	}
	// ...must recover from the committed checkpoint...
	s, _, err := c2.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Iteration != 1 {
		t.Fatalf("restore picked iteration %d, want 1", s.Iteration)
	}
	// ...and the next save's gc must sweep the dead group's shards.
	saveSharded(t, c2, 5, shardTestState(150_001)) // commits seq 2
	names, _ := st.List()
	for _, n := range names {
		if strings.HasPrefix(n, ckptName(9)) {
			t.Fatalf("orphan shard %s survived gc (%v)", n, names)
		}
	}
}

// TestStaleShardsOfReusedSeqSwept: after a crash mid-sharded-write,
// restart re-uses the orphans' sequence number. If the new write at
// that sequence is monolithic, or sharded with fewer shards, the stale
// higher-indexed shard objects share a live base name — they must
// still be swept, not leak forever.
func TestStaleShardsOfReusedSeqSwept(t *testing.T) {
	st := NewMemStorage()
	// Orphans of a crashed 8-shard write at seq 1.
	for i := 0; i < 8; i++ {
		if err := st.Write(shard.ShardName(ckptName(1), i), []byte("stale")); err != nil {
			t.Fatal(err)
		}
	}

	// Case 1: restart writes seq 1 sharded with only 4 shards.
	c := newShardedCheckpointer(t, st, 4, 0)
	saveSharded(t, c, 1, shardTestState(150_000))
	names, _ := st.List()
	for _, n := range names {
		if base, idx, ok := shard.ShardBase(n); ok && base == ckptName(1) && idx >= 4 {
			t.Fatalf("stale shard %s outlived the narrower rewrite (%v)", n, names)
		}
	}
	s, _, err := c.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Iteration != 1 {
		t.Fatalf("restore picked %d, want 1", s.Iteration)
	}

	// Case 2: restart writes the reused seq monolithically — every
	// stale shard of that base is debris.
	st2 := NewMemStorage()
	for i := 0; i < 8; i++ {
		if err := st2.Write(shard.ShardName(ckptName(1), i), []byte("stale")); err != nil {
			t.Fatal(err)
		}
	}
	mono := New(st2, SZ{Params: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-6}})
	if _, err := mono.Save(shardSnap(1, shardTestState(150_000))); err != nil {
		t.Fatal(err)
	}
	names, _ = st2.List()
	for _, n := range names {
		if _, _, ok := shard.ShardBase(n); ok {
			t.Fatalf("stale shard %s outlived the monolithic rewrite (%v)", n, names)
		}
	}
}

// TestMixedShardedMonolithicSeries: one storage directory holding both
// layouts — the upgrade path — must restore the newest valid
// checkpoint regardless of layout and fall across layout boundaries.
func TestMixedShardedMonolithicSeries(t *testing.T) {
	st := NewMemStorage()
	enc := SZ{Params: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-6}}
	x := shardTestState(120_000)
	// Alternate layouts with fresh Checkpointers so each syncs its
	// sequence counter off storage, extending the series: seq 1
	// monolithic, seq 2 sharded, seq 3 monolithic.
	m1 := New(st, enc)
	m1.SetKeep(10)
	if _, err := m1.Save(shardSnap(1, x)); err != nil {
		t.Fatal(err)
	}
	sh := newShardedCheckpointer(t, st, 4, 2)
	sh.SetKeep(10)
	saveSharded(t, sh, 2, shardTestState(120_001))
	m2 := New(st, enc)
	m2.SetKeep(10)
	if _, err := m2.Save(shardSnap(3, x)); err != nil {
		t.Fatal(err)
	}

	// A fresh Checkpointer (any sharding config) sees the full series.
	c := newShardedCheckpointer(t, st, 8, 0)
	c.SetKeep(10)
	s, _, err := c.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Iteration != 3 {
		t.Fatalf("restore picked iteration %d, want newest (3)", s.Iteration)
	}
	// Corrupt the newest (monolithic) checkpoint and fall back across
	// the layout boundary to the sharded seq 2.
	data, _ := st.Read(ckptName(3))
	data[len(data)-1] ^= 0xFF
	_ = st.Write(ckptName(3), data)
	s, _, err = c.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Iteration != 2 {
		t.Fatalf("fallback picked iteration %d, want sharded 2", s.Iteration)
	}
}

func TestShardedRetentionDeletesGroups(t *testing.T) {
	st := NewMemStorage()
	c := newShardedCheckpointer(t, st, 4, 0)
	// keep defaults to 2: after three saves, seq 1's group must be gone.
	for it := 1; it <= 3; it++ {
		saveSharded(t, c, it, shardTestState(120_000+it))
	}
	names, _ := st.List()
	for _, n := range names {
		if strings.HasPrefix(n, ckptName(1)) {
			t.Fatalf("retention left %s behind (%v)", n, names)
		}
	}
	// 2 groups × (manifest + 4 shards).
	if len(names) != 10 {
		t.Fatalf("storage holds %d objects, want 10: %v", len(names), names)
	}
}

func TestShardedDropLatestRemovesGroup(t *testing.T) {
	st := NewMemStorage()
	c := newShardedCheckpointer(t, st, 4, 0)
	saveSharded(t, c, 1, shardTestState(120_000))
	saveSharded(t, c, 2, shardTestState(120_001))
	if err := c.DropLatest(); err != nil {
		t.Fatal(err)
	}
	names, _ := st.List()
	for _, n := range names {
		if strings.HasPrefix(n, ckptName(2)) {
			t.Fatalf("DropLatest left %s behind", n)
		}
	}
	s, _, err := c.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Iteration != 1 {
		t.Fatalf("after drop, restore picked %d, want 1", s.Iteration)
	}
}

// TestShardedWriteFailureRollsBackSeq: a shard-write failure must leave
// no manifest, roll the sequence counter back, and keep the previous
// checkpoint restorable — the failure-during-checkpoint contract.
func TestShardedWriteFailureRollsBackSeq(t *testing.T) {
	st := NewMemStorage()
	fs := &flakyShardStorage{Storage: st}
	c := New(fs, SZ{Params: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-6}})
	if err := c.SetSharding(4, 2); err != nil {
		t.Fatal(err)
	}
	saveSharded(t, c, 1, shardTestState(120_000))
	fs.failSub = ".s00002"
	if _, err := c.Save(shardSnap(2, shardTestState(120_001))); err == nil {
		t.Fatal("expected sharded write failure")
	}
	if c.LatestSeq() != 1 {
		t.Fatalf("sequence did not roll back: %d", c.LatestSeq())
	}
	fs.failSub = ""
	s, _, err := c.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Iteration != 1 {
		t.Fatalf("restore picked %d, want 1", s.Iteration)
	}
}

type flakyShardStorage struct {
	Storage
	failSub string
}

func (s *flakyShardStorage) Write(name string, data []byte) error {
	if s.failSub != "" && strings.Contains(name, s.failSub) {
		return fmt.Errorf("injected shard write failure")
	}
	return s.Storage.Write(name, data)
}

func (s *flakyShardStorage) WriteBatched(name string, data []byte) error { return s.Write(name, data) }

// TestAsyncShardedMatchesSyncMonolithic: the async pipeline with a
// sharded layout must commit checkpoints that decode to exactly the
// bytes a synchronous monolithic save produces — layout and pipeline
// change where bytes live, never what they decode to.
func TestAsyncShardedMatchesSyncMonolithic(t *testing.T) {
	x := shardTestState(150_000)

	syncSt := NewMemStorage()
	syncC := New(syncSt, SZ{Params: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-6}})
	if _, err := syncC.Save(shardSnap(3, x)); err != nil {
		t.Fatal(err)
	}
	want, _, err := syncC.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}

	asyncSt := NewMemStorage()
	asyncC := New(asyncSt, SZ{Params: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-6}})
	if err := asyncC.SetSharding(8, 4); err != nil {
		t.Fatal(err)
	}
	ac := NewAsync(asyncC)
	if _, err := ac.SaveAsync(shardSnap(3, x)); err != nil {
		t.Fatal(err)
	}
	if err := ac.Flush(); err != nil {
		t.Fatal(err)
	}
	if info, _, _ := ac.Peek(); info.Shards != 8 {
		t.Fatalf("async committed %d shards, want 8", info.Shards)
	}
	got, _, err := asyncC.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}

	if got.Iteration != want.Iteration || len(got.Vectors["x"]) != len(want.Vectors["x"]) {
		t.Fatal("async sharded snapshot shape differs from sync monolithic")
	}
	for i := range want.Vectors["x"] {
		if got.Vectors["x"][i] != want.Vectors["x"][i] {
			t.Fatalf("value %d differs bitwise: %g vs %g", i, got.Vectors["x"][i], want.Vectors["x"][i])
		}
	}
}
