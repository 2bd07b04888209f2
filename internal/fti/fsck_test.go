package fti

import (
	"errors"
	"path/filepath"
	"slices"
	"sync"
	"testing"
)

// killStore simulates a crash at an exact point in the commit
// protocol: after `after` successful writes, the next write tears (a
// partial "*.tmp" artifact lands on the inner store) and every
// operation from then on fails — the process is dead.
type killStore struct {
	inner Storage
	mu    sync.Mutex
	after int // successful writes before the kill; -1 = never
	dead  bool
}

var errKilled = errors.New("killStore: process killed")

func (k *killStore) Write(name string, data []byte) error {
	k.mu.Lock()
	if k.dead {
		k.mu.Unlock()
		return errKilled
	}
	if k.after == 0 {
		k.dead = true
		k.mu.Unlock()
		// Crash points 1–2: the temp file exists (possibly partial), the
		// final name never did.
		_ = k.inner.Write(name+".tmp", data[:len(data)/2])
		return errKilled
	}
	if k.after > 0 {
		k.after--
	}
	k.mu.Unlock()
	return k.inner.Write(name, data)
}

// WriteBatched counts toward the kill like Write, so a sharded save can
// die between two shards.
func (k *killStore) WriteBatched(name string, data []byte) error { return k.Write(name, data) }

func (k *killStore) gate() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.dead {
		return errKilled
	}
	return nil
}

func (k *killStore) Read(name string) ([]byte, error) {
	if err := k.gate(); err != nil {
		return nil, err
	}
	return k.inner.Read(name)
}

func (k *killStore) Delete(name string) error {
	if err := k.gate(); err != nil {
		return err
	}
	return k.inner.Delete(name)
}

func (k *killStore) List() ([]string, error) {
	if err := k.gate(); err != nil {
		return nil, err
	}
	return k.inner.List()
}

func (k *killStore) SweepTemp() ([]string, error) {
	if err := k.gate(); err != nil {
		return nil, err
	}
	return k.inner.SweepTemp()
}

// TestFsckCrashPointMatrix kills the commit protocol after every
// possible number of completed object writes — monolithic (1 op) and
// sharded (S shard ops + the manifest) — then verifies the restart
// path: Fsck leaves storage consistent, List exposes only fully
// committed checkpoints, and Recover lands on the newest of them.
func TestFsckCrashPointMatrix(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int // 0 = monolithic
	}{
		{"monolithic", 0},
		{"sharded", 4},
	} {
		opsPerCkpt := 1
		if tc.shards > 0 {
			opsPerCkpt = tc.shards + 1 // shards then the manifest
		}
		for kill := 0; kill <= opsPerCkpt; kill++ {
			t.Run(tc.name+"/kill-after-"+string(rune('0'+kill)), func(t *testing.T) {
				mem := NewMemStorage()
				build := func(st Storage) (*Checkpointer, *[]float64) {
					c := New(st, Raw{})
					if tc.shards > 0 {
						if err := c.SetSharding(tc.shards, 1); err != nil {
							t.Fatal(err)
						}
					}
					x := make([]float64, 64)
					c.Protect("x", &x)
					return c, &x
				}
				c, x := build(mem)
				for i := range *x {
					(*x)[i] = 1
				}
				if _, err := c.Checkpoint(); err != nil {
					t.Fatalf("first checkpoint: %v", err)
				}
				// Second checkpoint dies after `kill` completed writes.
				ks := &killStore{inner: mem, after: kill}
				c2, x2 := build(ks)
				for i := range *x2 {
					(*x2)[i] = 2
				}
				_, err := c2.Checkpoint()
				committed2 := kill >= opsPerCkpt
				if committed2 != (err == nil) {
					t.Fatalf("kill after %d/%d ops: checkpoint err=%v", kill, opsPerCkpt, err)
				}

				// Restart: fsck the store the crash left behind, then
				// recover with a fresh Checkpointer.
				rep, err := Fsck(mem)
				if err != nil {
					t.Fatalf("fsck: %v", err)
				}
				wantCommitted := 1
				if committed2 {
					wantCommitted = 2
				}
				if len(rep.Committed) != wantCommitted {
					t.Fatalf("fsck committed %v, want %d groups", rep.Committed, wantCommitted)
				}
				// Only committed groups' objects may remain visible.
				names, err := mem.List()
				if err != nil {
					t.Fatal(err)
				}
				live := map[string]bool{}
				for _, b := range rep.Committed {
					live[b] = true
					if man, err := verifyGroup(mem, b); err != nil {
						t.Fatalf("committed group %s fails verification after fsck: %v", b, err)
					} else if man != nil {
						for _, s := range man.Shards {
							live[s.Name] = true
						}
					}
				}
				for _, n := range names {
					if !live[n] {
						t.Fatalf("fsck left non-committed object %q (report: %s)", n, rep)
					}
				}
				// Idempotent: a second sweep finds nothing.
				rep2, err := Fsck(mem)
				if err != nil || !rep2.Clean() {
					t.Fatalf("second fsck not clean: %s err=%v", rep2, err)
				}
				// Recover lands on the newest committed state.
				c3, x3 := build(mem)
				if err := c3.Recover(); err != nil {
					t.Fatalf("recover after fsck: %v", err)
				}
				want := 1.0
				if committed2 {
					want = 2.0
				}
				if (*x3)[0] != want || (*x3)[63] != want {
					t.Fatalf("recovered state %v..., want all %v", (*x3)[:4], want)
				}
			})
		}
	}
}

// TestFsckSweepsDirStorageTemps exercises the on-disk temp sweep: a
// stale *.tmp from a crashed rename is unlinked at startup.
func TestFsckSweepsDirStorageTemps(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDirStorage(filepath.Join(dir, "ck"))
	if err != nil {
		t.Fatal(err)
	}
	c := New(ds, Raw{})
	x := []float64{1, 2, 3}
	c.Protect("x", &x)
	if _, err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Simulate crash debris the protocol can leave at points 1–2.
	ks := &killStore{inner: ds, after: 0}
	if err := ks.Write(ckptName(2), []byte("half-written payload")); err == nil {
		t.Fatal("kill store should have failed the write")
	}
	rep, err := Fsck(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.TempRemoved) != 1 || len(rep.Committed) != 1 {
		t.Fatalf("report %s: want 1 temp removed, 1 committed", rep)
	}
	if err := c.Recover(); err != nil {
		t.Fatalf("recover after sweep: %v", err)
	}
	if x[2] != 3 {
		t.Fatalf("restored %v", x)
	}
}

// TestDirStorageSweepTemp covers the satellite fix directly: stale
// temp files are swept, fresh objects are untouched.
func TestDirStorageSweepTemp(t *testing.T) {
	ds, err := NewDirStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Write("keep", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := ds.Write("stale.tmp", []byte{2}); err != nil {
		t.Fatal(err)
	}
	removed, err := ds.SweepTemp()
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0] != "stale.tmp" {
		t.Fatalf("swept %v", removed)
	}
	if _, err := ds.Read("keep"); err != nil {
		t.Fatalf("sweep touched a live object: %v", err)
	}
	names, err := ds.List()
	if err != nil || len(names) != 1 {
		t.Fatalf("list after sweep: %v %v", names, err)
	}
}

// TestStorageHidesAndSweepsTemps: on both stores, List never shows the
// "*.tmp" debris a crashed write leaves, and SweepTemp removes exactly
// that debris, once.
func TestStorageHidesAndSweepsTemps(t *testing.T) {
	dir, err := NewDirStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		st   Storage
	}{{"dir", dir}, {"mem", NewMemStorage()}} {
		t.Run(tc.name, func(t *testing.T) {
			live := []string{ckptName(1), "static-A"}
			for _, n := range live {
				if err := tc.st.Write(n, []byte{1}); err != nil {
					t.Fatal(err)
				}
			}
			debris := []string{ckptName(2) + ".tmp", ckptName(3) + ".s00001.tmp"}
			for _, n := range []string{ckptName(2), ckptName(3) + ".s00001"} {
				if err := (&killStore{inner: tc.st}).Write(n, []byte("torn payload")); err == nil {
					t.Fatal("kill store should have failed the write")
				}
			}
			for _, want := range [][]string{debris, nil} { // the second sweep finds nothing
				names, err := tc.st.List()
				if err != nil || !slices.Equal(names, live) {
					t.Fatalf("List = %v, %v; want %v", names, err, live)
				}
				removed, err := tc.st.SweepTemp()
				if err != nil || !slices.Equal(removed, want) {
					t.Fatalf("SweepTemp = %v, %v; want %v", removed, err, want)
				}
			}
			if _, err := tc.st.Read(ckptName(1)); err != nil {
				t.Fatalf("sweep touched a live object: %v", err)
			}
		})
	}
}
