package fti

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// spareFiles lists the spares DirStorage keeps in dir, sorted.
func spareFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "spare..") {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestDirStorageRecyclesOnlyDurablyRetiredFiles holds DirStorage's
// spares to their rule: a deleted file backs a later write only after a
// directory fsync has made its retirement durable, it never shows in
// List, and the spares stay bounded by what one commit retires.
func TestDirStorageRecyclesOnlyDurablyRetiredFiles(t *testing.T) {
	dir := t.TempDir()
	ds, err := NewDirStorage(dir)
	if err != nil {
		t.Fatal(err)
	}
	stat := func(name string) os.FileInfo {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	write := func(name string, data []byte) os.FileInfo {
		t.Helper()
		if err := ds.Write(name, data); err != nil {
			t.Fatal(err)
		}
		return stat(name)
	}
	list := func(want ...string) {
		t.Helper()
		if names, err := ds.List(); err != nil || !slices.Equal(names, want) {
			t.Fatalf("List = %v, %v; want %v", names, err, want)
		}
	}
	big := bytes.Repeat([]byte("retired payload "), 1024)
	small := []byte("the newer, shorter payload")

	a := write("a", big)
	if err := ds.Delete("a"); err != nil {
		t.Fatal(err)
	}
	list()
	if n := len(spareFiles(t, dir)); n != 1 {
		t.Fatalf("%d spares after one Delete, want 1", n)
	}
	// No directory fsync since the Delete: a's retirement is not
	// durable, so its file must not be overwritten yet.
	if b := write("b", small); os.SameFile(a, b) {
		t.Fatal("a Write right after a Delete reused the retired file")
	}
	// b's Write fsynced the directory, so the next Write reuses a's
	// file and cuts it to the new payload's length.
	if c := write("c", small); !os.SameFile(a, c) {
		t.Fatal("a Write after a durable retirement took a fresh file")
	}
	if got, err := ds.Read("c"); err != nil || !bytes.Equal(got, small) {
		t.Fatalf("Read(c) = %d bytes, %v; want the %d-byte payload", len(got), err, len(small))
	}
	list("b", "c")

	// A swept spare: the next Write falls back to a fresh file. A link
	// outside the store pins b's inode, so the file system cannot hand
	// its number to that fresh file.
	if err := ds.Delete("b"); err != nil {
		t.Fatal(err)
	}
	write("d", small) // makes b's retirement durable
	pin := filepath.Join(t.TempDir(), "b")
	if err := os.Link(filepath.Join(dir, spareFiles(t, dir)[0]), pin); err != nil {
		t.Fatal(err)
	}
	b, err := os.Stat(pin)
	if err != nil {
		t.Fatal(err)
	}
	removed, err := ds.SweepTemp()
	if err != nil || len(removed) != 1 || !strings.HasPrefix(removed[0], "spare..") {
		t.Fatalf("SweepTemp = %v, %v; want b's spare", removed, err)
	}
	if e := write("e", big); os.SameFile(b, e) {
		t.Fatal("a Write reused a swept spare")
	}
	if got, err := ds.Read("e"); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("Read(e) = %d bytes, %v", len(got), err)
	}
	list("c", "d", "e")
	if err := ds.Delete("never-written"); err != nil {
		t.Fatalf("Delete of a missing name: %v", err)
	}

	t.Run("concurrent-batched-writers", func(t *testing.T) {
		ds, err := NewDirStorage(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var retired []os.FileInfo
		for _, n := range []string{"x0", "x1"} {
			if err := ds.Write(n, big); err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(filepath.Join(ds.dir, n))
			if err != nil {
				t.Fatal(err)
			}
			retired = append(retired, fi)
		}
		for _, n := range []string{"x0", "x1"} {
			if err := ds.Delete(n); err != nil {
				t.Fatal(err)
			}
		}
		if err := ds.Write("commit", small); err != nil { // both retirements durable
			t.Fatal(err)
		}
		// Two shard workers write at once, as shard.Write's pool does.
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make([]error, 2)
		for i, n := range []string{"y0", "y1"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs[i] = ds.WriteBatched(n, []byte(n))
			}()
		}
		close(start)
		wg.Wait()
		var got []os.FileInfo
		for i, n := range []string{"y0", "y1"} {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			fi, err := os.Stat(filepath.Join(ds.dir, n))
			if err != nil {
				t.Fatal(err)
			}
			if data, err := ds.Read(n); err != nil || string(data) != n {
				t.Fatalf("Read(%s) = %q, %v", n, data, err)
			}
			got = append(got, fi)
		}
		if os.SameFile(got[0], got[1]) {
			t.Fatal("two concurrent writers took the same spare")
		}
		for _, fi := range got {
			if !os.SameFile(fi, retired[0]) && !os.SameFile(fi, retired[1]) {
				t.Fatalf("%s took a fresh file although a spare was ready", fi.Name())
			}
		}
	})

	// Over 100 saves through the Checkpointer (keep 2), the files on
	// disk stay bounded and the commits come back to the same few files.
	for _, tc := range []struct {
		name    string
		shards  int
		objects int // objects per checkpoint
	}{{"monolithic", 0, 1}, {"sharded", 8, 9}} {
		t.Run("bounded/"+tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ds, err := NewDirStorage(dir)
			if err != nil {
				t.Fatal(err)
			}
			c := New(ds, Raw{})
			if tc.shards > 0 {
				if err := c.SetSharding(tc.shards, 2); err != nil {
					t.Fatal(err)
				}
			}
			x := make([]float64, 4096)
			c.Protect("x", &x)
			var files []os.FileInfo
			for i := 0; i < 100; i++ {
				x[0] = float64(i)
				if _, err := c.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if n := len(spareFiles(t, dir)); n > 2*tc.objects {
					t.Fatalf("save %d: %d spares on disk, want at most %d", i, n, 2*tc.objects)
				}
				names, err := ds.List()
				if err != nil || len(names) != 2*tc.objects && i > 0 {
					t.Fatalf("save %d: List = %v, %v", i, names, err)
				}
				for _, n := range names {
					fi, err := os.Stat(filepath.Join(dir, n))
					if err != nil {
						t.Fatal(err)
					}
					if !slices.ContainsFunc(files, func(f os.FileInfo) bool { return os.SameFile(f, fi) }) {
						files = append(files, fi)
					}
				}
			}
			// Keep 2 plus one retired checkpoint's worth awaiting its
			// durable retirement: from then on every object is a reuse.
			if len(files) > 4*tc.objects {
				t.Fatalf("100 saves used %d distinct files, want at most %d", len(files), 4*tc.objects)
			}
		})
	}
}
