package fti

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Storage is where checkpoint bytes live. DirStorage writes real files
// (the PFS in the paper's setup); MemStorage backs the virtual-time
// simulator, where thousands of checkpoints are taken per experiment
// and the I/O cost is accounted by the cluster model instead.
//
// Ownership and concurrency contract: Write's data slice is owned by
// the caller. Implementations must either finish using it or copy it
// before returning — the Checkpointer reuses its encode buffers across
// checkpoints (double-buffered in the asynchronous pipeline), so a
// retained slice WILL be overwritten by a later snapshot. Conversely,
// slices returned by Read are owned by the caller; the implementation
// must not reuse their backing arrays. With the AsyncCheckpointer,
// Write runs on a background goroutine while Read/List/Delete may be
// issued from the solver goroutine (statics, recovery probes), so
// implementations must be safe for concurrent use. The sharded layout
// (Checkpointer.SetSharding) additionally issues concurrent Writes —
// and, on recovery, concurrent Reads — from its worker pool, always
// for distinct object names; implementations must support that too
// (distinct files or map keys make it natural). All three provided
// implementations satisfy the contract.
//
// Read-side concurrency under streaming restore: a sharded recovery
// (shard.Reader.Process via Checkpointer.Restore) issues up to
// storage-workers concurrent Reads for the group's shard objects and
// decodes each returned slice on the worker that read it, retaining it
// only until that shard's blocks are decoded. Because the returned
// slices are caller-owned, the decoder slices them zero-copy; an
// implementation that recycled Read buffers would corrupt restores.
// Reads of distinct names may also race a concurrent background Write
// of *different* names (an async save committing while an earlier
// checkpoint is restored); implementations must not serialize
// correctness on global mutable state beyond the per-name entries.
//
// Object layout under sharding: checkpoint seq N is either one
// monolithic object "ckpt-%012d" (the snapshot payload) or a group —
// shard objects "ckpt-%012d.s00000", ".s00001", … holding contiguous
// payload spans, plus a manifest under the plain "ckpt-%012d" name,
// written last as the commit point (see package shard for the commit
// protocol and the manifest format). Retention, recovery scans, and
// DropLatest all operate on the manifest name and treat the group as
// one checkpoint; shard objects without a manifest are orphans that
// recovery ignores and gc sweeps.
//
// Every implementation meets the whole contract; no caller probes for
// a method. A store with no cheaper batch path makes WriteBatched its
// Write, and one that leaves no temp artifacts returns nothing from
// SweepTemp.
type Storage interface {
	// Write stores data under name, replacing any previous content.
	// See the interface comment for the ownership rules on data.
	Write(name string, data []byte) error
	// WriteBatched is Write whose data is durable on return but whose
	// namespace entry may only become durable with the next Write to
	// the same store. The shard layer writes a group's shards through
	// it and commits them with the manifest's Write.
	WriteBatched(name string, data []byte) error
	// Read returns the content stored under name.
	Read(name string) ([]byte, error)
	// Delete removes name; deleting a missing name is not an error.
	Delete(name string) error
	// List returns all stored names in lexicographic order. It never
	// shows a "*.tmp" name: those are writes a crash interrupted.
	List() ([]string, error)
	// SweepTemp removes the "*.tmp" artifacts of interrupted writes and
	// returns their names, sorted. Only call it when no write can be in
	// flight (Fsck at startup): a sweep racing a live writer could
	// unlink a temp file about to be committed.
	SweepTemp() ([]string, error)
}

// DirStorage stores each object as a file in a directory.
type DirStorage struct {
	dir string
}

// NewDirStorage creates (if needed) and wraps the directory.
func NewDirStorage(dir string) (*DirStorage, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fti: create storage dir: %w", err)
	}
	return &DirStorage{dir: dir}, nil
}

func (s *DirStorage) path(name string) (string, error) {
	if name == "" || strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
		return "", fmt.Errorf("fti: invalid object name %q", name)
	}
	return filepath.Join(s.dir, name), nil
}

// Write stores data as a file, atomically via rename, fully durable:
// the temp file is fsynced before the rename (the rename orders the
// *name* but not the *data*, so without the sync a crash shortly
// after commit could leave a committed shard or manifest as an empty
// or partial file), and the directory is fsynced after it (a rename
// lives in the page cache only; without the directory sync a crash
// could persist a later operation — gc's unlink of the previous
// checkpoint — but not this commit).
func (s *DirStorage) Write(name string, data []byte) error {
	return s.write(name, data, true)
}

// WriteBatched is Write minus the directory fsync: the data is
// durable, the rename is issued, and the directory sync of the next
// full Write (the group's manifest commit, always in this same
// directory) makes every batched entry durable at once.
func (s *DirStorage) WriteBatched(name string, data []byte) error {
	return s.write(name, data, false)
}

func (s *DirStorage) write(name string, data []byte, syncDir bool) error {
	p, err := s.path(name)
	if err != nil {
		return err
	}
	tmp := p + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("fti: write %s: %w", name, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("fti: write %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("fti: sync %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fti: close %s: %w", name, err)
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fti: commit %s: %w", name, err)
	}
	if syncDir {
		d, err := os.Open(s.dir)
		if err != nil {
			// Failing to open the directory means the commit cannot be
			// made durable; report it rather than claim success.
			return fmt.Errorf("fti: sync dir for %s: %w", name, err)
		}
		syncErr := d.Sync()
		d.Close()
		if syncErr != nil {
			return fmt.Errorf("fti: sync dir for %s: %w", name, syncErr)
		}
	}
	return nil
}

// Read returns the file's contents.
func (s *DirStorage) Read(name string) ([]byte, error) {
	p, err := s.path(name)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, fmt.Errorf("fti: read %s: %w", name, err)
	}
	return data, nil
}

// Delete removes the file if present.
func (s *DirStorage) Delete(name string) error {
	p, err := s.path(name)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("fti: delete %s: %w", name, err)
	}
	return nil
}

// List returns stored names sorted.
func (s *DirStorage) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("fti: list: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || isTemp(e.Name()) {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

// SweepTemp removes stale "*.tmp" files left by writes that were
// interrupted between creating the temp file and renaming it over the
// final name. Crash points (1)–(2) of the commit protocol (temp
// written, temp fsynced — see Fsck) both strand exactly such a file.
func (s *DirStorage) SweepTemp() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("fti: sweep temp: %w", err)
	}
	var removed []string
	for _, e := range entries {
		if e.IsDir() || !isTemp(e.Name()) {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, e.Name())); err != nil && !os.IsNotExist(err) {
			return removed, fmt.Errorf("fti: sweep temp %s: %w", e.Name(), err)
		}
		removed = append(removed, e.Name())
	}
	sort.Strings(removed)
	return removed, nil
}

func isTemp(name string) bool { return strings.HasSuffix(name, ".tmp") }

// MemStorage is an in-memory Storage, safe for concurrent use.
type MemStorage struct {
	mu    sync.Mutex
	files map[string][]byte
}

// NewMemStorage returns an empty in-memory store.
func NewMemStorage() *MemStorage {
	return &MemStorage{files: map[string][]byte{}}
}

// Write stores a copy of data.
func (s *MemStorage) Write(name string, data []byte) error {
	if name == "" {
		return fmt.Errorf("fti: invalid object name %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files[name] = append([]byte(nil), data...)
	return nil
}

// WriteBatched is Write: memory has no namespace to sync.
func (s *MemStorage) WriteBatched(name string, data []byte) error { return s.Write(name, data) }

// Read returns a copy of the stored bytes.
func (s *MemStorage) Read(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("fti: read %s: not found", name)
	}
	return append([]byte(nil), data...), nil
}

// Delete removes the entry if present.
func (s *MemStorage) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.files, name)
	return nil
}

// List returns stored names sorted, hiding "*.tmp" entries as
// DirStorage's does.
func (s *MemStorage) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.files))
	for n := range s.files {
		if !isTemp(n) {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// SweepTemp removes the "*.tmp" entries a crashed write left.
func (s *MemStorage) SweepTemp() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var removed []string
	for n := range s.files {
		if isTemp(n) {
			delete(s.files, n)
			removed = append(removed, n)
		}
	}
	sort.Strings(removed)
	return removed, nil
}
