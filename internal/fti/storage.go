package fti

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Storage is where checkpoint bytes live: DirStorage writes real files
// (the PFS in the paper's setup), MemStorage keeps them in memory.
//
// Ownership: Write's data slice is the caller's, and an implementation
// must finish with it or copy it before returning (the Checkpointer
// reuses its encode buffers across saves). A slice Read returns is the
// caller's too: a sharded restore decodes it zero-copy on the worker
// that read it, so an implementation must not recycle Read buffers.
//
// Concurrency: the async pipeline writes on a background goroutine
// while the solver's goroutine reads, lists and deletes, and the shard
// layer writes, and a restore reads, distinct names from a worker pool.
// Implementations must be safe for that, with any state shared across
// names guarded (DirStorage's spare list is the one such state).
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
	// A crash may undo a Delete, and the deleted object's blocks may
	// back a later Write.
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

// DirStorage stores each object as a file in a directory. A file it
// deletes is kept as a spare that a later write overwrites in place,
// since freeing and allocating blocks costs more than writing them
// (BenchmarkStorageCommit). A directory has one DirStorage at a time:
// spares are numbered per store, so the same saves leave the same names.
type DirStorage struct {
	dir     string
	nspare  atomic.Uint64 // spares numbered so far
	mu      sync.Mutex
	retired []string // spares whose retirement is not yet durable
	spares  []string // spares a write may reuse
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
// the temp file is fsynced before the rename (which orders the name,
// not the data) and the directory after it (without that, a crash
// could persist gc's later retirement of the previous checkpoint but
// not this commit). The temp file is the newest reusable spare, if
// any; the directory fsync makes the spares retired before it
// reusable, and unlinks the reusable ones this commit left unused.
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
	s.mu.Lock()
	var sp string
	if n := len(s.spares); n > 0 {
		sp, s.spares = s.spares[n-1], s.spares[:n-1]
	}
	s.mu.Unlock()
	if sp != "" {
		_ = os.Rename(sp, tmp) // on failure, OpenFile starts a fresh file
	}
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("fti: write %s: %w", name, err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Truncate(int64(len(data))) // a spare may be longer
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, p)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("fti: write %s: %w", name, err)
	}
	if !syncDir {
		return nil
	}
	s.mu.Lock()
	unused, batch := s.spares, s.retired
	s.spares, s.retired = nil, nil
	s.mu.Unlock()
	for _, sp := range unused {
		os.Remove(sp)
	}
	d, err := os.Open(s.dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil { // the commit is not durable: report it, claim no success
		return fmt.Errorf("fti: sync dir for %s: %w", name, err)
	}
	s.mu.Lock()
	s.spares = append(s.spares, batch...)
	s.mu.Unlock()
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

// Delete retires the file if present: it is renamed to a spare, a
// "*.tmp" name no object's temp file has (object names never contain
// ".."). A write reuses the spare only after a directory fsync that
// began after this rename, so the committed name is durably gone first.
func (s *DirStorage) Delete(name string) error {
	p, err := s.path(name)
	if err != nil {
		return err
	}
	sp := filepath.Join(s.dir, fmt.Sprintf("spare..%d.tmp", s.nspare.Add(1)))
	switch err := os.Rename(p, sp); {
	case err == nil:
		s.mu.Lock()
		s.retired = append(s.retired, sp)
		s.mu.Unlock()
	case !os.IsNotExist(err):
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
// final name, and Delete's spares (a write then starts a fresh file).
// Crash points (1)–(2) of the commit protocol (temp written, temp
// fsynced — see Fsck) both strand exactly such a file.
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
