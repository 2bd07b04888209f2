package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

// memStore is a minimal concurrent-safe Storage for the tests,
// mirroring fti.MemStorage without importing the parent package.
type memStore struct {
	mu    sync.Mutex
	files map[string][]byte
}

func newMemStore() *memStore { return &memStore{files: map[string][]byte{}} }

func (s *memStore) Write(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files[name] = append([]byte(nil), data...)
	return nil
}

func (s *memStore) Read(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("not found: %s", name)
	}
	return append([]byte(nil), d...), nil
}

func (s *memStore) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.files, name)
	return nil
}

func (s *memStore) List() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	for n := range s.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// failStore fails Write for names containing a substring.
type failStore struct {
	Storage
	failSub string
}

func (s *failStore) Write(name string, data []byte) error {
	if s.failSub != "" && strings.Contains(name, s.failSub) {
		return fmt.Errorf("injected write failure for %s", name)
	}
	return s.Storage.Write(name, data)
}

func payloadOf(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i * 31)
	}
	return p
}

func TestSplitCoversAndAligns(t *testing.T) {
	aligned := []int{100, 200, 300, 400, 500, 600, 700, 800, 900}
	ranges := Split(1000, 4, aligned)
	if len(ranges) != 4 {
		t.Fatalf("want 4 ranges, got %d: %v", len(ranges), ranges)
	}
	// Coverage: contiguous, non-empty, exact.
	prev := 0
	for _, r := range ranges {
		if r.Start != prev || r.End <= r.Start {
			t.Fatalf("ranges not contiguous/non-empty: %v", ranges)
		}
		prev = r.End
	}
	if prev != 1000 {
		t.Fatalf("ranges cover %d of 1000", prev)
	}
	// Alignment: every interior cut sits on an aligned boundary (the
	// even cuts 250/500/750 snap to 200 or 300, 500, 700 or 800).
	for _, r := range ranges[1:] {
		found := false
		for _, a := range aligned {
			if r.Start == a {
				found = true
			}
		}
		if !found {
			t.Fatalf("cut %d not on an aligned boundary", r.Start)
		}
	}
}

func TestSplitNoAlignmentFallsBackEven(t *testing.T) {
	ranges := Split(1000, 4, nil)
	want := []Range{{0, 250}, {250, 500}, {500, 750}, {750, 1000}}
	for i, r := range ranges {
		if r != want[i] {
			t.Fatalf("even split mismatch: got %v want %v", ranges, want)
		}
	}
}

func TestSplitDistantBoundariesIgnored(t *testing.T) {
	// Only boundary is near the end: even cuts must not all snap to it.
	ranges := Split(1000, 4, []int{990})
	if len(ranges) != 4 {
		t.Fatalf("want 4 ranges, got %v", ranges)
	}
	if ranges[1].Start != 250 || ranges[2].Start != 500 {
		t.Fatalf("distant boundary distorted the split: %v", ranges)
	}
}

func TestSplitClampsToPayload(t *testing.T) {
	ranges := Split(3, 8, nil)
	if len(ranges) != 3 {
		t.Fatalf("3-byte payload must clamp to 3 shards, got %v", ranges)
	}
	if r := Split(0, 4, nil); len(r) != 1 || r[0] != (Range{0, 0}) {
		t.Fatalf("empty payload: %v", r)
	}
}

func TestShardNameRoundTrip(t *testing.T) {
	base := "ckpt-000000000007"
	for _, i := range []int{0, 1, 99999} {
		name := ShardName(base, i)
		got, idx, ok := ShardBase(name)
		if !ok || got != base {
			t.Fatalf("ShardBase(%q) = %q, %v", name, got, ok)
		}
		if idx != i {
			t.Fatalf("ShardBase(%q) index = %d, want %d", name, idx, i)
		}
	}
	for _, bad := range []string{"ckpt-000000000007", "x.s123", "x.s1234567", "x.sabcde", ".s00000", "static-a"} {
		if base, _, ok := ShardBase(bad); ok {
			t.Fatalf("ShardBase(%q) accepted as shard of %q", bad, base)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, workers := range []int{0, 1, 3} {
		for _, shards := range []int{2, 4, 8} {
			st := newMemStore()
			payload := payloadOf(10_000)
			written, err := Write(st, "ckpt-000000000001", "sz", payload, []int{1000, 2000, 5000, 9000},
				Options{Shards: shards, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if written != shards {
				t.Fatalf("wrote %d shards, want %d", written, shards)
			}
			names, _ := st.List()
			if len(names) != shards+1 {
				t.Fatalf("storage holds %d objects, want %d shards + manifest", len(names), shards)
			}
			manData, err := st.Read("ckpt-000000000001")
			if err != nil {
				t.Fatal(err)
			}
			if !IsManifest(manData) {
				t.Fatal("base object is not a manifest")
			}
			m, err := ParseManifest(manData)
			if err != nil {
				t.Fatal(err)
			}
			if m.Encoder != "sz" || m.Total != len(payload) || len(m.Shards) != shards {
				t.Fatalf("manifest %+v", m)
			}
			got, err := readAll(st, m, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatal("reassembled payload differs")
			}
		}
	}
}

func TestWriteShardFailureRollsBack(t *testing.T) {
	st := newMemStore()
	fs := &failStore{Storage: st, failSub: ".s00002"}
	_, err := Write(fs, "ckpt-000000000001", "sz", payloadOf(4096), nil, Options{Shards: 4})
	if err == nil {
		t.Fatal("want write error")
	}
	names, _ := st.List()
	if len(names) != 0 {
		t.Fatalf("failed write left objects behind: %v", names)
	}
}

func TestWriteManifestFailureRollsBack(t *testing.T) {
	st := newMemStore()
	// Shard names contain the base as a prefix, so fail only the exact
	// base name — the manifest commit.
	wrapped := &manifestFailStore{Storage: st, base: "ckpt-000000000001"}
	_, err := Write(wrapped, "ckpt-000000000001", "sz", payloadOf(4096), nil, Options{Shards: 4})
	if err == nil {
		t.Fatal("want manifest commit error")
	}
	names, _ := st.List()
	if len(names) != 0 {
		t.Fatalf("failed commit left objects behind: %v", names)
	}
}

type manifestFailStore struct {
	Storage
	base string
}

func (s *manifestFailStore) Write(name string, data []byte) error {
	if name == s.base {
		return fmt.Errorf("injected manifest failure")
	}
	return s.Storage.Write(name, data)
}

func TestReadDetectsMissingAndCorrupt(t *testing.T) {
	newGroup := func() (*memStore, *Manifest) {
		st := newMemStore()
		if _, err := Write(st, "ckpt-000000000001", "sz", payloadOf(8192), nil, Options{Shards: 4}); err != nil {
			t.Fatal(err)
		}
		man, _ := st.Read("ckpt-000000000001")
		m, err := ParseManifest(man)
		if err != nil {
			t.Fatal(err)
		}
		return st, m
	}

	st, m := newGroup()
	_ = st.Delete(m.Shards[2].Name)
	if _, err := readAll(st, m, Options{}); err == nil || !strings.Contains(err.Error(), "missing shard") {
		t.Fatalf("missing shard not detected: %v", err)
	}

	st, m = newGroup()
	data, _ := st.Read(m.Shards[1].Name)
	data[len(data)/2] ^= 0xFF
	_ = st.Write(m.Shards[1].Name, data)
	if _, err := readAll(st, m, Options{}); err == nil || !strings.Contains(err.Error(), "CRC32C") {
		t.Fatalf("corrupted shard not detected: %v", err)
	}

	st, m = newGroup()
	data, _ = st.Read(m.Shards[0].Name)
	_ = st.Write(m.Shards[0].Name, data[:len(data)-1])
	if _, err := readAll(st, m, Options{}); err == nil || !strings.Contains(err.Error(), "bytes") {
		t.Fatalf("truncated shard not detected: %v", err)
	}
}

func TestDeleteRemovesGroupManifestFirst(t *testing.T) {
	st := newMemStore()
	if _, err := Write(st, "ckpt-000000000001", "sz", payloadOf(4096), nil, Options{Shards: 3}); err != nil {
		t.Fatal(err)
	}
	// An unrelated monolithic object and a different group survive.
	_ = st.Write("ckpt-000000000002", []byte("mono"))
	if err := Delete(st, "ckpt-000000000001"); err != nil {
		t.Fatal(err)
	}
	names, _ := st.List()
	if len(names) != 1 || names[0] != "ckpt-000000000002" {
		t.Fatalf("delete left %v", names)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		Encoder: "sz",
		Total:   300,
		Shards: []Info{
			{Name: ShardName("ckpt-000000000009", 0), Size: 100, CRC: 0xDEADBEEF},
			{Name: ShardName("ckpt-000000000009", 1), Size: 200, CRC: 1},
		},
	}
	got, err := ParseManifest(AppendManifest(nil, m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Encoder != m.Encoder || got.Total != m.Total || len(got.Shards) != 2 ||
		got.Shards[0] != m.Shards[0] || got.Shards[1] != m.Shards[1] {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, m)
	}
}

// TestCraftedManifestsRejected: manifests with absurd shard counts or
// sizes must be rejected before any allocation is sized from them —
// the shard-layer mirror of the SZG2 header hardening. Every crafted
// case re-seals the CRC trailer so it exercises the structural checks,
// not just the checksum.
func TestCraftedManifestsRejected(t *testing.T) {
	valid := &Manifest{
		Encoder: "sz",
		Total:   128,
		Shards: []Info{
			{Name: ShardName("ckpt-000000000001", 0), Size: 64, CRC: 7},
			{Name: ShardName("ckpt-000000000001", 1), Size: 64, CRC: 8},
		},
	}
	base := AppendManifest(nil, valid)
	if _, err := ParseManifest(base); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}

	cases := []struct {
		name string
		m    *Manifest
	}{
		{"sizes exceed total", &Manifest{Encoder: "sz", Total: 10, Shards: []Info{
			{Name: ShardName("x", 0), Size: 11, CRC: 0}}}},
		{"sum mismatch", &Manifest{Encoder: "sz", Total: 100, Shards: []Info{
			{Name: ShardName("x", 0), Size: 10, CRC: 0},
			{Name: ShardName("x", 1), Size: 10, CRC: 0}}}},
		{"malformed shard name", &Manifest{Encoder: "sz", Total: 10, Shards: []Info{
			{Name: "not-a-shard", Size: 10, CRC: 0}}}},
		{"no shards", &Manifest{Encoder: "sz", Total: 0, Shards: nil}},
	}
	for _, tc := range cases {
		if _, err := ParseManifest(AppendManifest(nil, tc.m)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// Hand-crafted: a shard count far beyond the bytes present. The
	// count check must fire before make([]Info, n).
	huge := craftManifest(t, "sz", 1<<40, 1<<40)
	if _, err := ParseManifest(huge); err == nil {
		t.Fatal("manifest with 2^40 shards accepted")
	}
	// Shard count just over MaxShards with a plausible byte budget.
	over := craftManifest(t, "sz", 1<<30, MaxShards+1)
	if _, err := ParseManifest(over); err == nil {
		t.Fatal("manifest beyond MaxShards accepted")
	}
	// Corrupt trailer.
	bad := append([]byte(nil), base...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := ParseManifest(bad); err == nil {
		t.Fatal("manifest with bad CRC accepted")
	}
	// Truncations at every length must error, never panic.
	for i := 0; i < len(base); i++ {
		if _, err := ParseManifest(base[:i]); err == nil {
			t.Fatalf("truncated manifest (%d bytes) accepted", i)
		}
	}
}

// craftManifest builds a syntactically framed manifest claiming the
// given total and shard count, with a correct CRC trailer but no
// entries behind the count.
func craftManifest(t *testing.T, encoder string, total, nShards uint64) []byte {
	t.Helper()
	out := []byte(manifestMagic)
	out = append(out, manifestVersion)
	out = appendUvarint(out, uint64(len(encoder)))
	out = append(out, encoder...)
	out = appendUvarint(out, total)
	out = appendUvarint(out, nShards)
	return sealManifest(out)
}

// sealManifest appends the CRC32C trailer over body, producing a
// checksum-valid manifest so parse tests exercise the structural
// validation rather than the trailer check.
func sealManifest(body []byte) []byte {
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], Checksum(body))
	return append(body, b4[:]...)
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// readerGroup writes a deterministic payload as a 5-shard group and
// returns the store, the parsed manifest, and the payload.
func readerGroup(t *testing.T, n int) (*memStore, *Manifest, []byte) {
	t.Helper()
	st := newMemStore()
	payload := payloadOf(n)
	if _, err := Write(st, "ckpt-000000000001", "sz", payload, nil, Options{Shards: 5}); err != nil {
		t.Fatal(err)
	}
	man, _ := st.Read("ckpt-000000000001")
	m, err := ParseManifest(man)
	if err != nil {
		t.Fatal(err)
	}
	return st, m, payload
}

// TestReaderBytes: every span — inside one shard, across boundaries,
// whole payload, empty — must match the reassembled payload, and
// in-shard spans must be served zero-copy from the chunk.
func TestReaderBytes(t *testing.T) {
	st, m, payload := readerGroup(t, 10_000)
	r := NewReader(st, m)
	if r.Total() != len(payload) {
		t.Fatalf("Total %d != %d", r.Total(), len(payload))
	}
	offs := r.Offsets()
	if len(offs) != len(m.Shards)+1 || offs[len(offs)-1] != len(payload) {
		t.Fatalf("bad offsets %v", offs)
	}
	spans := [][2]int{
		{0, 0},
		{0, len(payload)},
		{offs[1] - 3, offs[1] + 3}, // straddles a boundary
		{offs[2], offs[3]},         // exactly one shard
		{offs[1] + 1, offs[2] - 1}, // inside one shard
		{len(payload) - 1, len(payload)},
	}
	for _, sp := range spans {
		got, err := r.Bytes(sp[0], sp[1])
		if err != nil {
			t.Fatalf("Bytes(%d,%d): %v", sp[0], sp[1], err)
		}
		if !bytes.Equal(got, payload[sp[0]:sp[1]]) {
			t.Fatalf("Bytes(%d,%d) mismatch", sp[0], sp[1])
		}
	}
	if _, err := r.Bytes(-1, 3); err == nil {
		t.Fatal("negative start accepted")
	}
	if _, err := r.Bytes(0, len(payload)+1); err == nil {
		t.Fatal("overlong span accepted")
	}
}

// TestReaderProcess: every shard chunk is handed over exactly once
// with its payload offset, shards already fetched by Bytes included.
func TestReaderProcess(t *testing.T) {
	st, m, payload := readerGroup(t, 10_000)
	r := NewReader(st, m)
	if _, err := r.Bytes(0, 10); err != nil { // pre-fetch shard 0
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := make(map[int]int)
	rebuilt := make([]byte, len(payload))
	err := r.Process(Options{Workers: 3}, func(i, start int, chunk []byte) error {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		copy(rebuilt[start:], chunk)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Shards {
		if seen[i] != 1 {
			t.Fatalf("shard %d processed %d times", i, seen[i])
		}
	}
	if !bytes.Equal(rebuilt, payload) {
		t.Fatal("processed chunks do not reassemble the payload")
	}
}

// TestReaderRejectsCorruptAndMissing: both access paths must fail on
// a bad shard, naming it.
func TestReaderRejectsCorruptAndMissing(t *testing.T) {
	st, m, _ := readerGroup(t, 10_000)
	bad, _ := st.Read(m.Shards[3].Name)
	bad[0] ^= 0xff
	_ = st.Write(m.Shards[3].Name, bad)
	r := NewReader(st, m)
	if _, err := r.Bytes(r.Offsets()[3], r.Offsets()[4]); err == nil || !strings.Contains(err.Error(), "CRC32C") {
		t.Fatalf("corrupt shard served by Bytes: %v", err)
	}
	if err := r.Process(Options{}, func(int, int, []byte) error { return nil }); err == nil || !strings.Contains(err.Error(), "CRC32C") {
		t.Fatalf("corrupt shard passed Process: %v", err)
	}

	st2, m2, _ := readerGroup(t, 10_000)
	_ = st2.Delete(m2.Shards[1].Name)
	r2 := NewReader(st2, m2)
	if err := r2.Process(Options{}, func(int, int, []byte) error { return nil }); err == nil || !strings.Contains(err.Error(), "missing shard") {
		t.Fatalf("missing shard passed Process: %v", err)
	}
}

// TestReaderPrefetch: prefetched spans are served from cache, already
// cached shards are not re-read, and a corrupt shard in the span
// fails the prefetch.
func TestReaderPrefetch(t *testing.T) {
	st, m, payload := readerGroup(t, 10_000)
	r := NewReader(st, m)
	offs := r.Offsets()
	if err := r.Prefetch(offs[1], offs[4], Options{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	got, err := r.Bytes(offs[1], offs[4])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload[offs[1]:offs[4]]) {
		t.Fatal("prefetched span mismatch")
	}
	if err := r.Prefetch(0, len(payload), Options{}); err != nil {
		t.Fatal(err)
	}
	if err := r.Prefetch(0, 0, Options{}); err != nil {
		t.Fatal(err)
	}
	if err := r.Prefetch(-1, 4, Options{}); err == nil {
		t.Fatal("negative start accepted")
	}

	st2, m2, _ := readerGroup(t, 10_000)
	bad, _ := st2.Read(m2.Shards[2].Name)
	bad[3] ^= 0x55
	_ = st2.Write(m2.Shards[2].Name, bad)
	r2 := NewReader(st2, m2)
	if err := r2.Prefetch(0, r2.Total(), Options{}); err == nil || !strings.Contains(err.Error(), "CRC32C") {
		t.Fatalf("corrupt shard passed Prefetch: %v", err)
	}
}

// readAll reassembles a group's payload through the Reader: every shard
// fetched and verified over the worker pool, then the bytes stitched.
func readAll(st Storage, m *Manifest, opt Options) ([]byte, error) {
	r := NewReader(st, m)
	if err := r.Prefetch(0, r.Total(), opt); err != nil {
		return nil, err
	}
	return r.Bytes(0, r.Total())
}
