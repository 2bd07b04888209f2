package shard

import (
	"strings"
	"sync"
	"testing"
)

// tornStore corrupts the first N reads of a chosen name in flight —
// the bytes at rest stay intact, modeling a transient read-side fault
// — while persistent=true keeps returning corrupt bytes forever,
// modeling at-rest corruption.
type tornStore struct {
	Storage
	mu         sync.Mutex
	name       string
	torn       int
	persistent bool
	reads      int
}

func (s *tornStore) Read(name string) ([]byte, error) {
	data, err := s.Storage.Read(name)
	if err != nil || name != s.name {
		return data, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reads++
	if s.persistent || s.torn > 0 {
		if s.torn > 0 {
			s.torn--
		}
		data[len(data)/2] ^= 0xFF
	}
	return data, nil
}

func manifestOf(t *testing.T, st Storage, base string) *Manifest {
	t.Helper()
	data, err := st.Read(base)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFetchVerifyReReadsTransientCorruption(t *testing.T) {
	st := newMemStore()
	payload := payloadOf(8192)
	if _, err := Write(st, "ckpt-000000000001", "sz", payload, nil, Options{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	m := manifestOf(t, st, "ckpt-000000000001")
	// One in-flight corruption: the first read of shard 2 is torn, the
	// re-read sees the intact at-rest bytes and repairs the fetch.
	ts := &tornStore{Storage: st, name: m.Shards[2].Name, torn: 1}
	got, err := readAll(ts, m, Options{Workers: 1})
	if err != nil {
		t.Fatalf("transient read corruption should be absorbed by re-reads: %v", err)
	}
	if len(got) != len(payload) || got[4100] != payload[4100] {
		t.Fatal("reassembled payload differs")
	}
	if ts.reads != 2 {
		t.Fatalf("expected exactly one re-read of the torn shard, saw %d reads", ts.reads)
	}
}

func TestFetchVerifyStillRejectsPersistentCorruption(t *testing.T) {
	st := newMemStore()
	if _, err := Write(st, "ckpt-000000000001", "sz", payloadOf(8192), nil, Options{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	m := manifestOf(t, st, "ckpt-000000000001")
	ts := &tornStore{Storage: st, name: m.Shards[1].Name, persistent: true}
	if _, err := readAll(ts, m, Options{Workers: 1}); err == nil || !strings.Contains(err.Error(), "CRC32C") {
		t.Fatalf("persistent corruption must still fail the group, got %v", err)
	}
	// The first read plus maxRereads re-reads, no more: persistent
	// damage must not be retried forever.
	if ts.reads != 1+maxRereads {
		t.Fatalf("saw %d reads, want %d", ts.reads, 1+maxRereads)
	}
}
