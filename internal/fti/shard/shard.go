// Package shard implements sharded checkpoint storage: one encoded
// checkpoint payload is split into N independently written shard
// objects plus a small manifest that names them. The decomposition is
// the same one FTI-style multi-level checkpointing uses to engage
// parallel-file-system stripes — each shard streams through its own
// stripe (or its own worker goroutine on a local store), so the
// storage stage of the checkpoint pipeline scales with workers
// instead of being one serial monolithic write.
//
// Commit protocol (atomic by construction):
//
//  1. every shard object is written first, fanned out over a bounded
//     worker pool;
//  2. the manifest — shard names, sizes, per-shard CRC32C checksums,
//     the encoder mode, and the total payload length — is written
//     last, under the checkpoint's own name.
//
// A checkpoint group therefore exists exactly when its manifest does.
// Readers that find shard objects without a manifest (a write aborted
// by a crash) ignore them as orphans; readers that find a manifest
// whose shards are missing or fail their checksum reject the whole
// group, so recovery falls back to the previous committed checkpoint —
// the paper's failure-during-checkpoint path. Deletion inverts the
// order: manifest first (the group instantly stops being a recovery
// target), then the shards, so a crash mid-delete leaves only
// ignorable orphans, never a manifest pointing at deleted data.
package shard

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// Storage is the minimal object-store contract the shard layer needs.
// It is structurally identical to fti.Storage (which satisfies it), and
// is redeclared here so the fti package can build on this one without
// an import cycle. Write is called concurrently from the worker pool —
// always with distinct names — so implementations must tolerate
// concurrent writes to distinct objects.
type Storage interface {
	Write(name string, data []byte) error
	Read(name string) ([]byte, error)
	Delete(name string) error
	List() ([]string, error)
}

// BatchWriter is an optional Storage extension the shard writer uses
// for the shard objects of one group: WriteBatched must make the
// object's *data* durable but may defer making its namespace entry
// durable until the next full Write to the same store. The manifest is
// always committed with a full Write after the batch, so on a
// directory store one directory fsync commits the entire group —
// N shards cost N data flushes but a single namespace flush, and the
// commit protocol stays intact (no manifest entry can become durable
// ahead of it in the same directory sync). Stores without the
// extension just get a full Write per shard.
type BatchWriter interface {
	WriteBatched(name string, data []byte) error
}

const (
	manifestMagic   = "FTSM"
	manifestVersion = 1

	// MaxShards bounds the shard count a writer accepts and a manifest
	// parser believes. Far above any sane fan-out; its job is to make
	// crafted manifests fail fast, mirroring the container header hardening.
	MaxShards = 1 << 16

	// maxNameLen bounds each shard name in a manifest; real names are
	// "ckpt-%012d.s%05d" (25 bytes).
	maxNameLen = 255
)

// castagnoli is the CRC32C polynomial table — the checksum storage
// systems (iSCSI, ext4, Lustre) use, distinct from the IEEE CRC32 the
// snapshot trailer uses, so a manifest can never be mistaken for a
// payload integrity check.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of data, the per-shard checksum recorded
// in the manifest.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// Info describes one shard object of a committed group.
type Info struct {
	Name string // storage object name
	Size int    // exact byte length
	CRC  uint32 // CRC32C of the object's bytes
}

// Manifest describes a committed sharded checkpoint: the encoder that
// produced the payload, its total reassembled length, and the shard
// objects in payload order.
type Manifest struct {
	Encoder string
	Total   int
	Shards  []Info
}

// Options tune a sharded write or read.
type Options struct {
	// Shards is the number of shard objects per checkpoint. Values
	// below 2 are the caller's monolithic path; Write clamps to the
	// payload length so no shard is empty.
	Shards int
	// Workers bounds the worker pool that writes/reads shard objects
	// concurrently; 0 means parallel.Workers(). The pool never exceeds
	// the shard count.
	Workers int
	// Metrics, when non-nil, receives per-shard-object write/read
	// timings, bytes, and integrity failures (see NewMetrics).
	Metrics *Metrics
	// Tracer/Track, when Tracer is non-nil, receive the shard-write
	// fan-out and manifest-commit lifecycle spans.
	Tracer *obs.Tracer
	Track  int
}

// ShardName returns the storage object name of shard i of group base.
func ShardName(base string, i int) string {
	return fmt.Sprintf("%s.s%05d", base, i)
}

// ShardBase reports whether name is a shard object name and, if so,
// the base (manifest) name of its group and the shard's index.
func ShardBase(name string) (base string, idx int, ok bool) {
	i := strings.LastIndex(name, ".s")
	if i <= 0 {
		return "", 0, false
	}
	digits := name[i+2:]
	if len(digits) != 5 {
		return "", 0, false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return "", 0, false
		}
		idx = idx*10 + int(c-'0')
	}
	return name[:i], idx, true
}

// Split partitions [0, totalLen) into n contiguous byte ranges. Each
// cut starts at its even-split position and snaps to the nearest
// aligned boundary (a sorted list of offsets, e.g. container block starts
// within the payload) when one lies within half an even span — shards
// then hold whole compression blocks, at the cost of mild imbalance.
// n is clamped so every range is non-empty.
func Split(totalLen, n int, aligned []int) []Range {
	if n < 1 {
		n = 1
	}
	if n > totalLen {
		n = totalLen
	}
	if totalLen == 0 || n <= 1 {
		return []Range{{0, totalLen}}
	}
	span := totalLen / n
	ranges := make([]Range, 0, n)
	start := 0
	ai := 0
	for k := 1; k < n; k++ {
		ideal := k * totalLen / n
		cut := ideal
		// Advance to the aligned boundary closest to ideal.
		for ai < len(aligned) && aligned[ai] < ideal {
			ai++
		}
		best, found := 0, false
		if ai < len(aligned) && aligned[ai] < totalLen {
			best, found = aligned[ai], true
		}
		if ai > 0 && aligned[ai-1] > start {
			if !found || ideal-aligned[ai-1] < best-ideal {
				best, found = aligned[ai-1], true
			}
		}
		if found && abs(best-ideal) <= span/2 && best > start && best < totalLen {
			cut = best
		}
		if cut <= start {
			continue // degenerate: skip the cut rather than emit an empty shard
		}
		ranges = append(ranges, Range{start, cut})
		start = cut
	}
	return append(ranges, Range{start, totalLen})
}

// Range is a half-open [Start, End) byte span of the payload.
type Range struct {
	Start, End int
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func (o Options) workers(shards int) int {
	w := o.Workers
	if w <= 0 {
		w = parallel.Workers()
	}
	if w > shards {
		w = shards
	}
	return w
}

// Write stores payload under base as a sharded group: the shard
// objects first, fanned out over the bounded worker pool, then the
// manifest last (the commit point). aligned lists preferred cut
// offsets within payload (sorted ascending; nil for even splits). On
// any shard failure the already-written shards are best-effort deleted
// and no manifest is written, so the group never becomes visible. The
// shard count actually used (≥ 1) is returned.
func Write(st Storage, base, encoder string, payload []byte, aligned []int, opt Options) (int, error) {
	n := opt.Shards
	if n > MaxShards {
		return 0, fmt.Errorf("shard: %d shards exceed the %d maximum", n, MaxShards)
	}
	ranges := Split(len(payload), n, aligned)
	n = len(ranges)
	m := &Manifest{Encoder: encoder, Total: len(payload), Shards: make([]Info, n)}
	writeShard := st.Write
	if bw, ok := st.(BatchWriter); ok {
		writeShard = bw.WriteBatched
	}
	errs := make([]error, n)
	fanout := opt.Tracer.Begin(opt.Track, obs.CatCheckpoint, obs.SpanShardWrite)
	parallel.ForBounded(n, 1, opt.workers(n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			chunk := payload[ranges[i].Start:ranges[i].End]
			name := ShardName(base, i)
			m.Shards[i] = Info{Name: name, Size: len(chunk), CRC: Checksum(chunk)}
			start := opt.Metrics.now()
			errs[i] = writeShard(name, chunk)
			if errs[i] == nil {
				opt.Metrics.observeWrite(time.Since(start).Seconds(), len(chunk))
			}
		}
	})
	fanout.EndArgs(map[string]float64{"shards": float64(n), "bytes": float64(len(payload))})
	for i, err := range errs {
		if err != nil {
			// Roll back: the group must not be half-visible. Failures
			// here are tolerable — shards without a manifest are
			// orphans that every reader ignores and gc sweeps.
			for j := range m.Shards {
				if errs[j] == nil {
					_ = st.Delete(m.Shards[j].Name)
				}
			}
			return 0, fmt.Errorf("shard: write %s: %w", ShardName(base, i), err)
		}
	}
	commit := opt.Tracer.Begin(opt.Track, obs.CatCheckpoint, obs.SpanShardCommit)
	defer commit.End()
	if err := st.Write(base, AppendManifest(nil, m)); err != nil {
		// The write may have failed *after* making the manifest visible
		// (e.g. a directory-store sync failure post-rename); delete the
		// base first so no manifest can outlive its shards and count as
		// an unrecoverable-but-present checkpoint.
		_ = st.Delete(base)
		for i := range m.Shards {
			_ = st.Delete(m.Shards[i].Name)
		}
		return 0, fmt.Errorf("shard: commit manifest %s: %w", base, err)
	}
	return n, nil
}

// maxRereads is how many fresh reads a verification failure earns
// before the shard is rejected: a transient read-side fault (a torn
// page from a flaky NFS client, a mid-flight buffer corruption)
// produces wrong bytes exactly once, while genuine at-rest corruption
// reproduces on every re-read — so two extra attempts cleanly split
// the cases without retrying persistent damage forever.
const maxRereads = 2

// fetchVerify reads shard i of m and verifies it against its manifest
// size and CRC32C — the single read-side integrity gate of the Reader,
// so no payload byte is ever served unverified. A size or checksum mismatch earns up to
// maxRereads fresh reads (hedged degraded reads) before the shard —
// and with it the group — is abandoned: recovery should only fall a
// tier when the bytes at rest are truly bad, not when one read went
// wrong in flight.
func fetchVerify(st Storage, m *Manifest, i int, met *Metrics) ([]byte, error) {
	s := m.Shards[i]
	start := met.now()
	data, err := st.Read(s.Name)
	if err != nil {
		met.observeReadFailure()
		return nil, fmt.Errorf("shard: missing shard %s: %w", s.Name, err)
	}
	verify := func(d []byte) error {
		if len(d) != s.Size {
			return fmt.Errorf("shard: shard %s is %d bytes, manifest says %d", s.Name, len(d), s.Size)
		}
		if Checksum(d) != s.CRC {
			met.observeCRCFailure()
			return fmt.Errorf("shard: shard %s fails its CRC32C (corrupt)", s.Name)
		}
		return nil
	}
	verr := verify(data)
	for r := 0; verr != nil && r < maxRereads; r++ {
		met.observeReread()
		again, err := st.Read(s.Name)
		if err != nil {
			break // the object degraded from corrupt to unreadable; give up
		}
		if e := verify(again); e == nil {
			met.observeRereadRepair()
			data, verr = again, nil
			break
		}
	}
	if verr != nil {
		met.observeReadFailure()
		return nil, verr
	}
	met.observeRead(time.Since(start).Seconds(), len(data))
	return data, nil
}

// Reader provides streaming access to a committed shard group without
// reassembling its payload. Byte ranges are served straight from the
// verified shard chunks — zero-copy when a range lies inside one shard,
// a small stitched copy otherwise — and Process fans the chunks out
// over a bounded worker pool so read, checksum verification, and the
// caller's decode overlap across shards. Every served byte comes from
// a chunk that already passed its manifest size and CRC32C checks, and
// any missing, truncated, or corrupt shard fails the group, so callers
// fall back to an older checkpoint.
//
// A Reader serves one restore attempt on one goroutine: Bytes is the
// serial skeleton-parsing phase, Process the terminal parallel decode
// phase (it releases each chunk after its callback returns, so Bytes
// must not be used afterwards).
type Reader struct {
	st      Storage
	m       *Manifest
	offs    []int // offs[i] = payload offset of shard i; offs[n] = Total
	chunks  [][]byte
	fetched []bool
	met     *Metrics
}

// Instrument attaches a metrics bundle to the reader's shard fetches;
// nil detaches. Call before the first read.
func (r *Reader) Instrument(met *Metrics) { r.met = met }

// NewReader wraps a parsed manifest for streaming reads.
func NewReader(st Storage, m *Manifest) *Reader {
	offs := make([]int, len(m.Shards)+1)
	for i, s := range m.Shards {
		offs[i+1] = offs[i] + s.Size
	}
	return &Reader{
		st: st, m: m, offs: offs,
		chunks:  make([][]byte, len(m.Shards)),
		fetched: make([]bool, len(m.Shards)),
	}
}

// OneChunk wraps a payload already in memory — a monolithic checkpoint,
// whose integrity the caller has checked — as the reader of a group of
// one chunk, so a restore walks both layouts the same way.
func OneChunk(payload []byte) *Reader {
	return &Reader{
		m:       &Manifest{Total: len(payload), Shards: []Info{{Size: len(payload)}}},
		offs:    []int{0, len(payload)},
		chunks:  [][]byte{payload},
		fetched: []bool{true},
	}
}

// Total returns the reassembled payload length the group represents.
func (r *Reader) Total() int { return r.offs[len(r.offs)-1] }

// Offsets returns the payload offset of every shard boundary:
// Offsets()[i] is where shard i begins and Offsets()[len(shards)] is
// Total(). Callers must not modify the returned slice.
func (r *Reader) Offsets() []int { return r.offs }

// shardAt returns the index of the shard containing payload offset
// off (off < Total), skipping any zero-size shards.
func (r *Reader) shardAt(off int) int {
	return sort.Search(len(r.offs)-1, func(i int) bool { return r.offs[i+1] > off })
}

// chunk returns shard i's verified content, reading it on first touch.
func (r *Reader) chunk(i int) ([]byte, error) {
	if !r.fetched[i] {
		data, err := fetchVerify(r.st, r.m, i, r.met)
		if err != nil {
			return nil, err
		}
		r.chunks[i], r.fetched[i] = data, true
	}
	return r.chunks[i], nil
}

// Bytes returns payload bytes [start, end): a zero-copy sub-slice of
// one shard's chunk when the span lies inside it, otherwise a fresh
// stitched copy. Shards are fetched and verified on first touch.
// Serial use only; Process is the concurrent path.
func (r *Reader) Bytes(start, end int) ([]byte, error) {
	if start < 0 || end < start || end > r.Total() {
		return nil, fmt.Errorf("shard: byte range [%d,%d) outside payload of %d bytes", start, end, r.Total())
	}
	if start == end {
		return []byte{}, nil
	}
	i := r.shardAt(start)
	if end <= r.offs[i+1] {
		c, err := r.chunk(i)
		if err != nil {
			return nil, err
		}
		return c[start-r.offs[i] : end-r.offs[i]], nil
	}
	out := make([]byte, 0, end-start)
	for start < end {
		c, err := r.chunk(i)
		if err != nil {
			return nil, err
		}
		hi := end
		if hi > r.offs[i+1] {
			hi = r.offs[i+1]
		}
		out = append(out, c[start-r.offs[i]:hi-r.offs[i]]...)
		start = hi
		i++
	}
	return out, nil
}

// Prefetch fetches and verifies every not-yet-cached shard overlapping
// payload range [start, end) over the bounded worker pool, so a
// subsequent Bytes call for the range is served from cache instead of
// fetching shard-by-shard on the calling goroutine. Serial-phase use
// only (call it between Bytes calls, not concurrently with them); the
// fan-out inside is the same bounded pool Process uses.
func (r *Reader) Prefetch(start, end int, opt Options) error {
	if start < 0 || end < start || end > r.Total() {
		return fmt.Errorf("shard: byte range [%d,%d) outside payload of %d bytes", start, end, r.Total())
	}
	if start == end {
		return nil
	}
	lo := r.shardAt(start)
	hi := r.shardAt(end - 1)
	n := hi - lo + 1
	errs := make([]error, n)
	parallel.ForBounded(n, 1, opt.workers(n), func(a, b int) {
		for i := a; i < b; i++ {
			s := lo + i
			if r.fetched[s] {
				continue
			}
			data, err := fetchVerify(r.st, r.m, s, r.met)
			if err != nil {
				errs[i] = err
				continue
			}
			r.chunks[s], r.fetched[s] = data, true
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Process fetches and verifies every shard of the group over a bounded
// worker pool — including shards the caller has no work for, so a
// corrupt or missing shard anywhere rejects the whole group — and
// hands each verified chunk to fn exactly once as fn(i, start, chunk),
// where start is the chunk's payload offset. The chunk is released
// after fn returns, keeping transient memory proportional to the
// in-flight shards rather than the payload; chunks already fetched by
// Bytes are handed over without a second read. fn must be safe for
// concurrent calls on distinct shards. The first shard or fn error
// fails the group.
func (r *Reader) Process(opt Options, fn func(i, start int, chunk []byte) error) error {
	n := len(r.m.Shards)
	errs := make([]error, n)
	parallel.ForBounded(n, 1, opt.workers(n), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			c, err := r.chunk(i)
			if err != nil {
				errs[i] = err
				continue
			}
			errs[i] = fn(i, r.offs[i], c)
			r.chunks[i] = nil // release; decode output lives elsewhere
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Delete removes the group stored under base: the manifest (or
// monolithic object) first — the group instantly stops being a
// recovery target — then any shard objects of base still listed.
// Shard deletions are best effort; leftovers are orphans that readers
// ignore and a later gc sweeps.
func Delete(st Storage, base string) error {
	if err := st.Delete(base); err != nil {
		return err
	}
	names, err := st.List()
	if err != nil {
		return nil // listing is advisory here; orphans are harmless
	}
	for _, n := range names {
		if b, _, ok := ShardBase(n); ok && b == base {
			_ = st.Delete(n)
		}
	}
	return nil
}

// IsManifest reports whether data begins with the shard-manifest
// magic — the cheap test the restore path uses to tell a sharded
// checkpoint from a monolithic payload stored under the same name.
func IsManifest(data []byte) bool {
	return len(data) >= len(manifestMagic) && string(data[:len(manifestMagic)]) == manifestMagic
}

// AppendManifest serializes m into buf's backing array:
//
//	"FTSM" | version | encoder string | uvarint total | uvarint nShards
//	       | nShards × (name string, uvarint size, 4-byte CRC32C)
//	       | 4-byte CRC32C trailer over everything before it
//
// Strings are uvarint-length-prefixed.
func AppendManifest(buf []byte, m *Manifest) []byte {
	appendString := func(b []byte, s string) []byte {
		return append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	out := append(buf[:0], manifestMagic...)
	out = appendString(append(out, manifestVersion), m.Encoder)
	out = binary.AppendUvarint(out, uint64(m.Total))
	out = binary.AppendUvarint(out, uint64(len(m.Shards)))
	for _, s := range m.Shards {
		out = binary.AppendUvarint(appendString(out, s.Name), uint64(s.Size))
		out = binary.LittleEndian.AppendUint32(out, s.CRC)
	}
	return binary.LittleEndian.AppendUint32(out, Checksum(out))
}

// ParseManifest decodes and validates a manifest. Crafted inputs are
// rejected before any size derived from them backs an allocation: the
// trailer CRC must match, the shard count is bounded by both MaxShards
// and the bytes actually present (each entry costs ≥ 7 bytes), name
// lengths are capped, sizes must be non-negative and sum exactly to
// Total, and every name must be a well-formed shard name.
func ParseManifest(data []byte) (*Manifest, error) {
	if !IsManifest(data) {
		return nil, fmt.Errorf("shard: not a manifest (bad magic)")
	}
	if len(data) < len(manifestMagic)+1+4 {
		return nil, fmt.Errorf("shard: truncated manifest")
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if Checksum(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("shard: manifest CRC32C mismatch (corrupt)")
	}
	if v := body[len(manifestMagic)]; v != manifestVersion {
		return nil, fmt.Errorf("shard: unsupported manifest version %d", v)
	}
	off := len(manifestMagic) + 1
	getUvarint := func() (uint64, error) {
		v, k := binary.Uvarint(body[off:])
		if k <= 0 {
			return 0, fmt.Errorf("shard: truncated manifest varint at %d", off)
		}
		off += k
		return v, nil
	}
	getString := func(maxLen int) (string, error) {
		l, err := getUvarint()
		if err != nil {
			return "", err
		}
		if l > uint64(maxLen) || off+int(l) > len(body) {
			return "", fmt.Errorf("shard: manifest string of %d bytes at %d rejected", l, off)
		}
		s := string(body[off : off+int(l)])
		off += int(l)
		return s, nil
	}
	m := &Manifest{}
	var err error
	if m.Encoder, err = getString(maxNameLen); err != nil {
		return nil, err
	}
	total, err := getUvarint()
	if err != nil {
		return nil, err
	}
	if total > 1<<56 {
		return nil, fmt.Errorf("shard: manifest total %d rejected", total)
	}
	m.Total = int(total)
	nShards, err := getUvarint()
	if err != nil {
		return nil, err
	}
	// Each entry needs at least a 1-byte name length, a 1-byte name, a
	// 1-byte size varint, and the 4-byte CRC.
	if nShards > MaxShards || nShards > uint64(len(body)-off)/7 {
		return nil, fmt.Errorf("shard: manifest claims %d shards in %d bytes", nShards, len(body)-off)
	}
	if nShards == 0 {
		return nil, fmt.Errorf("shard: manifest lists no shards")
	}
	m.Shards = make([]Info, nShards)
	sum := 0
	for i := range m.Shards {
		name, err := getString(maxNameLen)
		if err != nil {
			return nil, err
		}
		if _, _, ok := ShardBase(name); !ok {
			return nil, fmt.Errorf("shard: manifest entry %d has malformed shard name %q", i, name)
		}
		size, err := getUvarint()
		if err != nil {
			return nil, err
		}
		if size > total {
			return nil, fmt.Errorf("shard: shard %q size %d exceeds total %d", name, size, total)
		}
		if off+4 > len(body) {
			return nil, fmt.Errorf("shard: truncated manifest entry %d", i)
		}
		crc := binary.LittleEndian.Uint32(body[off:])
		off += 4
		m.Shards[i] = Info{Name: name, Size: int(size), CRC: crc}
		sum += int(size)
	}
	if off != len(body) {
		return nil, fmt.Errorf("shard: %d trailing manifest bytes", len(body)-off)
	}
	if sum != m.Total {
		return nil, fmt.Errorf("shard: shard sizes sum to %d, manifest total is %d", sum, m.Total)
	}
	return m, nil
}
