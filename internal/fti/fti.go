// Package fti is a checkpoint/restart library modeled on the Fault
// Tolerance Interface (FTI) the paper builds on (Bautista-Gomez et
// al., SC'11): applications register ("protect") their variables and
// call a single snapshot entry point; recovery reloads the latest
// valid checkpoint. Unlike FTI, the vector payload passes through a
// pluggable Encoder, which is exactly where the paper's contribution
// plugs in: a lossy compressor between the solver state and storage.
package fti

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/codec"
	"repro/internal/fti/shard"
	"repro/internal/obs"
)

// Encoder turns a float64 vector into checkpoint bytes and back.
// Raw (traditional checkpointing), lossless codecs, and error-bounded
// lossy compressors all implement it, and it is the whole contract:
// there are no optional extensions to discover.
//
// A vector's bytes take one of two shapes, which Blocks tells apart:
// the raw little-endian image (Raw), or one blocked container (package
// codec) — every compressing encoder frames every vector, so a restore
// decodes each block where it lies, in its shard, without its
// neighbours.
//
// Inputs are borrowed for the call: a synchronous save hands Encode the
// solver's live vectors, so an encoder never retains or writes x.
type Encoder interface {
	// Name tags checkpoint files for decode-time verification.
	Name() string
	// Encode appends the serialization of x to dst, as append does. The
	// Checkpointer passes its reused payload buffer, so an encoder that
	// stores straight into dst (Raw) allocates nothing. A non-nil st
	// receives the distortion the encoding introduced, accumulated on
	// the encode path itself; the bytes are the same with and without.
	Encode(dst []byte, x []float64, st *codec.Stats) ([]byte, error)
	// DecodeInto reverses Encode (up to the encoder's error bound) into
	// dst, whose length must equal the encoded element count exactly —
	// an error otherwise, never a partial decode into a shorter dst.
	// Every element of dst is overwritten on success, so stale contents
	// cannot survive; on error dst's contents are unspecified.
	DecodeInto(dst []float64, data []byte) error
	// BoundInfo states the distortion contract the encoder was configured
	// with, for an auditor judging a decoded reconstruction against it.
	BoundInfo() BoundInfo
	// Blocks returns the block codec of the container Encode frames a
	// vector in; nil means Encode writes the raw image, of which any run
	// of whole elements decodes on its own through DecodeInto.
	Blocks() codec.BlockCodec
}

// Snapshot is one checkpoint's content: the iteration number, named
// scalars (CG's ρ), named vectors (x, and p for traditional CG), and
// the raw sizes for accounting.
type Snapshot struct {
	Iteration int
	Scalars   map[string]float64
	Vectors   map[string][]float64
}

// Info reports what a checkpoint cost.
type Info struct {
	Seq              int
	Bytes            int // encoded bytes written
	RawBytes         int // 8 × total vector elements (plus scalars)
	EncoderName      string
	VectorBytes      int // encoded bytes of the vector payload only
	StaticBytes      int // bytes of statics written so far (once)
	CompressionRatio float64
	// Shards is the number of shard objects the checkpoint was written
	// as (1 = a single monolithic object). Striped-PFS cost models key
	// off it: a sharded write engages min(Shards, stripes) stripes.
	Shards int

	// Per-stage wall-clock timings of the save that produced this Info,
	// in seconds. CaptureSeconds is the asynchronous pipeline's copy of
	// the snapshot into its double buffer, the only stage the solver
	// waits for (zero for synchronous saves: they encode the caller's
	// vectors where they are and copy nothing); EncodeSeconds covers the
	// Encoder pass over every vector; WriteSeconds covers the storage
	// commit (all shard objects plus the manifest). Together with
	// RawBytes (bytes in) and Bytes (bytes out) they are the measured
	// observations the adaptive interval controller (package adapt)
	// estimates per-checkpoint costs from — previously this accounting
	// was internal to the async pipeline and only a benchmark could see
	// the stall.
	CaptureSeconds float64
	EncodeSeconds  float64
	WriteSeconds   float64
}

// Checkpointer coordinates Protect/Checkpoint/Recover for one rank (or
// one sequential application).
type Checkpointer struct {
	storage Storage
	enc     Encoder
	keep    int // checkpoints retained (≥1)

	// shards > 1 splits every checkpoint into that many shard objects
	// plus a manifest (see package shard); storageWorkers bounds the
	// worker pool writing/reading them (0 = GOMAXPROCS-sized).
	shards         int
	storageWorkers int

	seq        int
	staticSize int

	// encBuf is the snapshot encode buffer, reused across checkpoints.
	// Checkpoints recur every few hundred iterations for the life of a
	// solve, so the steady state writes into the same backing array
	// instead of growing a fresh multi-megabyte slice each time.
	// Reuse is safe because Storage.Write must not retain its data
	// argument after returning.
	encBuf []byte

	// Registered variables (FTI-style Protect API).
	vecs   []protVec
	ints   []protInt
	floats []protFloat

	// ins is the optional observability bundle (see Instrument); nil
	// means every hook is a no-op.
	ins *instruments

	// scrub, when attached, retains each committed checkpoint's
	// encoded payload as the scrubber's repair source.
	scrub *Scrubber

	// audit, when attached, observes every save's per-vector encoding
	// against the live state (see SaveAudit). Nil means no auditing.
	audit SaveAudit
}

// SaveAudit observes the encoding of every vector of a save, for
// numerical-quality telemetry (package quality). SampleSave is asked
// once per save whether this save should be audited at all — the
// sampled-audit fast path skips every per-vector hook when it says
// no. For audited saves ObserveVector fires once per encoded vector
// while the live values and the encoded blob coexist: st carries the
// distortion stats Encode accumulated while it wrote blob (the observer
// may additionally decode blob to cross-check them — enc.DecodeInto
// into its own scratch).
//
// The AsyncCheckpointer runs saves on its background goroutine, so
// implementations must be safe for concurrent use. Implementations
// must treat live and blob as read-only and must not retain them.
type SaveAudit interface {
	SampleSave(seq, iteration int) bool
	ObserveVector(seq, iteration int, name string, live []float64, blob []byte, enc Encoder, st *codec.Stats)
}

// SetSaveAudit attaches (or, with nil, detaches) a save auditor. Only
// safe while no save is in flight.
func (c *Checkpointer) SetSaveAudit(a SaveAudit) { c.audit = a }

type protVec struct {
	name string
	ptr  *[]float64
}
type protInt struct {
	name string
	ptr  *int
}
type protFloat struct {
	name string
	ptr  *float64
}

// New creates a Checkpointer writing encoder-processed snapshots to
// storage, retaining the two most recent checkpoints (FTI's default
// safety margin: if a failure corrupts the newest file, recovery falls
// back to the previous one).
//
// The sequence counter starts after the highest checkpoint already in
// storage, so a Checkpointer created over a pre-existing checkpoint
// directory (the restart-after-failure path) extends the series
// instead of silently overwriting ckpt-000000000001.
func New(storage Storage, enc Encoder) *Checkpointer {
	c := &Checkpointer{storage: storage, enc: enc, keep: 2}
	c.syncSeq()
	return c
}

// ckptSeqs lists the sequence numbers of the checkpoints currently in
// storage, nil on a listing error (best effort: the callers are
// bookkeeping scans; a broken storage surfaces on the next read or
// write). The single scan keeps the sequence counter, the retention
// gc, and the abort-time emptiness check agreeing on what counts as a
// checkpoint.
func (c *Checkpointer) ckptSeqs() []int {
	names, err := c.storage.List()
	if err != nil {
		return nil
	}
	var seqs []int
	for _, n := range names {
		if seq, ok := parseCkptName(n); ok {
			seqs = append(seqs, seq)
		}
	}
	return seqs
}

// syncSeq advances seq past every checkpoint present in storage.
func (c *Checkpointer) syncSeq() {
	for _, seq := range c.ckptSeqs() {
		if seq > c.seq {
			c.seq = seq
		}
	}
}

// SetKeep sets the retention window: the n most recent checkpoints are
// kept, older ones are garbage-collected after each successful save.
// n must be at least 1; at least one checkpoint must survive for
// recovery to have a target.
func (c *Checkpointer) SetKeep(n int) error {
	if n < 1 {
		return fmt.Errorf("fti: retention must keep at least 1 checkpoint, got %d", n)
	}
	c.keep = n
	return nil
}

// Keep reports the current retention window.
func (c *Checkpointer) Keep() int { return c.keep }

// SetSharding configures sharded checkpoint storage: each subsequent
// checkpoint is split into shards objects (cut points aligned to the
// container block boundaries of the encoded vectors) written concurrently
// by at most workers goroutines, plus a manifest committed last.
// shards ≤ 1 restores the monolithic layout; workers ≤ 0 sizes the
// pool from GOMAXPROCS. Previously written checkpoints — sharded or
// monolithic — remain restorable either way: Restore distinguishes the
// layouts by the object's magic, not the configuration.
func (c *Checkpointer) SetSharding(shards, workers int) error {
	if shards > shard.MaxShards {
		return fmt.Errorf("fti: %d shards exceed the %d maximum", shards, shard.MaxShards)
	}
	if shards < 1 {
		shards = 1
	}
	if workers < 0 {
		workers = 0
	}
	c.shards = shards
	c.storageWorkers = workers
	return nil
}

// AttachScrubber wires s into the save path: every committed
// checkpoint's encoded payload is retained (copied) by the scrubber
// as its repair source. Pass nil to detach. Follows the same
// concurrency rule as SetEncoder: only between saves (drain the async
// pipeline first).
func (c *Checkpointer) AttachScrubber(s *Scrubber) { c.scrub = s }

// SetEncoder swaps the vector encoder; subsequent checkpoints use it.
// The paper's Theorem-3 adaptive GMRES bound re-parameterizes the
// compressor before every checkpoint, which lands here.
func (c *Checkpointer) SetEncoder(enc Encoder) { c.enc = enc }

// Encoder returns the current encoder.
func (c *Checkpointer) Encoder() Encoder { return c.enc }

// Protect registers a vector variable: Checkpoint saves the slice the
// pointer currently refers to; Recover overwrites it in place (or
// replaces it if the length changed).
func (c *Checkpointer) Protect(name string, ptr *[]float64) {
	c.vecs = append(c.vecs, protVec{name: name, ptr: ptr})
}

// ProtectInt registers an integer variable (e.g. the iteration count).
func (c *Checkpointer) ProtectInt(name string, ptr *int) {
	c.ints = append(c.ints, protInt{name: name, ptr: ptr})
}

// ProtectFloat registers a scalar variable (e.g. CG's ρ).
func (c *Checkpointer) ProtectFloat(name string, ptr *float64) {
	c.floats = append(c.floats, protFloat{name: name, ptr: ptr})
}

// WriteStatic stores a write-once blob (the system matrix A, the
// preconditioner M, the right-hand side b — the paper's static
// variables, checkpointed once before the iteration loop).
func (c *Checkpointer) WriteStatic(name string, data []byte) error {
	if err := c.storage.Write("static-"+name, data); err != nil {
		return err
	}
	c.staticSize += len(data)
	return nil
}

// ReadStatic loads a static blob during recovery.
func (c *Checkpointer) ReadStatic(name string) ([]byte, error) {
	return c.storage.Read("static-" + name)
}

// Checkpoint snapshots all protected variables (FTI's Snapshot()).
func (c *Checkpointer) Checkpoint() (Info, error) {
	s := Snapshot{
		Scalars: map[string]float64{},
		Vectors: map[string][]float64{},
	}
	for _, pv := range c.vecs {
		s.Vectors[pv.name] = *pv.ptr
	}
	for _, pi := range c.ints {
		if pi.name == "iteration" {
			s.Iteration = *pi.ptr
		} else {
			s.Scalars["int:"+pi.name] = float64(*pi.ptr)
		}
	}
	for _, pf := range c.floats {
		s.Scalars[pf.name] = *pf.ptr
	}
	return c.Save(&s)
}

// Recover loads the latest valid checkpoint back into the protected
// variables. Vector payloads whose length matches the registered slice
// decode directly into it — no whole-payload reassembly buffer, no
// decode-then-copy; a vector whose length changed gets a freshly
// allocated slice that never aliases the restored snapshot's backing
// arrays, so a Snapshot retained from Restore cannot be mutated by
// subsequent solver iterations.
//
// Because the decode is in place, a Recover that fails after decoding
// began (every checkpoint invalid) may leave the protected vectors
// partially overwritten; callers must treat the state as unspecified
// after an error.
func (c *Checkpointer) Recover() error {
	targets := make(map[string][]float64, len(c.vecs))
	for _, pv := range c.vecs {
		if v := *pv.ptr; len(v) > 0 {
			targets[pv.name] = v
		}
	}
	s, err := c.RestoreInto(targets)
	if err != nil {
		return err
	}
	for _, pv := range c.vecs {
		v, ok := s.Vectors[pv.name]
		if !ok {
			return fmt.Errorf("fti: checkpoint lacks protected vector %q", pv.name)
		}
		if len(*pv.ptr) != len(v) { // otherwise decoded in place
			*pv.ptr = append([]float64(nil), v...)
		}
	}
	for _, pi := range c.ints {
		if pi.name == "iteration" {
			*pi.ptr = s.Iteration
		} else if v, ok := s.Scalars["int:"+pi.name]; ok {
			*pi.ptr = int(v)
		} else {
			return fmt.Errorf("fti: checkpoint lacks protected int %q", pi.name)
		}
	}
	for _, pf := range c.floats {
		v, ok := s.Scalars[pf.name]
		if !ok {
			return fmt.Errorf("fti: checkpoint lacks protected scalar %q", pf.name)
		}
		*pf.ptr = v
	}
	return nil
}

// Save writes a snapshot without going through the registration API;
// the solver-integration layer (package core) uses it directly.
func (c *Checkpointer) Save(s *Snapshot) (Info, error) {
	payload, info, err := c.save(s, c.encBuf)
	if payload != nil {
		c.encBuf = payload
	}
	return info, err
}

// save encodes s into buf's backing array (growing it as needed) and
// writes the result to storage, rolling the sequence counter back on
// failure. It returns the (possibly reallocated) buffer so the caller
// can reuse it on the next save; the buffer is returned even on error.
// The AsyncCheckpointer calls save from its background goroutine with
// its own double buffers, so save must not touch c.encBuf.
func (c *Checkpointer) save(s *Snapshot, buf []byte) ([]byte, Info, error) {
	c.seq++
	info := Info{Seq: c.seq, EncoderName: c.enc.Name(), StaticBytes: c.staticSize, Shards: 1}
	encSpan := c.ins.span(obs.CatCheckpoint, obs.SpanEncode)
	encStart := time.Now()
	payload, rawBytes, vecBytes, bounds, err := encodeSnapshot(s, c.enc, buf, c.shards > 1, c.seq, c.audit)
	if err != nil {
		c.seq--
		c.ins.observeSaveError()
		return buf, Info{}, err
	}
	info.EncodeSeconds = time.Since(encStart).Seconds()
	info.RawBytes = rawBytes
	info.VectorBytes = vecBytes
	info.Bytes = len(payload)
	if info.Bytes > 0 {
		info.CompressionRatio = float64(rawBytes) / float64(info.Bytes)
	}
	encSpan.EndArgs(map[string]float64{
		"raw_bytes": float64(rawBytes), "encoded_bytes": float64(info.Bytes),
	})
	name := ckptName(c.seq)
	wrSpan := c.ins.span(obs.CatCheckpoint, obs.SpanWrite)
	writeStart := time.Now()
	// groupShards is the number of shard *objects* the just-written
	// checkpoint owns: 0 for a monolithic write (its base name holds
	// the payload itself, so any shard object under that base is stale
	// debris from a crashed earlier attempt at the same sequence).
	groupShards := 0
	if c.shards > 1 {
		written, err := shard.Write(c.storage, name, c.enc.Name(), payload, bounds,
			c.ins.shardOpts(shard.Options{Shards: c.shards, Workers: c.storageWorkers}))
		if err != nil {
			c.seq--
			c.ins.observeSaveError()
			return payload, Info{}, err
		}
		info.Shards = written
		groupShards = written
	} else if err := c.storage.Write(name, payload); err != nil {
		c.seq--
		c.ins.observeSaveError()
		return payload, Info{}, err
	}
	info.WriteSeconds = time.Since(writeStart).Seconds()
	wrSpan.EndArgs(map[string]float64{
		"bytes": float64(info.Bytes), "shards": float64(max(groupShards, 1)),
	})
	c.ins.observeSave(info)
	c.gc(groupShards)
	if c.scrub != nil {
		c.scrub.Retain(name, payload)
	}
	return payload, info, nil
}

// Restore returns the most recent snapshot that passes integrity
// checks, falling back to older ones. The returned snapshot owns its
// vectors (freshly allocated); RestoreInto is the in-place variant.
func (c *Checkpointer) Restore() (*Snapshot, error) { return c.RestoreInto(nil) }

// RestoreInto is Restore with caller-provided decode targets: a vector
// payload whose name and length match an entry of targets decodes
// directly into that slice — the returned snapshot's Vectors then
// alias the targets — while all other vectors are freshly allocated.
//
// Monolithic and sharded checkpoints take the same walk (restore): a
// sharded one streams — each shard is read, CRC32C-verified, and
// block-decoded straight into its destination slices by a bounded
// worker pool, with no whole-payload reassembly buffer. The redundant
// whole-payload IEEE CRC is skipped for them — the per-shard CRC32C
// checksums already covered every byte — while monolithic checkpoints
// keep it. On error, target slices may hold partially decoded data
// from a checkpoint that was later rejected; a recovery that falls
// back to an older checkpoint overwrites them in full.
func (c *Checkpointer) RestoreInto(targets map[string][]float64) (*Snapshot, error) {
	s, _, err := c.RestoreIntoTrace(targets)
	return s, err
}

// RestoreAttempt records one checkpoint the restore walk tried: its
// sequence number, the encoded bytes read from storage for the attempt
// (base object plus, for sharded groups, the manifest's shard
// payloads), the wall-clock duration, and the rejection reason (empty
// for the accepted attempt). The trace is the per-tier observability
// the tiered recovery chain prices fallbacks from — a restore that
// fell back past the newest checkpoint paid for the rejected reads
// too.
type RestoreAttempt struct {
	Seq     int
	Bytes   int
	Seconds float64
	Err     string
}

// restoreArgs flattens an attempt into trace span args.
func restoreArgs(att RestoreAttempt, accepted bool) map[string]float64 {
	acc := 0.0
	if accepted {
		acc = 1
	}
	return map[string]float64{
		"seq": float64(att.Seq), "bytes": float64(att.Bytes), "accepted": acc,
	}
}

// RestoreIntoTrace is RestoreInto returning, additionally, the ordered
// trace of every checkpoint the newest-first walk attempted. On total
// failure (every checkpoint invalid) the trace covers all rejected
// attempts and the error is the usual "all checkpoints invalid".
func (c *Checkpointer) RestoreIntoTrace(targets map[string][]float64) (*Snapshot, []RestoreAttempt, error) {
	return c.restoreTrace(func(data []byte, att *RestoreAttempt) (*Snapshot, error) {
		return c.decodeObject(data, att, targets)
	})
}

// decodeObject decodes what is stored under a checkpoint's name: the
// payload itself, or the manifest of the shard group that holds it (the
// group's bytes are added to att).
func (c *Checkpointer) decodeObject(data []byte, att *RestoreAttempt, targets map[string][]float64) (*Snapshot, error) {
	if !shard.IsManifest(data) {
		// For a monolithic object the whole-payload IEEE CRC is the only
		// integrity check the bytes get: verify it before walking them.
		if len(data) < 4 || crc32.ChecksumIEEE(data[:len(data)-4]) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
			return nil, fmt.Errorf("CRC mismatch (corrupt checkpoint)")
		}
		return c.restore(shard.OneChunk(data), targets)
	}
	man, err := shard.ParseManifest(data)
	if err != nil {
		return nil, err
	}
	for _, sh := range man.Shards {
		att.Bytes += sh.Size
	}
	if man.Encoder != c.enc.Name() {
		return nil, fmt.Errorf("checkpoint written by encoder %q, decoder is %q", man.Encoder, c.enc.Name())
	}
	r := shard.NewReader(c.storage, man)
	r.Instrument(c.ins.shardMetrics())
	return c.restore(r, targets)
}

// restoreTrace walks the checkpoint series newest-first, handing each
// base object (monolithic payload or shard manifest) to decode; any
// missing, corrupt, or rejected checkpoint falls back to the previous
// one — the paper's failure-during-checkpoint recovery path. Every
// attempted checkpoint is recorded in the returned trace, accepted or
// not.
func (c *Checkpointer) restoreTrace(decode func(data []byte, att *RestoreAttempt) (*Snapshot, error)) (*Snapshot, []RestoreAttempt, error) {
	names, err := c.storage.List()
	if err != nil {
		return nil, nil, err
	}
	var seqs []int
	for _, n := range names {
		if seq, ok := parseCkptName(n); ok {
			seqs = append(seqs, seq)
		}
	}
	if len(seqs) == 0 {
		return nil, nil, fmt.Errorf("fti: no checkpoints available")
	}
	sort.Sort(sort.Reverse(sort.IntSlice(seqs)))
	var attempts []RestoreAttempt
	var lastErr error
	for _, seq := range seqs {
		att := RestoreAttempt{Seq: seq}
		sp := c.ins.spanOn(obs.TrackRecovery, obs.CatRecovery, obs.SpanRestore)
		start := time.Now()
		data, err := c.storage.Read(ckptName(seq))
		if err != nil {
			att.Seconds = time.Since(start).Seconds()
			att.Err = err.Error()
			c.ins.observeRestoreAttempt(att)
			sp.EndArgs(restoreArgs(att, false))
			attempts = append(attempts, att)
			lastErr = err
			continue
		}
		att.Bytes = len(data)
		s, err := decode(data, &att)
		att.Seconds = time.Since(start).Seconds()
		if err != nil {
			lastErr = fmt.Errorf("fti: checkpoint %d: %w", seq, err)
			att.Err = err.Error()
			c.ins.observeRestoreAttempt(att)
			sp.EndArgs(restoreArgs(att, false))
			attempts = append(attempts, att)
			continue
		}
		c.ins.observeRestoreAttempt(att)
		sp.EndArgs(restoreArgs(att, true))
		attempts = append(attempts, att)
		// Re-sync the sequence counter with storage: a restore may have
		// fallen back past checkpoints this Checkpointer never wrote,
		// and the next save must not overwrite any surviving file.
		c.syncSeq()
		return s, attempts, nil
	}
	return nil, attempts, fmt.Errorf("fti: all checkpoints invalid: %w", lastErr)
}

// LatestSeq returns the sequence number of the last written
// checkpoint, 0 if none.
func (c *Checkpointer) LatestSeq() int { return c.seq }

// CheckpointCount reports how many checkpoint files storage currently
// holds (0 on a listing error). With keep=1 an aborted checkpoint can
// empty storage even though the sequence counter is positive, so
// recovery decisions must consult this, not LatestSeq.
func (c *Checkpointer) CheckpointCount() int { return len(c.ckptSeqs()) }

// DropLatest discards the most recent checkpoint — the failure-during-
// checkpoint path: a fail-stop error mid-write leaves a partial file
// that recovery must not use (the CRC would reject it anyway; dropping
// models it never having completed). Recovery then falls back to the
// previous retained checkpoint.
func (c *Checkpointer) DropLatest() error {
	if c.seq == 0 {
		return nil
	}
	// shard.Delete removes the manifest (or monolithic object) first —
	// the checkpoint instantly stops being a recovery target — then any
	// shard objects of the group.
	if err := shard.Delete(c.storage, ckptName(c.seq)); err != nil {
		return err
	}
	c.seq--
	return nil
}

// gc removes checkpoints beyond the retention window — manifest (or
// monolithic object) first, then the group's shards — and sweeps
// orphan shards: objects named like a shard whose base checkpoint no
// longer exists, left behind by a write that crashed between its shard
// writes and its manifest commit. gc runs synchronously inside save,
// after the new manifest committed, so the only in-flight group is its
// own (already committed) one and the sweep cannot race a writer.
//
// writtenShards is the shard count of the just-written checkpoint
// (c.seq): a crash-restart re-uses the orphans' sequence number, so
// the new group can land on a base that stale higher-indexed shard
// objects still reference — those are dead too, even though the base
// is live.
func (c *Checkpointer) gc(writtenShards int) {
	names, err := c.storage.List()
	if err != nil {
		return
	}
	live := make(map[string]bool)
	var seqs []int
	for _, n := range names {
		if seq, ok := parseCkptName(n); ok {
			seqs = append(seqs, seq)
			live[n] = true
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(seqs)))
	for i := c.keep; i < len(seqs); i++ {
		base := ckptName(seqs[i])
		delete(live, base)
		_ = c.storage.Delete(base)
	}
	cur := ckptName(c.seq)
	for _, n := range names {
		base, idx, ok := shard.ShardBase(n)
		if !ok {
			continue
		}
		if live[base] && (base != cur || idx < writtenShards) {
			continue
		}
		// Only objects whose base is a checkpoint name are checkpoint
		// shards; a static blob that happens to end in ".sNNNNN" is not.
		if _, isCkpt := parseCkptName(base); isCkpt {
			_ = c.storage.Delete(n)
		}
	}
}

// uvarintLen is the number of bytes binary.PutUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func ckptName(seq int) string { return fmt.Sprintf("ckpt-%012d", seq) }

func parseCkptName(name string) (int, bool) {
	if !strings.HasPrefix(name, "ckpt-") {
		return 0, false
	}
	seq, err := strconv.Atoi(strings.TrimPrefix(name, "ckpt-"))
	if err != nil {
		return 0, false
	}
	return seq, true
}

const fileMagic = "FTIG"

// encodeSnapshot serializes a snapshot: header, scalars, encoded
// vectors, CRC32 trailer. The payload is built in buf's backing array
// when capacity allows (buf may be nil), each encoder appending its
// vector straight into it; the caller owns the returned slice and may
// pass it back as buf on the next call. The snapshot's vectors are only
// read, and nothing keeps a reference to them.
//
// With wantBounds set, bounds lists preferred shard cut offsets within
// the payload, sorted ascending: the start of every vector blob plus,
// for the blobs of an encoder that frames them in the blocked
// container, the start of each compression block inside them — so a
// sharded write can cut along boundaries where a shard holds whole
// compression units. A raw image is never parsed for them: a container
// magic in it is a byte coincidence. Monolithic callers pass false and
// skip the per-blob header parse entirely.
// When audit is non-nil and samples this save (seq identifies it),
// every vector's encoding is reported to it with the stats Encode
// accumulated on the way, so the audited bytes are the exact bytes
// written and the common case needs no decode.
func encodeSnapshot(s *Snapshot, enc Encoder, buf []byte, wantBounds bool, seq int, audit SaveAudit) (payload []byte, rawBytes, vecBytes int, bounds []int, err error) {
	appendString := func(b []byte, str string) []byte {
		return append(binary.AppendUvarint(b, uint64(len(str))), str...)
	}
	out := append(buf[:0], fileMagic...)
	out = binary.AppendUvarint(out, uint64(s.Iteration))
	out = appendString(out, enc.Name())

	out = binary.AppendUvarint(out, uint64(len(s.Scalars)))
	for _, name := range slices.Sorted(maps.Keys(s.Scalars)) {
		out = appendString(out, name)
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(s.Scalars[name]))
		rawBytes += 8
	}

	audited := audit != nil && audit.SampleSave(seq, s.Iteration)
	framed := enc.Blocks() != nil

	out = binary.AppendUvarint(out, uint64(len(s.Vectors)))
	for _, name := range slices.Sorted(maps.Keys(s.Vectors)) {
		v := s.Vectors[name]
		out = appendString(out, name)
		out = binary.AppendUvarint(out, uint64(len(v)))
		// A blob follows its own length, which only Encode knows: leave
		// the room an uncompressed blob's length takes (exact for Raw),
		// encode behind it, and move the blob if its length takes fewer
		// or more bytes than that.
		var pad [binary.MaxVarintLen64]byte
		lenAt := len(out)
		room := uvarintLen(uint64(8 * len(v)))
		out = append(out, pad[:room]...)
		var st *codec.Stats
		if audited {
			st = new(codec.Stats)
		}
		if out, err = enc.Encode(out, v, st); err != nil {
			return nil, 0, 0, nil, fmt.Errorf("fti: encode vector %q: %w", name, err)
		}
		blobLen := len(out) - lenAt - room
		blobStart := lenAt + uvarintLen(uint64(blobLen))
		if blobStart != lenAt+room {
			out = append(out, pad[:max(blobStart-lenAt-room, 0)]...)
			copy(out[blobStart:], out[lenAt+room:lenAt+room+blobLen])
			out = out[:blobStart+blobLen]
		}
		binary.PutUvarint(out[lenAt:], uint64(blobLen))
		blob := out[blobStart:]
		if audited {
			audit.ObserveVector(seq, s.Iteration, name, v, blob, enc, st)
		}
		if wantBounds {
			bounds = append(bounds, blobStart)
			if framed {
				ranges, _ := codec.BlockRanges(blob)
				for b := 1; b < len(ranges); b++ { // ranges[0].Start is mid-header
					bounds = append(bounds, blobStart+ranges[b].Start)
				}
			}
		}
		rawBytes += 8 * len(v)
		vecBytes += blobLen
	}
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out)), rawBytes, vecBytes, bounds, nil
}
