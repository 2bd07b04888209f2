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
	// stores straight into dst (Raw) allocates nothing.
	Encode(dst []byte, x []float64) ([]byte, error)
	// DecodeInto reverses Encode (up to the encoder's error bound) into
	// dst, whose length must equal the encoded element count exactly —
	// an error otherwise, never a partial decode into a shorter dst.
	// Every element of dst is overwritten on success, so stale contents
	// cannot survive; on error dst's contents are unspecified.
	DecodeInto(dst []float64, data []byte) error
	// BoundInfo states the distortion contract Encode holds x to, for an
	// auditor judging the decoded reconstruction of x against it.
	BoundInfo(x []float64) BoundInfo
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

// Info is the one record of a save: which checkpoint it is and what it
// cost. Seq, Iteration, EncoderName and RawBytes are known when the
// save opens (SaveAsync returns them from the capture on); the rest
// once it has committed. The core.Manager keeps the records recovery
// stands on; the async pipeline keeps only its newest save's.
type Info struct {
	Seq              int
	Iteration        int // the snapshot's iteration
	Bytes            int // encoded bytes written
	RawBytes         int // 8 × total vector elements (plus scalars)
	EncoderName      string
	CompressionRatio float64
	// Shards is the number of shard objects the checkpoint was written
	// as (1 = a single monolithic object).
	Shards int

	// Per-stage wall-clock timings of the save that produced this Info,
	// in seconds. CaptureSeconds is the asynchronous pipeline's capture,
	// the only stage the solver waits for: the copy of the snapshot into
	// its double buffer, or for an async GMRES save (a deferred capture)
	// the solve and copy of the cycle's coefficients y (zero for synchronous
	// saves: they encode the caller's vectors where they are and copy
	// nothing); EncodeSeconds covers the Encoder pass over every vector,
	// and a deferred capture's background copy of x and its fill with
	// the basis' correction V·y; WriteSeconds covers the storage commit
	// (all shard objects plus the manifest). Together with RawBytes
	// (bytes in) and Bytes (bytes out) they are the measured observations
	// the adaptive interval controller (package adapt) estimates
	// per-checkpoint costs from.
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

	seq int

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

	// ins is the observability bundle (see Instrument); the zero bundle
	// makes every hook a no-op.
	ins instruments

	// audit, when attached, observes every save's per-vector encoding
	// against the live state (see SaveAudit). Nil means no auditing.
	audit SaveAudit
}

// SaveAudit observes the encoding of every vector of a save, for
// numerical-quality telemetry (package quality). SampleSave is asked
// once per save whether this save should be audited at all — the
// sampled-audit fast path skips every per-vector hook when it says
// no. For audited saves ObserveVector fires once per encoded vector
// while the live values and the encoded blob coexist, so the observer
// can decode blob (enc.DecodeInto, into its own scratch) and judge what
// a restore would adopt against enc.BoundInfo(live).
//
// The AsyncCheckpointer runs saves on its background goroutine, so
// implementations must be safe for concurrent use. Implementations
// must treat live and blob as read-only and must not retain them.
type SaveAudit interface {
	SampleSave(seq, iteration int) bool
	ObserveVector(seq, iteration int, name string, live []float64, blob []byte, enc Encoder)
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

// ckptSeqs lists storage once and returns the sequence numbers of the
// checkpoints in it, newest first, with every name listed (gc sweeps
// the shard objects among them). The one scan keeps the restore walk,
// the sequence counter, the retention gc and the abort-time emptiness
// check agreeing on what counts as a checkpoint.
func (c *Checkpointer) ckptSeqs() (seqs []int, names []string, err error) {
	if names, err = c.storage.List(); err != nil {
		return nil, nil, err
	}
	for _, n := range names {
		if seq, ok := parseCkptName(n); ok {
			seqs = append(seqs, seq)
		}
	}
	slices.Sort(seqs)
	slices.Reverse(seqs)
	return seqs, names, nil
}

// syncSeq advances seq past every checkpoint present in storage. A
// listing error leaves it (best effort: a broken storage surfaces on
// the next read or write).
func (c *Checkpointer) syncSeq() {
	if seqs, _, _ := c.ckptSeqs(); len(seqs) > 0 {
		c.seq = max(c.seq, seqs[0])
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

// SetEncoder swaps the vector encoder; subsequent checkpoints use it.
// The paper's Theorem-3 adaptive GMRES bound re-parameterizes the
// compressor before every checkpoint, which lands here.
func (c *Checkpointer) SetEncoder(enc Encoder) { c.enc = enc }

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
	return c.storage.Write("static-"+name, data)
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
	s, _, err := c.Restore(targets)
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

// record is the Info of the save of s under seq as it opens: what is
// known before a byte is encoded.
func (c *Checkpointer) record(s *Snapshot, seq int) Info {
	raw := 8 * len(s.Scalars)
	for _, v := range s.Vectors {
		raw += 8 * len(v)
	}
	return Info{Seq: seq, Iteration: s.Iteration, EncoderName: c.enc.Name(), RawBytes: raw, Shards: 1}
}

// save encodes s into buf's backing array (growing it as needed) and
// writes the result to storage, rolling the sequence counter back on
// failure. It returns the (possibly reallocated) buffer so the caller
// can reuse it on the next save; the buffer is returned even on error.
// The AsyncCheckpointer calls save from its background goroutine with
// its own double buffers, so save must not touch c.encBuf.
func (c *Checkpointer) save(s *Snapshot, buf []byte) ([]byte, Info, error) {
	c.seq++
	info := c.record(s, c.seq)
	encSpan := c.ins.span(obs.CatCheckpoint, obs.SpanEncode)
	encStart := time.Now()
	payload, bounds, err := encodeSnapshot(s, c.enc, buf, c.shards > 1, c.seq, c.audit)
	if err != nil {
		c.seq--
		c.ins.ckptErrs.Inc()
		return buf, Info{}, err
	}
	info.EncodeSeconds = time.Since(encStart).Seconds()
	info.Bytes = len(payload)
	if info.Bytes > 0 {
		info.CompressionRatio = float64(info.RawBytes) / float64(info.Bytes)
	}
	encSpan.EndArgs(map[string]float64{
		"raw_bytes": float64(info.RawBytes), "encoded_bytes": float64(info.Bytes),
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
			c.ins.ckptErrs.Inc()
			return payload, Info{}, err
		}
		info.Shards = written
		groupShards = written
	} else if err := c.storage.Write(name, payload); err != nil {
		c.seq--
		c.ins.ckptErrs.Inc()
		return payload, Info{}, err
	}
	info.WriteSeconds = time.Since(writeStart).Seconds()
	wrSpan.EndArgs(map[string]float64{
		"bytes": float64(info.Bytes), "shards": float64(max(groupShards, 1)),
	})
	c.ins.observeSave(info)
	c.gc(groupShards)
	return payload, info, nil
}

// Restore returns the most recent snapshot that passes integrity
// checks, falling back to older ones, with the ordered trace of every
// checkpoint the newest-first walk attempted. A vector payload whose
// name and length match an entry of targets decodes directly into that
// slice — the returned snapshot's Vectors then alias the targets —
// while all other vectors (every one, under nil targets) are freshly
// allocated.
//
// Monolithic and sharded checkpoints take the same walk (restore): a
// sharded one streams — each shard is read, CRC32C-verified, and
// block-decoded straight into its destination slices by a bounded
// worker pool, with no whole-payload reassembly buffer. The redundant
// whole-payload IEEE CRC is skipped for them — the per-shard CRC32C
// checksums already covered every byte — while monolithic checkpoints
// keep it. On error, target slices may hold partially decoded data
// from a checkpoint that was later rejected; a recovery that falls
// back to an older checkpoint overwrites them in full. On total
// failure (every checkpoint invalid) the trace covers all rejected
// attempts and the error is the usual "all checkpoints invalid".
//
// The walk goes newest-first; any missing, corrupt, or rejected
// checkpoint falls back to the previous one — the paper's
// failure-during-checkpoint recovery path.
func (c *Checkpointer) Restore(targets map[string][]float64) (*Snapshot, []RestoreAttempt, error) {
	seqs, _, err := c.ckptSeqs()
	if err != nil {
		return nil, nil, err
	}
	if len(seqs) == 0 {
		return nil, nil, fmt.Errorf("fti: no checkpoints available")
	}
	var attempts []RestoreAttempt
	var lastErr error
	for _, seq := range seqs {
		att := RestoreAttempt{Seq: seq}
		start := time.Now()
		data, err := c.storage.Read(ckptName(seq))
		lastErr = err
		var s *Snapshot
		if err == nil {
			att.Bytes = len(data)
			if s, err = c.decodeObject(data, &att, targets); err != nil {
				lastErr = fmt.Errorf("fti: checkpoint %d: %w", seq, err)
			}
		}
		att.Seconds = time.Since(start).Seconds()
		if err != nil {
			att.Err = err.Error()
		}
		c.ins.observeRestoreAttempt(att)
		attempts = append(attempts, att)
		if err == nil {
			// A restore may have fallen back past checkpoints this
			// Checkpointer never wrote, and the next save must not
			// overwrite any surviving file.
			c.seq = max(c.seq, seqs[0])
			return s, attempts, nil
		}
	}
	return nil, attempts, fmt.Errorf("fti: all checkpoints invalid: %w", lastErr)
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

// decodeObject decodes what is stored under a checkpoint's name: the
// payload itself, or the manifest of the shard group that holds it (the
// group's bytes are added to att).
func (c *Checkpointer) decodeObject(data []byte, att *RestoreAttempt, targets map[string][]float64) (*Snapshot, error) {
	if !shard.IsManifest(data) {
		// For a monolithic object the whole-payload IEEE CRC is the only
		// integrity check the bytes get: verify it before walking them.
		if err := verifyMonolithic(data); err != nil {
			return nil, err
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
	r.Instrument(c.ins.sm)
	return c.restore(r, targets)
}

// CheckpointCount reports how many checkpoint files storage currently
// holds (0 on a listing error). With keep=1 an aborted checkpoint can
// empty storage even though the sequence counter is positive, so
// recovery decisions must consult this, not the sequence number.
func (c *Checkpointer) CheckpointCount() int {
	seqs, _, _ := c.ckptSeqs()
	return len(seqs)
}

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
	seqs, names, err := c.ckptSeqs()
	if err != nil {
		return
	}
	live := make(map[string]bool)
	for i, seq := range seqs {
		if i < c.keep {
			live[ckptName(seq)] = true
		} else {
			_ = c.storage.Delete(ckptName(seq))
		}
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
// every vector's blob is reported to it beside the live vector, so the
// audited bytes are the exact bytes written.
func encodeSnapshot(s *Snapshot, enc Encoder, buf []byte, wantBounds bool, seq int, audit SaveAudit) (payload []byte, bounds []int, err error) {
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
		if out, err = enc.Encode(out, v); err != nil {
			return nil, nil, fmt.Errorf("fti: encode vector %q: %w", name, err)
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
			audit.ObserveVector(seq, s.Iteration, name, v, blob, enc)
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
	}
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out)), bounds, nil
}
