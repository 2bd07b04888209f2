package fti

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/fti/shard"
)

// This file is the reference the restore walk is tested against, and
// nothing production code runs: a checkpoint is reassembled into one
// contiguous payload, its whole-payload IEEE CRC verified, the skeleton
// parsed with plain offsets, and every vector blob decoded whole,
// through the encoder's DecodeInto, into a fresh allocation. It shares
// with the walk the storage listing (ckptSeqs) and the encoders, and
// neither the chunk cursor nor the per-block scheduling.

// RestoreReassembled restores the newest valid checkpoint by
// reassemble-then-decode, falling back newest-first past any it cannot
// read or decode. Restore must produce a bitwise-identical snapshot.
func (c *Checkpointer) RestoreReassembled() (*Snapshot, error) {
	seqs, _, err := c.ckptSeqs()
	if err != nil {
		return nil, err
	}
	err = fmt.Errorf("fti: no checkpoints available")
	for _, seq := range seqs {
		var s *Snapshot
		if s, err = c.reassembledDecode(ckptName(seq)); err == nil {
			return s, nil
		}
	}
	return nil, err
}

// reassembledDecode reads the checkpoint stored under name, reassembles
// a shard group into one payload, and decodes it with referenceDecode.
func (c *Checkpointer) reassembledDecode(name string) (*Snapshot, error) {
	data, err := c.storage.Read(name)
	if err != nil {
		return nil, err
	}
	if shard.IsManifest(data) {
		man, err := shard.ParseManifest(data)
		if err != nil {
			return nil, err
		}
		r := shard.NewReader(c.storage, man)
		if err := r.Prefetch(0, r.Total(), shard.Options{Workers: c.storageWorkers}); err != nil {
			return nil, err
		}
		if data, err = r.Bytes(0, r.Total()); err != nil {
			return nil, err
		}
	}
	return referenceDecode(data, c.enc)
}

// referenceDecode decodes a contiguous checkpoint payload. It trusts
// lengths only as far as slicing checks them: it is handed payloads the
// tests wrote, or ones the walk under test has already accepted.
func referenceDecode(data []byte, enc Encoder) (*Snapshot, error) {
	return referenceWalk(data, enc, func(name string, elems uint64, blob []byte) ([]float64, error) {
		if elems > 1<<24 { // no test restores a vector near this long
			return nil, fmt.Errorf("vector %q claims %d values", name, elems)
		}
		v := make([]float64, elems)
		if err := enc.DecodeInto(v, blob); err != nil {
			return nil, fmt.Errorf("decode vector %q: %w", name, err)
		}
		return v, nil
	})
}

// referenceWalk checks a contiguous payload's CRC and framing with
// plain offsets and hands each vector's name, declared count and blob
// to vector, whose result the snapshot keeps.
func referenceWalk(data []byte, enc Encoder, vector func(name string, elems uint64, blob []byte) ([]float64, error)) (s *Snapshot, err error) {
	defer func() {
		if r := recover(); r != nil {
			s, err = nil, fmt.Errorf("reference decoder: %v", r)
		}
	}()
	if len(data) < len(fileMagic)+4 {
		return nil, fmt.Errorf("truncated checkpoint")
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("CRC mismatch (corrupt checkpoint)")
	}
	if string(body[:len(fileMagic)]) != fileMagic {
		return nil, fmt.Errorf("bad magic")
	}
	off := len(fileMagic)
	uvarint := func() uint64 {
		v, k := binary.Uvarint(body[off:])
		if k <= 0 {
			panic(fmt.Sprintf("bad varint at %d", off))
		}
		off += k
		return v
	}
	take := func(n uint64) []byte {
		if n > uint64(len(body)-off) {
			panic(fmt.Sprintf("%d bytes wanted at %d of %d", n, off, len(body)))
		}
		b := body[off : off+int(n)]
		off += int(n)
		return b
	}
	s = &Snapshot{Scalars: map[string]float64{}, Vectors: map[string][]float64{}}
	s.Iteration = int(uvarint())
	if name := string(take(uvarint())); name != enc.Name() {
		return nil, fmt.Errorf("checkpoint written by encoder %q, decoder is %q", name, enc.Name())
	}
	for n := uvarint(); n > 0; n-- {
		name := string(take(uvarint()))
		s.Scalars[name] = math.Float64frombits(binary.LittleEndian.Uint64(take(8)))
	}
	for n := uvarint(); n > 0; n-- {
		name := string(take(uvarint()))
		elems := uvarint()
		v, err := vector(name, elems, take(uvarint()))
		if err != nil {
			return nil, err
		}
		s.Vectors[name] = v
	}
	if off != len(body) {
		return nil, fmt.Errorf("%d trailing checkpoint bytes", len(body)-off)
	}
	return s, nil
}
