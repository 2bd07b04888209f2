// Package cluster models the timing behaviour of the paper's
// experimental platform — the Bebop cluster at Argonne (64 nodes,
// 2×16-core Xeon E5-2695v4, 128 GB/node) with its parallel file
// system — so that checkpoint, recovery, and iteration times at the
// paper's scale (256–4,096 processes, up to 78.8 GB checkpoints) can
// be reproduced on a laptop.
//
// Calibration anchors, all taken from the paper:
//   - writing one 78.8 GB traditional checkpoint from 2,048 ranks
//     takes ≈120 s (§3, §4.3, Fig. 5);
//   - the same write from 256 ranks (9.8 GB) takes ≈15 s (Figs. 4–6):
//     together these fix an aggregate PFS bandwidth of ≈0.8 GB/s plus
//     a per-rank I/O overhead of ≈11 ms;
//   - SZ compression/decompression of 78.8 GB across 2,048 cores costs
//     ≈0.5 s / ≈0.2 s (§5.3), fixing per-core throughputs of ≈77 and
//     ≈192 MB/s;
//   - recovery exceeds checkpointing because static variables (A, M,
//     b) are reconstructed (§5.4, Figs. 4–6).
package cluster

import (
	"fmt"
	"strings"
)

// Model captures the platform's timing parameters. All bandwidths are
// bytes per second.
type Model struct {
	// PerRankSeconds is the fixed per-rank I/O overhead of one
	// collective checkpoint write (metadata, file-system contention).
	PerRankSeconds float64
	// PFSBandwidth is the aggregate parallel-file-system bandwidth —
	// the constant bottleneck that makes checkpoint time grow linearly
	// with scale under weak scaling (paper §5.3).
	PFSBandwidth float64
	// CompressPerCore and DecompressPerCore are per-core throughputs
	// of the lossy compressor; compression is embarrassingly parallel
	// (no communication, §5.3).
	CompressPerCore   float64
	DecompressPerCore float64
	// LosslessPerCore is the per-core throughput of the Gzip-class
	// codec (slower than SZ).
	LosslessPerCore float64
	// StaticPerRankSeconds models the extra recovery cost of
	// reconstructing static variables, growing with scale.
	StaticPerRankSeconds float64
	// MemCopyPerCore is the per-core node-local memory bandwidth used
	// by the asynchronous pipeline's capture stage (a deep copy of the
	// protected state into the double buffer) — no PFS, no
	// compression, so orders of magnitude faster than a checkpoint.
	MemCopyPerCore float64

	// Stripes and StripeBandwidth model the PFS's object-storage
	// striping (Lustre OSTs): the file system exposes Stripes stripes
	// of StripeBandwidth bytes/s each, with Stripes×StripeBandwidth =
	// PFSBandwidth (the aggregate a fully collective write achieves).
	// A checkpoint written as one monolithic object streams through a
	// single stripe; sharding it into S objects engages min(S, Stripes)
	// stripes — exactly why per-block shard objects make the storage
	// stage scale (ShardedCheckpointSeconds).
	Stripes         int
	StripeBandwidth float64
	// PerShardSeconds is the metadata cost of creating one shard
	// object (open/create+commit on the PFS metadata server); it is
	// the term that makes over-sharding (S ≫ Stripes) a loss.
	PerShardSeconds float64

	// InterconnectBandwidth is the point-to-point node interconnect
	// bandwidth (bytes/s) — the channel an ABFT reconstruction uses to
	// re-gather the surviving ranks' contributions to the lost block
	// (checksum/neighbor exchanges), never touching the PFS. Zero falls
	// back to MemCopyPerCore so pre-ABFT Model literals keep working.
	InterconnectBandwidth float64

	// CodecRates refines the two scheme-level throughput knobs
	// (CompressPerCore/LosslessPerCore) with per-codec rates, keyed by
	// codec name as the fti encoders report it ("sz", "zfp",
	// "gzip(deflate)"; "lossless/<name>" encoder names resolve to
	// <name>). Codecs without an entry fall back to the scheme-level
	// rate, so legacy Model literals price exactly as before.
	CodecRates map[string]CodecRate

	// ReadStripeBandwidth is the per-stripe bandwidth of the restore
	// path's shard fan-out reads. PFS read paths typically outpace the
	// write paths (no commit/sync round trips, no parity update,
	// server-side caching), so per stripe this exceeds the write-side
	// StripeBandwidth; a sharded restore reading min(shards, Stripes)
	// objects concurrently can therefore beat even the aggregate write
	// bandwidth a monolithic restore streams at. Zero means the read
	// fan-out adds nothing beyond the aggregate (legacy Model
	// literals).
	ReadStripeBandwidth float64
}

// CodecRate holds one codec's per-core compress throughput, in bytes
// per second of *raw* (uncompressed) data.
type CodecRate struct {
	CompressPerCore float64
}

// Bebop returns the model calibrated to the paper's measurements.
func Bebop() *Model {
	return &Model{
		PerRankSeconds:       0.0108,
		PFSBandwidth:         0.80e9,
		CompressPerCore:      77e6,
		DecompressPerCore:    192e6,
		LosslessPerCore:      100e6,
		StaticPerRankSeconds: 0.004,
		MemCopyPerCore:       4e9,
		// 48 OSTs splitting the calibrated 0.8 GB/s aggregate: a full
		// stripe-wide sharded write recovers exactly the collective
		// bandwidth the paper's measurements fix, a monolithic write
		// gets one stripe's worth.
		Stripes:         48,
		StripeBandwidth: 0.80e9 / 48,
		PerShardSeconds: 0.0005,
		// Omni-Path node injection bandwidth (100 Gb/s ≈ 12.5 GB/s) —
		// the fabric Bebop's ABFT-style exchanges would ride on.
		InterconnectBandwidth: 12.5e9,
		// Read path per stripe at 2× the write path — the usual PFS
		// asymmetry (no commit, no parity) — so a full-stripe shard
		// fan-out restores at up to 1.6 GB/s against the 0.8 GB/s
		// write aggregate.
		ReadStripeBandwidth: 2 * 0.80e9 / 48,
		// Per-codec refinements of the scheme-level rates. The two
		// codecs the schemes default to ("sz" for lossy,
		// "gzip(deflate)" for lossless) are pinned to the scheme-level
		// calibration, so codec-aware and scheme-level pricing agree
		// for the paper's configurations; zfp is a representative
		// Xeon per-core figure (its fixed-rate transform outruns SZ's
		// quantize+Huffman pipeline), not a paper measurement.
		CodecRates: map[string]CodecRate{
			"sz":            {CompressPerCore: 77e6},
			"gzip(deflate)": {CompressPerCore: 100e6},
			"zfp":           {CompressPerCore: 300e6},
		},
	}
}

// Scheme tags which compression stage applies to a transfer.
type Scheme int

// Checkpoint data flavors.
const (
	Uncompressed Scheme = iota
	LosslessCompressed
	LossyCompressed
)

// compressSeconds is the scheme-dependent compression cost of one
// checkpoint, shared by the collective and sharded write models so a
// calibration change cannot skew their comparison.
func (m *Model) compressSeconds(procs int, rawBytes float64, scheme Scheme) float64 {
	switch scheme {
	case LossyCompressed:
		return rawBytes / (m.CompressPerCore * float64(procs))
	case LosslessCompressed:
		return rawBytes / (m.LosslessPerCore * float64(procs))
	}
	return 0
}

// codecRate resolves a codec or encoder name against CodecRates,
// accepting both bare codec names ("sz") and the fti Lossless
// encoder's composite names ("lossless/gzip(deflate)").
func (m *Model) codecRate(name string) (CodecRate, bool) {
	if r, ok := m.CodecRates[name]; ok {
		return r, true
	}
	if short, ok := strings.CutPrefix(name, "lossless/"); ok {
		if r, ok := m.CodecRates[short]; ok {
			return r, true
		}
	}
	return CodecRate{}, false
}

// CodecCompressSeconds is compressSeconds refined with the named
// codec's per-core rate: rawBytes compressed across procs cores. A
// codec without a CodecRates entry (or a Model without the map) falls
// back to the scheme-level rate, so the fused checkpoint costs and the
// per-phase breakdown cannot diverge for unknown codecs.
func (m *Model) CodecCompressSeconds(procs int, rawBytes float64, name string, scheme Scheme) float64 {
	if procs <= 0 {
		panic(fmt.Sprintf("cluster: procs must be positive, got %d", procs))
	}
	if scheme == Uncompressed {
		return 0
	}
	if r, ok := m.codecRate(name); ok && r.CompressPerCore > 0 {
		return rawBytes / (r.CompressPerCore * float64(procs))
	}
	return m.compressSeconds(procs, rawBytes, scheme)
}

// WriteStageSeconds is the PFS-write term of one checkpoint: the
// per-rank metadata overhead plus the transfer. striped prices the
// single-writer striped-object model (per-shard metadata for the
// shards plus the manifest, min(shards, stripes) concurrent stripes);
// otherwise the collective aggregate-bandwidth write. By construction
// compressSeconds + WriteStageSeconds equals CheckpointSeconds
// (collective) or ShardedCheckpointSeconds (striped).
func (m *Model) WriteStageSeconds(procs int, encodedBytes float64, shards int, striped bool) float64 {
	if procs <= 0 {
		panic(fmt.Sprintf("cluster: procs must be positive, got %d", procs))
	}
	if !striped {
		return m.PerRankSeconds*float64(procs) + encodedBytes/m.PFSBandwidth
	}
	if shards < 1 {
		shards = 1
	}
	return m.PerRankSeconds*float64(procs) +
		m.PerShardSeconds*float64(shards+1) +
		encodedBytes/m.StripedWriteBandwidth(shards)
}

// CheckpointSeconds returns the wall time of one checkpoint: optional
// compression of rawBytes across procs cores, then writing
// encodedBytes through the shared PFS.
func (m *Model) CheckpointSeconds(procs int, encodedBytes, rawBytes float64, scheme Scheme) float64 {
	if procs <= 0 {
		panic(fmt.Sprintf("cluster: procs must be positive, got %d", procs))
	}
	return m.PerRankSeconds*float64(procs) +
		encodedBytes/m.PFSBandwidth +
		m.compressSeconds(procs, rawBytes, scheme)
}

// StripedWriteBandwidth returns the effective PFS bandwidth of a
// checkpoint written as shards parallel shard objects: per-stripe
// bandwidth × min(shards, stripes), never exceeding the aggregate
// PFSBandwidth. shards < 1 is treated as a monolithic single-object
// write; a Model without striping parameters (Stripes or
// StripeBandwidth zero) falls back to the aggregate bandwidth, so
// pre-striping Model literals keep their old behavior.
func (m *Model) StripedWriteBandwidth(shards int) float64 {
	if m.Stripes <= 0 || m.StripeBandwidth <= 0 {
		return m.PFSBandwidth
	}
	if shards < 1 {
		shards = 1
	}
	if shards > m.Stripes {
		shards = m.Stripes
	}
	bw := m.StripeBandwidth * float64(shards)
	if m.PFSBandwidth > 0 && bw > m.PFSBandwidth {
		bw = m.PFSBandwidth
	}
	return bw
}

// ShardedCheckpointSeconds returns the wall time of one checkpoint
// written as shards parallel shard objects plus a manifest: optional
// compression of rawBytes across procs cores (as in
// CheckpointSeconds), then encodedBytes through min(shards, Stripes)
// stripes, plus the per-object metadata cost of the shards and the
// manifest. With shards = 1 and the Bebop striping parameters this is
// the single-stripe serial write; at shards ≥ Stripes it recovers the
// aggregate-bandwidth cost of the collective write the paper measures.
func (m *Model) ShardedCheckpointSeconds(procs int, encodedBytes, rawBytes float64, scheme Scheme, shards int) float64 {
	if procs <= 0 {
		panic(fmt.Sprintf("cluster: procs must be positive, got %d", procs))
	}
	if shards < 1 {
		shards = 1
	}
	return m.PerRankSeconds*float64(procs) +
		m.PerShardSeconds*float64(shards+1) + // +1: the manifest object
		encodedBytes/m.StripedWriteBandwidth(shards) +
		m.compressSeconds(procs, rawBytes, scheme)
}

// StorageRetrySeconds returns the expected retry/backoff delay the
// fault-tolerant storage wrapper (fti.Resilient) adds to one sharded
// checkpoint write when each object write fails transiently with
// probability faultRate. Each of the shards+1 object writes (the +1 is
// the manifest) pays the expected backoff sum
//
//	Σ_{k=0}^{maxRetries-1} p^{k+1} · min(base·2^k, max)
//
// — the k-th backoff step is slept only if attempts 0..k all failed,
// and steps grow geometrically from baseDelay up to the maxDelay cap,
// matching the wrapper's schedule (jitter averages out; the mean of
// the uniform [step/2, step] draw is 3/4·step, folded into base by
// callers that want that precision). Zero at faultRate ≤ 0 and
// monotone in it; faultRate ≥ 1 prices every attempt as failed.
func (m *Model) StorageRetrySeconds(shards int, faultRate, baseDelay, maxDelay float64, maxRetries int) float64 {
	if faultRate <= 0 || maxRetries <= 0 || baseDelay <= 0 {
		return 0
	}
	if faultRate > 1 {
		faultRate = 1
	}
	if shards < 1 {
		shards = 1
	}
	if maxDelay <= 0 {
		maxDelay = baseDelay
	}
	perOp := 0.0
	pPow := 1.0
	step := baseDelay
	for k := 0; k < maxRetries; k++ {
		pPow *= faultRate
		d := step
		if d > maxDelay {
			d = maxDelay
		}
		perOp += pPow * d
		step *= 2
	}
	return perOp * float64(shards+1) // +1: the manifest object
}

// CaptureSeconds returns the solver-visible stall of one asynchronous
// checkpoint: the node-local deep copy of rawBytes across procs cores.
// This is the only part of the checkpoint the async pipeline leaves on
// the critical path; encode and PFS write (CheckpointSeconds) proceed
// in the background.
func (m *Model) CaptureSeconds(procs int, rawBytes float64) float64 {
	if procs <= 0 {
		panic(fmt.Sprintf("cluster: procs must be positive, got %d", procs))
	}
	// No silent fallback, matching the sibling cost methods: a Model
	// literal that omits MemCopyPerCore yields a visible +Inf rather
	// than a quietly substituted default.
	return rawBytes / (m.MemCopyPerCore * float64(procs))
}

// decompressSeconds is the scheme-dependent decompression cost of one
// recovery, shared by the serial and streaming restore models so a
// calibration change cannot skew their comparison.
func (m *Model) decompressSeconds(procs int, rawBytes float64, scheme Scheme) float64 {
	switch scheme {
	case LossyCompressed:
		return rawBytes / (m.DecompressPerCore * float64(procs))
	case LosslessCompressed:
		return rawBytes / (m.LosslessPerCore * float64(procs))
	}
	return 0
}

// RecoverySeconds returns the wall time of one recovery: reading the
// checkpoint back, optional decompression, and reconstructing the
// static variables. This is the legacy serial restore — the full read,
// then the full decompression — of a monolithic checkpoint (which, as
// one file striped across the OSTs, already streams at the aggregate
// PFS bandwidth).
func (m *Model) RecoverySeconds(procs int, encodedBytes, rawBytes float64, scheme Scheme) float64 {
	if procs <= 0 {
		panic(fmt.Sprintf("cluster: procs must be positive, got %d", procs))
	}
	return m.PerRankSeconds*float64(procs) +
		encodedBytes/m.PFSBandwidth +
		m.decompressSeconds(procs, rawBytes, scheme) +
		m.StaticPerRankSeconds*float64(procs)
}

// StripedReadBandwidth returns the effective PFS bandwidth of a
// restore reading a checkpoint stored as shards parallel objects:
// per-stripe read bandwidth × min(shards, stripes), saturating at the
// read-side aggregate (ReadStripeBandwidth × Stripes) and never below
// the write-side aggregate PFSBandwidth — a monolithic checkpoint is
// one file striped across the OSTs, so even a single-object read
// streams at the aggregate, and a shard fan-out can always fall back
// to that scan. Models without striping or read parameters keep the
// aggregate (legacy Model literals).
func (m *Model) StripedReadBandwidth(shards int) float64 {
	if m.Stripes <= 0 || m.ReadStripeBandwidth <= 0 {
		return m.PFSBandwidth
	}
	if shards < 1 {
		shards = 1
	}
	if shards > m.Stripes {
		shards = m.Stripes
	}
	bw := m.ReadStripeBandwidth * float64(shards)
	if bw < m.PFSBandwidth {
		bw = m.PFSBandwidth
	}
	return bw
}

// ShardedRecoverySeconds returns the wall time of one recovery from a
// checkpoint stored as shards parallel objects, mirroring
// ShardedCheckpointSeconds on the read side. shards ≤ 1 is the legacy
// monolithic restore and prices exactly like RecoverySeconds: the full
// payload is read, then decompressed. A sharded group (shards ≥ 2)
// restores through the streaming pipeline: min(shards, Stripes)
// concurrent per-stripe reads, saturating at the read aggregate
// (StripedReadBandwidth), with decompression overlapped against the
// reads per shard — the transfer term is max(read, decompress) instead
// of their sum. Read-side object opens carry no create/commit round
// trips and overlap the transfer, so no per-shard metadata term
// applies; the cost is therefore monotonically non-increasing in the
// shard count up to the stripe saturation point.
func (m *Model) ShardedRecoverySeconds(procs int, encodedBytes, rawBytes float64, scheme Scheme, shards int) float64 {
	if procs <= 0 {
		panic(fmt.Sprintf("cluster: procs must be positive, got %d", procs))
	}
	if shards <= 1 {
		return m.RecoverySeconds(procs, encodedBytes, rawBytes, scheme)
	}
	read := encodedBytes / m.StripedReadBandwidth(shards)
	dec := m.decompressSeconds(procs, rawBytes, scheme)
	if dec > read {
		read = dec
	}
	return m.PerRankSeconds*float64(procs) + read + m.StaticPerRankSeconds*float64(procs)
}

// ABFTRecoverySeconds returns the wall time of one checkpoint-free
// algorithmic (ABFT) recovery: re-gathering the lost block's
// blockBytes over the interconnect from the surviving ranks'
// redundancy, then localIters iterations of the local reconstruction
// solve at iterSeconds each, plus the fixed per-rank coordination
// overhead. No PFS term appears anywhere — that absence is the tier's
// entire advantage, and why the sim's read-traffic comparison shows
// ABFT-on runs touching the file system less. A Model without
// InterconnectBandwidth falls back to MemCopyPerCore (node-local
// exchange), keeping legacy literals finite.
func (m *Model) ABFTRecoverySeconds(blockBytes float64, localIters int, iterSeconds float64) float64 {
	bw := m.InterconnectBandwidth
	if bw <= 0 {
		bw = m.MemCopyPerCore
	}
	if localIters < 0 {
		localIters = 0
	}
	return m.PerRankSeconds + blockBytes/bw + float64(localIters)*iterSeconds
}

// MethodBaseline holds the paper's failure-free reference execution
// for one iterative method at 2,048 processes (§5.4): total productive
// seconds and the iteration count, fixing the mean iteration time.
type MethodBaseline struct {
	Name            string
	BaselineSeconds float64
	Iterations      int
	CkptVectors     int     // vectors in a traditional checkpoint
	PerProcMB       float64 // traditional checkpoint MB per process (Table 3)
	RTol            float64 // convergence tolerance used by the paper
	LossyErrorBound float64 // paper's compressor setting
}

// TitSeconds returns the mean iteration time.
func (b MethodBaseline) TitSeconds() float64 {
	if b.Iterations == 0 {
		return 0
	}
	return b.BaselineSeconds / float64(b.Iterations)
}

// PaperBaselines returns the three methods' reference executions:
// Jacobi ≈50 min/3,941 its, GMRES ≈120 min/5,875 its, CG ≈35 min with
// rtol 1e-7 (§5.4, §4.3, Fig. 8).
func PaperBaselines() map[string]MethodBaseline {
	return map[string]MethodBaseline{
		"jacobi": {
			Name: "jacobi", BaselineSeconds: 50 * 60, Iterations: 3941,
			CkptVectors: 1, PerProcMB: 39.4, RTol: 1e-4, LossyErrorBound: 1e-4,
		},
		"gmres": {
			Name: "gmres", BaselineSeconds: 120 * 60, Iterations: 5875,
			CkptVectors: 1, PerProcMB: 39.4, RTol: 7e-5, LossyErrorBound: 1e-4,
		},
		"cg": {
			Name: "cg", BaselineSeconds: 35 * 60, Iterations: 2400,
			CkptVectors: 2, PerProcMB: 78.8, RTol: 1e-7, LossyErrorBound: 1e-4,
		},
	}
}

// Table3ProblemSizes returns the paper's weak-scaling grid: process
// count → problem dimension n (the linear system has n³ unknowns).
func Table3ProblemSizes() []struct {
	Procs int
	N     int
} {
	return []struct {
		Procs int
		N     int
	}{
		{256, 1088}, {512, 1368}, {768, 1568}, {1024, 1728},
		{1280, 1856}, {1536, 1968}, {1792, 2064}, {2048, 2160},
	}
}
