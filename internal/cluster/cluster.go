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
//
// One rule, MethodBaseline.SaveBytes, says what a save moves: the
// paper's per-rank state at the save's measured compression ratio. The
// experiments price every save from it, and cmd/solve's cost table the
// modeled column of a measured run.
package cluster

import (
	"fmt"

	"repro/internal/core"
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
	}
}

// CompressSeconds is the scheme-dependent compression cost of one
// checkpoint: rawBytes compressed across procs cores at the scheme's
// per-core rate (CompressPerCore lossy, LosslessPerCore lossless, free
// traditional). CheckpointSeconds and cmd/solve's per-phase table
// share it, so a calibration change cannot skew their comparison.
func (m *Model) CompressSeconds(procs int, rawBytes float64, scheme core.Scheme) float64 {
	switch scheme {
	case core.Lossy:
		return rawBytes / (m.CompressPerCore * float64(procs))
	case core.Lossless:
		return rawBytes / (m.LosslessPerCore * float64(procs))
	}
	return 0
}

// WriteStageSeconds is the PFS-write term of one checkpoint: the
// per-rank metadata overhead plus encodedBytes through the aggregate
// bandwidth. CompressSeconds + WriteStageSeconds equals
// CheckpointSeconds.
func (m *Model) WriteStageSeconds(procs int, encodedBytes float64) float64 {
	if procs <= 0 {
		panic(fmt.Sprintf("cluster: procs must be positive, got %d", procs))
	}
	return m.PerRankSeconds*float64(procs) + encodedBytes/m.PFSBandwidth
}

// CheckpointSeconds returns the wall time of one checkpoint: optional
// compression of rawBytes across procs cores, then writing
// encodedBytes through the shared PFS in one collective write — the
// model the paper's anchors fix, whatever object layout the write
// takes.
func (m *Model) CheckpointSeconds(procs int, encodedBytes, rawBytes float64, scheme core.Scheme) float64 {
	return m.WriteStageSeconds(procs, encodedBytes) + m.CompressSeconds(procs, rawBytes, scheme)
}

// RecoverySeconds returns the wall time of one recovery: reading the
// checkpoint back through the aggregate PFS bandwidth (the write
// stage's terms), then optional decompression — the Gzip-class codec is
// symmetric, SZ decodes at DecompressPerCore — then reconstructing the
// static variables.
func (m *Model) RecoverySeconds(procs int, encodedBytes, rawBytes float64, scheme core.Scheme) float64 {
	dec := m.CompressSeconds(procs, rawBytes, scheme)
	if scheme == core.Lossy {
		dec = rawBytes / (m.DecompressPerCore * float64(procs))
	}
	return m.WriteStageSeconds(procs, encodedBytes) + dec + m.StaticPerRankSeconds*float64(procs)
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

// VectorBytes returns the bytes of one global vector of the method's
// state at procs ranks: the paper's per-rank checkpoint (Table 3)
// split over the vectors it holds.
func (b MethodBaseline) VectorBytes(procs int) float64 {
	return b.PerProcMB / float64(b.CkptVectors) * 1e6 * float64(procs)
}

// SaveBytes is the paper's checkpoint-bytes rule: the encoded and raw
// bytes one save of the method moves under scheme, given the bytes of
// one global vector and the save's measured compression ratio.
// Traditional and lossless move all CkptVectors vectors, raw or at the
// ratio; lossy moves x alone, at the ratio.
func (b MethodBaseline) SaveBytes(scheme core.Scheme, oneVec, ratio float64) (enc, raw float64) {
	raw = oneVec * float64(b.CkptVectors)
	switch scheme {
	case core.Lossless:
		return raw / ratio, raw
	case core.Lossy:
		return oneVec / ratio, oneVec
	}
	return raw, raw
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
