package obs

import "regexp"

// This file is the single source of truth for every metric and span
// name the instrumented packages emit. CI lints that no other file
// spells out a metric name literal, and TestMetricNameConvention
// checks every catalog entry against the convention below.
//
// Metric name convention: subsystem_name_unit
//
//   - lower_snake_case, first token is the owning subsystem
//     (fti, shard, core, abft, adapt, ...);
//   - the final token is the unit: seconds | bytes | ratio |
//     iterations for gauges and histograms, total for counters
//     (counters that accumulate a quantity keep the quantity's unit
//     before the suffix, e.g. shard_read_bytes_total);
//   - counters always end in _total, gauges and histograms never do.
const (
	// fti — checkpoint capture/encode/write stages and the restore walk.
	MFTICaptureSeconds        = "fti_capture_seconds"
	MFTIEncodeSeconds         = "fti_encode_seconds"
	MFTIWriteSeconds          = "fti_write_seconds"
	MFTIRestoreSeconds        = "fti_restore_seconds"
	MFTIRawBytes              = "fti_checkpoint_raw_bytes"
	MFTIEncodedBytes          = "fti_checkpoint_encoded_bytes"
	MFTICompressionRatio      = "fti_compression_ratio"
	MFTICheckpointsTotal      = "fti_checkpoints_total"
	MFTICheckpointErrorsTotal = "fti_checkpoint_errors_total"
	MFTIRestoreAttemptsTotal  = "fti_restore_attempts_total"
	MFTIRestoreRejectsTotal   = "fti_restore_rejects_total"
	MFTIRestoreReadBytesTotal = "fti_restore_read_bytes_total"

	// shard — per-shard object I/O under the manifest-last protocol.
	MShardWriteSeconds       = "shard_write_seconds"
	MShardReadSeconds        = "shard_read_seconds"
	MShardWritesTotal        = "shard_writes_total"
	MShardReadsTotal         = "shard_reads_total"
	MShardWrittenBytesTotal  = "shard_written_bytes_total"
	MShardReadBytesTotal     = "shard_read_bytes_total"
	MShardCRCFailuresTotal   = "shard_crc_failures_total"
	MShardReadFailuresTotal  = "shard_read_failures_total"
	MShardRereadsTotal       = "shard_rereads_total"
	MShardRereadRepairsTotal = "shard_reread_repairs_total"

	// storage — the fault-tolerant Storage wrapper (fti.Resilient):
	// retry/backoff on transient errors, degraded-mode
	// exhaustion.
	MStorageRetriesTotal         = "storage_retries_total"
	MStorageRetryExhaustedTotal  = "storage_retry_exhausted_total"
	MStoragePermanentErrorsTotal = "storage_permanent_errors_total"
	MStorageRetryDelaySeconds    = "storage_retry_delay_seconds"

	// core — Manager lifecycle: aborts, degraded saves, tiered
	// recoveries (MCoreRecoveriesTotal below), and the interval windows
	// Drive realized. Commits are fti_checkpoints_total; what a run kept
	// is that minus the aborts.
	MCoreCheckpointsAbortedTotal = "core_checkpoints_aborted_total"
	MCoreDegradedSavesTotal      = "core_degraded_saves_total"
	MCoreRecoverySeconds         = "core_recovery_seconds"
	MCoreIntervalSeconds         = "core_interval_seconds"

	// abft — guard observations and reconstructions.
	MABFTObservesTotal         = "abft_observes_total"
	MABFTChecksumFailuresTotal = "abft_checksum_failures_total"
	MABFTLocalIterationsTotal  = "abft_local_iterations_total"

	// adapt — the interval controller's estimator state and re-plans.
	MAdaptReplansTotal      = "adapt_replans_total"
	MAdaptIntervalSeconds   = "adapt_interval_seconds"
	MAdaptMTTISeconds       = "adapt_mtti_seconds"
	MAdaptCheckpointSeconds = "adapt_checkpoint_seconds"

	// quality — the numerical-telemetry layer: per-checkpoint lossy
	// distortion audits. Audits are per committed save (sampled);
	// violations count audited vectors whose observed error exceeded
	// the encoder's requested bound. The error gauge is the last audited
	// observed/requested ratio (≤ 1 means the bound held), the
	// compression-ratio gauge the last audited achieved ratio.
	MQualityAuditsTotal      = "quality_audits_total"
	MQualityViolationsTotal  = "quality_bound_violations_total"
	MQualityErrorRatio       = "quality_observed_error_ratio"
	MQualityCompressionRatio = "quality_compression_ratio"
	MQualityAuditSeconds     = "quality_audit_seconds"
)

// MCoreRecoveriesTotal counts recoveries by the rung that recovered,
// indexed by core.RecoveryTier; a run's failures are their sum.
var MCoreRecoveriesTotal = [...]string{
	"core_recoveries_abft_total",
	"core_recoveries_checkpoint_total",
	"core_recoveries_previous_checkpoint_total",
	"core_recoveries_restart_zero_total",
}

// AllMetricNames is the catalog CI and the README table are generated
// against; TestMetricNameConvention asserts every entry matches
// ValidMetricName and the counter/_total rule.
var AllMetricNames = []string{
	MFTICaptureSeconds, MFTIEncodeSeconds, MFTIWriteSeconds,
	MFTIRestoreSeconds, MFTIRawBytes, MFTIEncodedBytes,
	MFTICompressionRatio, MFTICheckpointsTotal, MFTICheckpointErrorsTotal,
	MFTIRestoreAttemptsTotal, MFTIRestoreRejectsTotal, MFTIRestoreReadBytesTotal,
	MShardWriteSeconds, MShardReadSeconds, MShardWritesTotal,
	MShardReadsTotal, MShardWrittenBytesTotal, MShardReadBytesTotal,
	MShardCRCFailuresTotal, MShardReadFailuresTotal,
	MShardRereadsTotal, MShardRereadRepairsTotal,
	MStorageRetriesTotal, MStorageRetryExhaustedTotal,
	MStoragePermanentErrorsTotal, MStorageRetryDelaySeconds,
	MCoreCheckpointsAbortedTotal, MCoreDegradedSavesTotal,
	MCoreRecoveriesTotal[0], MCoreRecoveriesTotal[1],
	MCoreRecoveriesTotal[2], MCoreRecoveriesTotal[3],
	MCoreRecoverySeconds, MCoreIntervalSeconds,
	MABFTObservesTotal, MABFTChecksumFailuresTotal, MABFTLocalIterationsTotal,
	MAdaptReplansTotal, MAdaptIntervalSeconds, MAdaptMTTISeconds,
	MAdaptCheckpointSeconds,
	MQualityAuditsTotal, MQualityViolationsTotal, MQualityErrorRatio,
	MQualityCompressionRatio, MQualityAuditSeconds,
}

var nameRE = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*_(seconds|bytes|ratio|total|iterations)$`)

// ValidMetricName reports whether name follows the
// subsystem_name_unit convention. The Registry panics on names that
// don't — metric names are compile-time constants, not data.
func ValidMetricName(name string) bool { return nameRE.MatchString(name) }

// Trace tracks. One Chrome "thread" lane per concurrent activity, so
// the async pipeline's overlap with solver iterations is visible.
const (
	TrackSolver   = 1 // the solver goroutine: iterations, capture stalls, sync saves
	TrackPipeline = 2 // background encode+write of the async double buffer
	TrackRecovery = 3 // tiered recovery attempts
)

// Span categories and names, all on the wall clock: a modelled run is
// unobserved.
const (
	CatCheckpoint = "checkpoint"
	CatRecovery   = "recovery"
	CatSolver     = "solver"
	CatStorage    = "storage"
	CatQuality    = "quality"

	SpanCapture     = "capture"
	SpanEncode      = "encode"
	SpanWrite       = "write"
	SpanShardWrite  = "shard-write"
	SpanShardCommit = "shard-commit"
	SpanCompute     = "compute" // solver iterations between lifecycle events
	SpanFailure     = "failure" // instant marker
	SpanTierPrefix  = "tier:"   // + RecoveryTier.String(), one span per TierAttempt

	SpanQualityAudit     = "quality-audit"   // one audited vector save (distortion stats)
	SpanQualityViolation = "bound-violation" // instant: audited error exceeded the bound
)
