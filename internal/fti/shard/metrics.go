package shard

import (
	"time"

	"repro/internal/obs"
)

// Metrics is the shard layer's observability bundle: per-shard-object
// write/read latency and bytes, plus integrity failures split into
// CRC mismatches and all read-side rejections. Its handles are
// nil-safe, so the zero bundle (the disabled mode) observes nothing and
// the I/O paths call it unconditionally.
type Metrics struct {
	writeSec, readSec                               *obs.Histogram
	writes, reads, writtenBytes, readBytes          *obs.Counter
	crcFailures, readFailures, rereads, rereadFixes *obs.Counter
}

// NewMetrics registers the shard metrics in reg; a nil reg gives the
// zero bundle.
func NewMetrics(reg *obs.Registry) Metrics {
	return Metrics{
		writeSec:     reg.Histogram(obs.MShardWriteSeconds, obs.LatencyBuckets()),
		readSec:      reg.Histogram(obs.MShardReadSeconds, obs.LatencyBuckets()),
		writes:       reg.Counter(obs.MShardWritesTotal),
		reads:        reg.Counter(obs.MShardReadsTotal),
		writtenBytes: reg.Counter(obs.MShardWrittenBytesTotal),
		readBytes:    reg.Counter(obs.MShardReadBytesTotal),
		crcFailures:  reg.Counter(obs.MShardCRCFailuresTotal),
		readFailures: reg.Counter(obs.MShardReadFailuresTotal),
		rereads:      reg.Counter(obs.MShardRereadsTotal),
		rereadFixes:  reg.Counter(obs.MShardRereadRepairsTotal),
	}
}

func (m Metrics) observeWrite(sec float64, n int) {
	m.writeSec.Observe(sec)
	m.writes.Inc()
	m.writtenBytes.Add(uint64(n))
}

func (m Metrics) observeRead(sec float64, n int) {
	m.readSec.Observe(sec)
	m.reads.Inc()
	m.readBytes.Add(uint64(n))
}

// now returns the wall clock only when the bundle is live, so the
// disabled mode skips even the clock read.
func (m Metrics) now() time.Time {
	if m.writes == nil {
		return time.Time{}
	}
	return time.Now()
}
