package fti

import (
	"repro/internal/fti/shard"
	"repro/internal/obs"
)

// instruments is the fti layer's observability bundle: stage latency
// and size histograms, lifecycle counters, the shard layer's bundle,
// and the trace sink. Its handles are nil-safe, so the zero bundle (the
// default) makes every hook a no-op and the save/restore paths call
// them unconditionally.
type instruments struct {
	captureSec, encodeSec, writeSec, restoreSec *obs.Histogram
	rawBytes, encBytes                          *obs.Histogram
	ratio                                       *obs.Gauge
	ckpts, ckptErrs                             *obs.Counter
	restAtts, restRejs, restBytes               *obs.Counter

	tr    *obs.Tracer
	track int // the track save-stage spans land on (solver or pipeline)
	sm    shard.Metrics
}

func newInstruments(reg *obs.Registry, tr *obs.Tracer, track int) instruments {
	return instruments{
		captureSec: reg.Histogram(obs.MFTICaptureSeconds, obs.LatencyBuckets()),
		encodeSec:  reg.Histogram(obs.MFTIEncodeSeconds, obs.LatencyBuckets()),
		writeSec:   reg.Histogram(obs.MFTIWriteSeconds, obs.LatencyBuckets()),
		restoreSec: reg.Histogram(obs.MFTIRestoreSeconds, obs.LatencyBuckets()),
		rawBytes:   reg.Histogram(obs.MFTIRawBytes, obs.ByteBuckets()),
		encBytes:   reg.Histogram(obs.MFTIEncodedBytes, obs.ByteBuckets()),
		ratio:      reg.Gauge(obs.MFTICompressionRatio),
		ckpts:      reg.Counter(obs.MFTICheckpointsTotal),
		ckptErrs:   reg.Counter(obs.MFTICheckpointErrorsTotal),
		restAtts:   reg.Counter(obs.MFTIRestoreAttemptsTotal),
		restRejs:   reg.Counter(obs.MFTIRestoreRejectsTotal),
		restBytes:  reg.Counter(obs.MFTIRestoreReadBytesTotal),
		tr:         tr,
		track:      track,
		sm:         shard.NewMetrics(reg),
	}
}

// Instrument attaches metric and trace sinks to the Checkpointer's
// save and restore paths. Sync saves emit their encode/write spans on
// the solver track; wrap with AsyncCheckpointer.Instrument instead
// when the pipeline runs in the background. Passing nil for both
// detaches.
func (c *Checkpointer) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	c.ins = newInstruments(reg, tr, obs.TrackSolver)
}

// Instrument attaches metric and trace sinks to the async pipeline:
// the capture stall is traced on the solver track, and the wrapped
// Checkpointer's background encode/write stages land on the
// checkpoint-pipeline track — the overlap with solver iterations is
// exactly what the Chrome trace makes visible. Only safe while no
// save is in flight.
func (a *AsyncCheckpointer) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	a.drain(false)
	a.c.ins = newInstruments(reg, tr, obs.TrackPipeline)
}

func (in *instruments) span(cat, name string) obs.Span { return in.tr.Begin(in.track, cat, name) }

// shardOpts decorates a shard write's Options with the metric and
// trace sinks.
func (in *instruments) shardOpts(o shard.Options) shard.Options {
	o.Metrics, o.Tracer, o.Track = in.sm, in.tr, in.track
	return o
}

// observeSave records a committed save's stage timings and sizes.
func (in *instruments) observeSave(info Info) {
	in.encodeSec.Observe(info.EncodeSeconds)
	in.writeSec.Observe(info.WriteSeconds)
	in.rawBytes.Observe(float64(info.RawBytes))
	in.encBytes.Observe(float64(info.Bytes))
	if info.CompressionRatio > 0 {
		in.ratio.Set(info.CompressionRatio)
	}
	in.ckpts.Inc()
}

// observeRestoreAttempt records one checkpoint the restore walk
// tried, accepted or rejected.
func (in *instruments) observeRestoreAttempt(att RestoreAttempt) {
	in.restAtts.Inc()
	if att.Err != "" {
		in.restRejs.Inc()
	}
	in.restoreSec.Observe(att.Seconds)
	in.restBytes.Add(uint64(att.Bytes))
}
