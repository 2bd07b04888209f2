package fti

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/fti/shard"
	"repro/internal/obs"
)

// Scrubber periodically CRC-verifies the committed checkpoints in a
// Storage so silent corruption (bit rot, a misbehaving storage tier)
// is found while it can still be repaired — not at restart time, when
// a corrupt shard costs a whole recovery tier. Repair has two rungs:
//
//  1. The newest checkpoint's encoded payload is retained in memory
//     (AttachScrubber wires Checkpointer.save to Retain); a corrupt
//     object of that group — shard, manifest, or monolithic payload —
//     is rewritten from the retained bytes and re-verified.
//  2. An older corrupt group cannot be rebuilt (its payload is gone),
//     but the retention window means a redundant checkpoint exists:
//     if at least one other group verifies intact this sweep, the
//     corrupt group is garbage-collected so the restore walk never
//     wastes a read on it. With no intact sibling it is left in place
//     — a partially corrupt checkpoint may still beat nothing.
//
// Sweep is safe to run concurrently with an active checkpoint
// pipeline: it only reads committed groups, repairs only the group
// whose payload it retains (the newest, which retention never
// collects), and skips bases that vanish mid-sweep under a concurrent
// gc.
type Scrubber struct {
	st Storage

	mu          sync.Mutex
	retained    string // base name of the retained checkpoint
	retainedMan *shard.Manifest
	baseBytes   []byte // retained base object (manifest or monolithic payload)
	payload     []byte // retained encoded payload
	stats       ScrubStats

	met scrubMetrics
	tr  *obs.Tracer

	stopCh chan struct{}
	wg     sync.WaitGroup
}

// ScrubStats is the scrubber's cumulative accounting.
type ScrubStats struct {
	Sweeps      int // Sweep passes completed
	Verified    int // groups that passed verification
	Corruptions int // groups found corrupt or partial
	Repairs     int // groups rewritten from retained state and re-verified
	Dropped     int // unrepairable groups GC'd under an intact sibling
	Skipped     int // bases that vanished mid-sweep (racing gc)
}

// NewScrubber scrubs st. Attach it to a Checkpointer with
// AttachScrubber so the newest payload is retained for repair, then
// either call Sweep directly or Start a background loop.
func NewScrubber(st Storage) *Scrubber {
	return &Scrubber{st: st}
}

// scrubMetrics holds nil-safe handles: the zero bundle observes
// nothing.
type scrubMetrics struct {
	sweeps, corruptions, repairs, dropped *obs.Counter
}

// Instrument attaches metric and trace sinks; nil detaches. Call
// before Start.
func (s *Scrubber) Instrument(reg *obs.Registry, tr *obs.Tracer) {
	s.tr = tr
	s.met = scrubMetrics{
		sweeps:      reg.Counter(obs.MFTIScrubSweepsTotal),
		corruptions: reg.Counter(obs.MFTIScrubCorruptionsTotal),
		repairs:     reg.Counter(obs.MFTIScrubRepairsTotal),
		dropped:     reg.Counter(obs.MFTIScrubDroppedTotal),
	}
}

// Retain records base's encoded payload (copied) as the repair source
// for subsequent sweeps, replacing the previously retained
// checkpoint. The base object is read back from storage so a sharded
// group's manifest can be rewritten too; a failed read-back degrades
// to payload-only retention (shards remain repairable via a manifest
// still intact at repair time).
func (s *Scrubber) Retain(base string, payload []byte) {
	p := append([]byte(nil), payload...)
	baseBytes, err := s.st.Read(base)
	var man *shard.Manifest
	if err == nil && shard.IsManifest(baseBytes) {
		man, _ = shard.ParseManifest(baseBytes)
	}
	if err != nil {
		baseBytes = nil
	}
	s.mu.Lock()
	s.retained = base
	s.retainedMan = man
	s.baseBytes = baseBytes
	s.payload = p
	s.mu.Unlock()
}

// Stats returns a snapshot of the cumulative accounting.
func (s *Scrubber) Stats() ScrubStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Sweep verifies every committed checkpoint group once, repairing or
// garbage-collecting corrupt ones per the policy above. It returns
// the first storage error that prevented the sweep itself from
// proceeding (individual corrupt groups are handled, not returned).
func (s *Scrubber) Sweep() error {
	var sp obs.Span
	if s.tr != nil {
		sp = s.tr.Begin(obs.TrackScrubber, obs.CatStorage, obs.SpanScrub)
	}
	defer sp.End()
	names, err := s.st.List()
	if err != nil {
		return err
	}
	var bases []string
	for _, n := range names {
		if _, ok := parseCkptName(n); ok {
			if _, _, isShard := shard.ShardBase(n); !isShard {
				bases = append(bases, n)
			}
		}
	}
	intact := 0
	var corrupt []string
	for _, base := range bases {
		data, err := s.st.Read(base)
		if err != nil {
			s.bump(func(st *ScrubStats) { st.Skipped++ })
			continue // vanished under a racing gc (or unreadable); next sweep
		}
		if _, err := verifyLoadedGroup(s.st, data); err != nil {
			s.bump(func(st *ScrubStats) { st.Corruptions++ })
			s.met.corruptions.Inc()
			if s.repair(base) {
				s.bump(func(st *ScrubStats) { st.Repairs++ })
				s.met.repairs.Inc()
				intact++
			} else {
				corrupt = append(corrupt, base)
			}
			continue
		}
		s.bump(func(st *ScrubStats) { st.Verified++ })
		intact++
	}
	// Unrepairable groups are dropped only under the cover of an intact
	// sibling — the "redundant previous checkpoint" the retention
	// window exists to provide.
	for _, base := range corrupt {
		if intact == 0 {
			break
		}
		if err := shard.Delete(s.st, base); err != nil {
			continue
		}
		s.bump(func(st *ScrubStats) { st.Dropped++ })
		s.met.dropped.Inc()
	}
	s.bump(func(st *ScrubStats) { st.Sweeps++ })
	s.met.sweeps.Inc()
	return nil
}

// repair rewrites every object of base from the retained payload and
// re-verifies the group. Only the retained (newest) checkpoint can be
// repaired; anything else returns false.
func (s *Scrubber) repair(base string) bool {
	s.mu.Lock()
	retained, man, baseBytes, payload := s.retained, s.retainedMan, s.baseBytes, s.payload
	s.mu.Unlock()
	if retained != base || payload == nil {
		return false
	}
	if man == nil && baseBytes == nil {
		// Payload-only retention: for a monolithic group the payload IS
		// the base object; a sharded group needs the manifest still
		// readable in storage to locate shard spans.
		if data, err := s.st.Read(base); err == nil && shard.IsManifest(data) {
			man, _ = shard.ParseManifest(data)
			if man == nil {
				return false
			}
		}
	}
	if man != nil {
		off := 0
		for _, sh := range man.Shards {
			if off+sh.Size > len(payload) {
				return false // retained payload doesn't match the manifest
			}
			if err := s.st.Write(sh.Name, payload[off:off+sh.Size]); err != nil {
				return false
			}
			off += sh.Size
		}
		if baseBytes != nil {
			if err := s.st.Write(base, baseBytes); err != nil {
				return false
			}
		}
	} else {
		obj := baseBytes
		if obj == nil {
			obj = payload
		}
		if err := s.st.Write(base, obj); err != nil {
			return false
		}
	}
	_, err := verifyGroup(s.st, base)
	return err == nil
}

// Start launches the background scrub loop, sweeping every interval
// until Stop. Errors from individual sweeps are reflected in Stats
// only; the loop keeps going.
func (s *Scrubber) Start(interval time.Duration) error {
	if interval <= 0 {
		return fmt.Errorf("fti: scrub interval must be positive, got %v", interval)
	}
	s.mu.Lock()
	if s.stopCh != nil {
		s.mu.Unlock()
		return fmt.Errorf("fti: scrubber already running")
	}
	stop := make(chan struct{})
	s.stopCh = stop
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				_ = s.Sweep()
			}
		}
	}()
	return nil
}

// Stop halts the background loop and waits for an in-flight sweep to
// finish. Safe to call when not running.
func (s *Scrubber) Stop() {
	s.mu.Lock()
	stop := s.stopCh
	s.stopCh = nil
	s.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	s.wg.Wait()
}

func (s *Scrubber) bump(f func(*ScrubStats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}
