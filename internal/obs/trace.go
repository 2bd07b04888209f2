package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Tracer records lifecycle spans and exports them as Chrome
// trace_event JSON (load at chrome://tracing or ui.perfetto.dev).
//
// Times are float64 seconds on the tracer's clock. The default clock
// is monotonic wall time since NewTracer; the virtual-time simulator
// supplies its own clock (or calls Complete with explicit virtual
// times), so simulated and real runs emit the same schema.
//
// A nil *Tracer is the disabled mode: every method (and Span.End on
// the zero Span) is a no-op. Begin/Complete take one short mutex
// hold; tracing sits on millisecond-scale lifecycle events, never in
// per-element loops.
type Tracer struct {
	clock func() float64

	mu      sync.Mutex
	events  []traceEvent
	tracks  map[int]string
	dropped int
}

// maxTraceEvents caps the retained event list (~26 MB worst case);
// past it events are counted in Dropped() instead of silently lost.
const maxTraceEvents = 1 << 18

type traceEvent struct {
	track int
	cat   string
	name  string
	ph    byte    // 'X' complete, 'i' instant
	start float64 // seconds
	dur   float64 // seconds, 'X' only
	args  map[string]float64
}

// NewTracer returns a tracer on monotonic wall time (zero = now).
func NewTracer() *Tracer {
	start := time.Now()
	return NewTracerWithClock(func() float64 { return time.Since(start).Seconds() })
}

// NewTracerWithClock returns a tracer reading the given clock
// (seconds). Used by the virtual-time simulator.
func NewTracerWithClock(clock func() float64) *Tracer {
	return &Tracer{clock: clock, tracks: map[int]string{
		TrackSolver:   "solver",
		TrackPipeline: "checkpoint-pipeline",
		TrackRecovery: "recovery",
	}}
}

// Now returns the tracer's clock reading (0 on nil).
func (t *Tracer) Now() float64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

// Span is an open interval returned by Begin. The zero Span (and any
// span from a nil tracer) is inert.
type Span struct {
	t     *Tracer
	track int
	cat   string
	name  string
	start float64
}

// Begin opens a span at the current clock reading.
func (t *Tracer) Begin(track int, cat, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, track: track, cat: cat, name: name, start: t.clock()}
}

// End closes the span at the current clock reading.
func (s Span) End() { s.EndArgs(nil) }

// EndArgs closes the span with numeric args attached.
func (s Span) EndArgs(args map[string]float64) {
	if s.t == nil {
		return
	}
	end := s.t.clock()
	s.t.Complete(s.track, s.cat, s.name, s.start, end-s.start, args)
}

// Complete records a finished span with explicit start/duration in
// clock seconds. This is the entry point for virtual-time callers.
func (t *Tracer) Complete(track int, cat, name string, start, dur float64, args map[string]float64) {
	if t == nil {
		return
	}
	t.push(traceEvent{track: track, cat: cat, name: name, ph: 'X', start: start, dur: dur, args: args})
}

// InstantAt records a zero-duration marker at an explicit clock time.
func (t *Tracer) InstantAt(track int, cat, name string, ts float64) {
	if t == nil {
		return
	}
	t.push(traceEvent{track: track, cat: cat, name: name, ph: 'i', start: ts})
}

func (t *Tracer) push(e traceEvent) {
	t.mu.Lock()
	if len(t.events) >= maxTraceEvents {
		t.dropped++
	} else {
		t.events = append(t.events, e)
	}
	t.mu.Unlock()
}

// Dropped returns how many events were discarded past the cap.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// SpanEvent is a recorded event, exposed for tests and reporters.
type SpanEvent struct {
	Track   int
	Cat     string
	Name    string
	Instant bool
	Start   float64 // seconds
	Dur     float64 // seconds
	Args    map[string]float64
}

// Events returns a copy of the recorded events in insertion order.
func (t *Tracer) Events() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanEvent, len(t.events))
	for i, e := range t.events {
		out[i] = SpanEvent{
			Track: e.track, Cat: e.cat, Name: e.name,
			Instant: e.ph == 'i', Start: e.start, Dur: e.dur, Args: e.args,
		}
	}
	return out
}

// chromeEvent is the trace_event wire format. ts/dur are microseconds.
type chromeEvent struct {
	Name  string             `json:"name"`
	Cat   string             `json:"cat,omitempty"`
	Ph    string             `json:"ph"`
	Ts    float64            `json:"ts"`
	Dur   *float64           `json:"dur,omitempty"`
	Pid   int                `json:"pid"`
	Tid   int                `json:"tid"`
	Scope string             `json:"s,omitempty"`
	Args  map[string]float64 `json:"args,omitempty"`
}

type chromeArgsName struct {
	Name string `json:"name"`
}

type chromeMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args chromeArgsName `json:"args"`
}

type chromeTrace struct {
	TraceEvents   []any  `json:"traceEvents"`
	DisplayUnit   string `json:"displayTimeUnit"`
	DroppedEvents int    `json:"droppedEvents,omitempty"`
}

// WriteChrome writes the trace in Chrome trace_event JSON ("X"
// complete events plus "M" thread_name metadata, ts/dur in
// microseconds, one tid per track).
func (t *Tracer) WriteChrome(w io.Writer) error {
	if t == nil {
		_, err := w.Write([]byte(`{"traceEvents":[]}`))
		return err
	}
	t.mu.Lock()
	events := append([]traceEvent(nil), t.events...)
	tracks := make(map[int]string, len(t.tracks))
	for k, v := range t.tracks {
		tracks[k] = v
	}
	dropped := t.dropped
	t.mu.Unlock()

	out := chromeTrace{DisplayUnit: "ms", DroppedEvents: dropped}
	trackIDs := make([]int, 0, len(tracks))
	for id := range tracks {
		trackIDs = append(trackIDs, id)
	}
	sort.Ints(trackIDs)
	for _, id := range trackIDs {
		out.TraceEvents = append(out.TraceEvents, chromeMeta{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: id,
			Args: chromeArgsName{Name: tracks[id]},
		})
	}
	for _, e := range events {
		ce := chromeEvent{
			Name: e.name, Cat: e.cat, Ts: e.start * 1e6,
			Pid: 1, Tid: e.track, Args: e.args,
		}
		switch e.ph {
		case 'X':
			ce.Ph = "X"
			d := e.dur * 1e6
			ce.Dur = &d
		case 'i':
			ce.Ph = "i"
			ce.Scope = "t"
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
