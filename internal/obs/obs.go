// Package obs is the repo's dependency-free observability substrate:
// a metrics registry (atomic counters, gauges, fixed-bucket
// histograms) with JSON exposition, and a lifecycle tracer (trace.go)
// exporting Chrome trace_event JSON.
//
// Design constraints, in order:
//
//   - nil-safe: a nil *Registry hands out nil handles, and every
//     method on a nil handle is a no-op. Instrumented packages call
//     their handles unconditionally; a run with observability
//     disabled pays one predictable-branch nil check per site.
//   - lock-free hot path: handle creation takes the registry mutex
//     once; Inc/Add/Set/Observe are plain atomics on the handle.
//   - deterministic-trace-safe: nothing here feeds back into the
//     numerics; instrumented and bare runs converge bitwise
//     identically (asserted in internal/core tests).
//   - one name, one metric: the registry is a map from name to handle,
//     with no label dimensions; a per-tier count is a name per tier.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. Nil receivers no-op.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64. Nil receivers no-op.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with inclusive ("le") upper
// bounds plus an implicit +Inf bucket. Nil receivers no-op.
type Histogram struct {
	bounds []float64 // ascending upper bounds; counts has len(bounds)+1
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

// Observe records v into its bucket (first bound >= v, else +Inf).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// LatencyBuckets returns the default latency bounds: a 1-2.5-5
// progression from 10 µs to 100 s. Covers the sub-ms capture stall
// and the multi-second sharded PFS write with the same histogram.
func LatencyBuckets() []float64 {
	var b []float64
	for d := 1e-5; d < 200; d *= 10 {
		b = append(b, d, 2.5*d, 5*d)
	}
	return b
}

// ByteBuckets returns the default size bounds: powers of 4 from
// 1 KiB to 16 GiB.
func ByteBuckets() []float64 {
	var b []float64
	for v := 1024.0; v <= 16*1024*1024*1024; v *= 4 {
		b = append(b, v)
	}
	return b
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

type entry struct {
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry hands out metric handles, one per name. The zero value is
// not usable — use New. A nil *Registry is the disabled mode: every
// method returns a nil (no-op) handle.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

func (r *Registry) get(name string, kind metricKind, bounds []float64) *entry {
	if !ValidMetricName(name) {
		panic(fmt.Sprintf("obs: metric name %q violates the subsystem_name_unit convention", name))
	}
	isTotal := strings.HasSuffix(name, "_total")
	if kind == kindCounter && !isTotal {
		panic(fmt.Sprintf("obs: counter %q must end in _total", name))
	}
	if kind != kindCounter && isTotal {
		panic(fmt.Sprintf("obs: %s %q must not end in _total", kind, name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, e.kind))
		}
		return e
	}
	e := &entry{kind: kind}
	switch kind {
	case kindCounter:
		e.c = &Counter{}
	case kindGauge:
		e.g = &Gauge{}
	case kindHistogram:
		e.h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)+1),
		}
	}
	r.entries[name] = e
	return e
}

// Counter returns (creating if needed) the counter with this name.
// Nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, kindCounter, nil).c
}

// Gauge returns (creating if needed) the gauge with this name. Nil registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, kindGauge, nil).g
}

// Histogram returns (creating if needed) the histogram with this
// name; bounds are used only on first creation. Nil
// registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.get(name, kindHistogram, bounds).h
}

// MetricData is one metric's state in a Snapshot.
type MetricData struct {
	Name   string    `json:"name"`
	Type   string    `json:"type"`
	Value  float64   `json:"value,omitempty"`  // counter, gauge
	Count  uint64    `json:"count,omitempty"`  // histogram
	Sum    float64   `json:"sum,omitempty"`    // histogram
	Bounds []float64 `json:"bounds,omitempty"` // histogram upper bounds
	Counts []uint64  `json:"counts,omitempty"` // histogram per-bucket, len(Bounds)+1 (+Inf last)
}

// Quantile estimates the q-quantile (0..1) of a histogram metric by
// linear interpolation within the containing bucket. Returns NaN for
// non-histograms or empty histograms.
func (m *MetricData) Quantile(q float64) float64 {
	if m.Type != "histogram" || m.Count == 0 {
		return math.NaN()
	}
	rank := q * float64(m.Count)
	var cum uint64
	lo := 0.0
	for i, c := range m.Counts {
		hi := math.Inf(1)
		if i < len(m.Bounds) {
			hi = m.Bounds[i]
		}
		if float64(cum+c) >= rank {
			if c == 0 || math.IsInf(hi, 1) {
				return lo
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += c
		lo = hi
	}
	return lo
}

// Snapshot is a point-in-time copy of a registry, sorted by name.
// Per-value reads are atomic; the snapshot as a whole is not a
// consistent cut under concurrent updates.
type Snapshot struct {
	Metrics []MetricData `json:"metrics"`
}

// Snapshot copies every metric. Nil registries snapshot empty.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{Metrics: make([]MetricData, 0, len(r.entries))}
	for name, e := range r.entries {
		m := MetricData{Name: name, Type: e.kind.String()}
		switch e.kind {
		case kindCounter:
			m.Value = float64(e.c.Value())
		case kindGauge:
			m.Value = e.g.Value()
		case kindHistogram:
			m.Count = e.h.Count()
			m.Sum = e.h.Sum()
			m.Bounds = append([]float64(nil), e.h.bounds...)
			m.Counts = make([]uint64, len(e.h.counts))
			for i := range e.h.counts {
				m.Counts[i] = e.h.counts[i].Load()
			}
		}
		s.Metrics = append(s.Metrics, m)
	}
	sort.Slice(s.Metrics, func(i, j int) bool { return s.Metrics[i].Name < s.Metrics[j].Name })
	return s
}

// Get returns the metric with this name, or nil. Intended for tests
// and report printers.
func (s Snapshot) Get(name string) *MetricData {
	for i := range s.Metrics {
		if s.Metrics[i].Name == name {
			return &s.Metrics[i]
		}
	}
	return nil
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteJSON writes the registry's current snapshot; see Snapshot.WriteJSON.
func (r *Registry) WriteJSON(w io.Writer) error { return r.Snapshot().WriteJSON(w) }
