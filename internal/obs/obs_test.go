package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"sync"
	"testing"
)

func TestMetricNameConvention(t *testing.T) {
	for _, name := range AllMetricNames {
		if !ValidMetricName(name) {
			t.Errorf("catalog name %q violates the subsystem_name_unit convention", name)
		}
	}
	for _, name := range MCoreRecoveriesTotal {
		if !slices.Contains(AllMetricNames, name) {
			t.Errorf("per-tier recovery counter %q is missing from AllMetricNames", name)
		}
	}
	bad := []string{
		"CamelCase_seconds", "fti_encode", "fti_encode_ms",
		"_fti_seconds", "fti__encode_seconds", "fti_encode_seconds_",
	}
	for _, name := range bad {
		if ValidMetricName(name) {
			t.Errorf("ValidMetricName(%q) = true, want false", name)
		}
	}
}

func TestRegistryPanicsOnBadNames(t *testing.T) {
	mustPanic := func(f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		f()
	}
	r := New()
	mustPanic(func() { r.Counter("not-a-name") })
	mustPanic(func() { r.Counter("test_missing_suffix_seconds") }) // counters end _total
	mustPanic(func() { r.Gauge("test_gauge_total") })              // gauges must not
	mustPanic(func() {
		r.Counter("test_reregister_total")
		r.Gauge("test_reregister_total")
	})
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := New()
	h := r.Histogram("test_bounds_seconds", []float64{1, 10, 100})
	// le semantics: a value exactly on a bound lands in that bucket.
	for _, v := range []float64{0.5, 1.0} {
		h.Observe(v) // bucket 0 (le=1)
	}
	h.Observe(1.0000001) // bucket 1 (le=10)
	h.Observe(10)        // bucket 1
	h.Observe(99.9)      // bucket 2 (le=100)
	h.Observe(100.1)     // +Inf bucket
	h.Observe(1e12)      // +Inf bucket
	m := r.Snapshot().Get("test_bounds_seconds")
	if m == nil {
		t.Fatal("histogram missing from snapshot")
	}
	want := []uint64{2, 2, 1, 2}
	for i, c := range m.Counts {
		if c != want[i] {
			t.Errorf("bucket %d: count %d, want %d (all: %v)", i, c, want[i], m.Counts)
		}
	}
	if m.Count != 7 {
		t.Errorf("Count = %d, want 7", m.Count)
	}
	wantSum := 0.5 + 1 + 1.0000001 + 10 + 99.9 + 100.1 + 1e12
	if math.Abs(m.Sum-wantSum) > 1e-6*wantSum {
		t.Errorf("Sum = %g, want %g", m.Sum, wantSum)
	}
}

func TestLatencyAndByteBucketsAscend(t *testing.T) {
	for _, b := range [][]float64{LatencyBuckets(), ByteBuckets()} {
		if len(b) < 8 {
			t.Fatalf("suspiciously few buckets: %v", b)
		}
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				t.Fatalf("bounds not strictly ascending at %d: %v", i, b)
			}
		}
	}
}

func TestConcurrentCounters(t *testing.T) {
	r := New()
	c := r.Counter("test_concurrent_total")
	g := r.Gauge("test_concurrent_seconds")
	h := r.Histogram("test_concurrent_bytes", ByteBuckets())
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Set(1)
				h.Observe(float64(1024 * (w + 1)))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got != 1 {
		t.Errorf("gauge = %g, want 1", got)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("test_events_total").Add(3)
	r.Gauge("test_level_ratio").Set(3)
	h := r.Histogram("test_size_bytes", []float64{10, 100})
	for _, v := range []float64{0, 30, 60, 120} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if got := back.Get("test_events_total").Value; got != 3 {
		t.Errorf("counter = %g, want 3", got)
	}
	if got := back.Get("test_level_ratio").Value; got != 3 {
		t.Errorf("gauge = %g, want 3", got)
	}
	hm := back.Get("test_size_bytes")
	if hm.Count != 4 {
		t.Errorf("histogram count = %d, want 4", hm.Count)
	}
	for i, want := range []uint64{1, 2, 1} { // le10, le100, +Inf
		if hm.Counts[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, hm.Counts[i], want)
		}
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	c := r.Counter("test_nil_total")
	g := r.Gauge("test_nil_seconds")
	h := r.Histogram("test_nil_bytes", ByteBuckets())
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Set(1)
	h.Observe(42)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles must read zero")
	}
	if s := r.Snapshot(); len(s.Metrics) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	r := New()
	h := r.Histogram("test_q_seconds", []float64{1, 2, 3, 4})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i%4) + 0.5) // 25 each in buckets 0..3
	}
	m := r.Snapshot().Get("test_q_seconds")
	if p50 := m.Quantile(0.5); p50 < 1 || p50 > 3 {
		t.Errorf("p50 = %g, want within [1,3]", p50)
	}
	if p99 := m.Quantile(0.99); p99 < 3 || p99 > 4 {
		t.Errorf("p99 = %g, want within [3,4]", p99)
	}
	empty := &MetricData{Type: "histogram"}
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Error("empty histogram quantile must be NaN")
	}
}
