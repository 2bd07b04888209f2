package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin(TrackSolver, CatCheckpoint, SpanEncode)
	sp.End()
	sp.EndArgs(map[string]float64{"bytes": 1})
	tr.Complete(TrackSolver, CatCheckpoint, SpanWrite, 0, 1, nil)
	tr.InstantAt(TrackSolver, CatSolver, SpanFailure, 0)
	if tr.Now() != 0 || tr.Dropped() != 0 || tr.Events() != nil {
		t.Error("nil tracer must read zero")
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil tracer chrome output not JSON: %v", err)
	}
}

func TestTracerVirtualClock(t *testing.T) {
	now := 0.0
	tr := NewTracerWithClock(func() float64 { return now })
	sp := tr.Begin(TrackSolver, CatCheckpoint, SpanCapture)
	now = 1.5
	sp.EndArgs(map[string]float64{"bytes": 8e6})
	tr.Complete(TrackPipeline, CatCheckpoint, SpanWrite, 1.5, 2.0, nil)
	tr.InstantAt(TrackSolver, CatSolver, SpanFailure, 4.0)
	ev := tr.Events()
	if len(ev) != 3 {
		t.Fatalf("got %d events, want 3", len(ev))
	}
	if ev[0].Start != 0 || ev[0].Dur != 1.5 || ev[0].Name != SpanCapture || ev[0].Args["bytes"] != 8e6 {
		t.Errorf("span event wrong: %+v", ev[0])
	}
	if ev[1].Track != TrackPipeline || ev[1].Start != 1.5 || ev[1].Dur != 2.0 {
		t.Errorf("complete event wrong: %+v", ev[1])
	}
	if !ev[2].Instant || ev[2].Start != 4.0 {
		t.Errorf("instant event wrong: %+v", ev[2])
	}
}

// TestChromeTraceSchema validates the exported JSON against the
// trace_event contract: a traceEvents array whose entries carry
// name/ph/pid/tid, "X" events with numeric ts and dur in
// microseconds, "M" metadata naming every default track, and "i"
// instants with a scope.
func TestChromeTraceSchema(t *testing.T) {
	now := 0.0
	tr := NewTracerWithClock(func() float64 { return now })
	tr.Complete(TrackSolver, CatCheckpoint, SpanEncode, 0.25, 0.5, map[string]float64{"bytes": 42})
	tr.InstantAt(TrackSolver, CatSolver, SpanFailure, 1.0)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		DisplayUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if doc.DisplayUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayUnit)
	}
	named := map[string]bool{}
	var sawX, sawI bool
	for _, e := range doc.TraceEvents {
		ph, _ := e["ph"].(string)
		if _, ok := e["name"].(string); !ok {
			t.Fatalf("event missing name: %v", e)
		}
		if _, ok := e["pid"].(float64); !ok {
			t.Fatalf("event missing pid: %v", e)
		}
		if _, ok := e["tid"].(float64); !ok {
			t.Fatalf("event missing tid: %v", e)
		}
		switch ph {
		case "M":
			if e["name"] == "thread_name" {
				args := e["args"].(map[string]any)
				named[args["name"].(string)] = true
			}
		case "X":
			sawX = true
			ts, ok := e["ts"].(float64)
			if !ok || ts != 0.25*1e6 {
				t.Errorf("X event ts = %v, want 250000 µs", e["ts"])
			}
			dur, ok := e["dur"].(float64)
			if !ok || dur != 0.5*1e6 {
				t.Errorf("X event dur = %v, want 500000 µs", e["dur"])
			}
		case "i":
			sawI = true
			if e["s"] != "t" {
				t.Errorf("instant missing scope: %v", e)
			}
		default:
			t.Errorf("unexpected ph %q", ph)
		}
	}
	if !sawX || !sawI {
		t.Error("missing X or i events")
	}
	for _, track := range []string{"solver", "checkpoint-pipeline", "recovery"} {
		if !named[track] {
			t.Errorf("default track %q not named via M event", track)
		}
	}
}

func TestTracerEventCap(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < maxTraceEvents+10; i++ {
		tr.Complete(TrackSolver, CatSolver, SpanCompute, 0, 1, nil)
	}
	if got := len(tr.Events()); got != maxTraceEvents {
		t.Errorf("retained %d events, want cap %d", got, maxTraceEvents)
	}
	if got := tr.Dropped(); got != 10 {
		t.Errorf("Dropped = %d, want 10", got)
	}
	// The drop count must surface in the export, not vanish.
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DroppedEvents int `json:"droppedEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DroppedEvents != 10 {
		t.Errorf("droppedEvents = %d, want 10", doc.DroppedEvents)
	}
}
