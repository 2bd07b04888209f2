package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/failure"
)

// strikeAt asks src about the window [start, end] and returns the
// strike time, or NaN when nothing lands.
func strikeAt(src core.FailureSource, start, end float64) float64 {
	at, hit := src.Strikes(core.Window{Op: core.OpStep, Start: start, End: end})
	if !hit {
		return math.NaN()
	}
	return at
}

func TestFailureTimesScheduleInOrder(t *testing.T) {
	src := core.FailureTimes([]float64{5, 7, 20}, nil)
	for _, q := range []struct{ end, want float64 }{
		{4, math.NaN()}, // before the first entry
		{5, math.NaN()}, // a failure at the window's end is not inside it
		{6, 5},
		{6, math.NaN()},
		{30, 7}, // one failure per question, in schedule order
		{30, 20},
		{math.MaxFloat64, math.NaN()}, // the schedule is spent
	} {
		if got := strikeAt(src, 0, q.end); !(got == q.want || math.IsNaN(got) && math.IsNaN(q.want)) {
			t.Fatalf("window ending at %g: strike %v, want %v", q.end, got, q.want)
		}
	}
}

func TestFailureTimesLateEntryLandsJustAfter(t *testing.T) {
	// An entry at or before the failure it follows (or time 0) lands
	// 1 ns after it.
	src := core.FailureTimes([]float64{0, 3, 3, 2}, nil)
	for _, want := range []float64{1e-9, 3, 3 + 1e-9, 3 + 1e-9 + 1e-9} {
		if got := strikeAt(src, 0, 10); got != want {
			t.Fatalf("strike %v, want %v", got, want)
		}
	}
}

func TestFailureTimesInjectorAfterSchedule(t *testing.T) {
	src := core.FailureTimes([]float64{5}, failure.NewInjector(100, 1))
	ref := failure.NewInjector(100, 1)
	if got := strikeAt(src, 0, 6); got != 5 {
		t.Fatalf("first strike %v, want the scheduled 5", got)
	}
	want := ref.Next(5)
	want2 := ref.Next(want)
	if got := strikeAt(src, 5, math.Inf(1)); got != want {
		t.Fatalf("second strike %v, want the injector's first gap after 5, %v", got, want)
	}
	if got := strikeAt(src, want, math.Inf(1)); got != want2 {
		t.Fatalf("third strike %v, want %v", got, want2)
	}
}

func TestFailureTimesNeitherNeverStrikes(t *testing.T) {
	src := core.FailureTimes(nil, nil)
	for _, end := range []float64{0, 1, math.MaxFloat64, math.Inf(1)} {
		if got := strikeAt(src, 0, end); !math.IsNaN(got) {
			t.Fatalf("window ending at %g: strike at %v with no schedule and no injector", end, got)
		}
	}
}

// The failure after a strike is drawn when the strike is reported, so
// the times a seed produces do not depend on how the run cuts its
// windows: fine steps, coarse steps and windows of every op see the
// injector's own chain.
func TestFailureTimesDrawOrderIndependentOfWindows(t *testing.T) {
	const mtti, seed, horizon = 100.0, 7, 3000.0
	ref := failure.NewInjector(mtti, seed)
	var want []float64
	for at := ref.Next(0); at < horizon; at = ref.Next(at) {
		want = append(want, at)
	}
	if len(want) < 10 {
		t.Fatalf("only %d failures before %g s: the check needs more", len(want), horizon)
	}
	walk := func(widths []float64) []float64 {
		src := core.FailureTimes(nil, failure.NewInjector(mtti, seed))
		var got []float64
		for now, i := 0.0, 0; now < horizon; i++ {
			end := now + widths[i%len(widths)]
			op := core.Op(i % 5)
			if at, hit := src.Strikes(core.Window{Op: op, Start: now, End: end}); hit {
				// The struck op ends at the failure, and the next window
				// (the recovery) starts there.
				got = append(got, at)
				now = at
				continue
			}
			now = end
		}
		if n := len(got); n > 0 && got[n-1] >= horizon {
			got = got[:n-1]
		}
		return got
	}
	for _, widths := range [][]float64{{0.5}, {37}, {1, 250, 0.01, 9}} {
		got := walk(widths)
		if len(got) != len(want) {
			t.Fatalf("windows %v: %d strikes, want %d", widths, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("windows %v: strike %d at %v, want %v", widths, i, got[i], want[i])
			}
		}
	}
}
