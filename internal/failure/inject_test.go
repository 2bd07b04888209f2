package failure

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/fti"
)

func TestParsePlanGrammar(t *testing.T) {
	p, err := ParsePlan("proc@50, abft+proc@120 ,manifest+proc@200,shard+midckpt@300", 1)
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	evs := p.Events()
	if len(evs) != 4 {
		t.Fatalf("want 4 events, got %v", evs)
	}
	if evs[0].Iteration != 50 || len(evs[0].Kinds) != 1 || evs[0].Kinds[0] != ProcLoss {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[1].Iteration != 120 || len(evs[1].Kinds) != 2 {
		t.Fatalf("event 1 = %+v", evs[1])
	}
	if evs[3].Kinds[0] != CorruptShard || evs[3].Kinds[1] != MidCheckpoint {
		t.Fatalf("event 3 = %+v", evs[3])
	}
}

func TestParsePlanMergesAndDedups(t *testing.T) {
	p, err := ParsePlan("proc@10,abft@10,proc@10", 1)
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	evs := p.Events()
	if len(evs) != 1 {
		t.Fatalf("same-iteration events must merge, got %v", evs)
	}
	if len(evs[0].Kinds) != 2 {
		t.Fatalf("duplicate kinds must dedup, got %v", evs[0].Kinds)
	}
}

func TestParsePlanRejectsBadSpecs(t *testing.T) {
	atCap := strings.Repeat("proc@1..65536,", 16) // 2²⁰ events in all
	for _, spec := range []string{"proc", "proc@0", "proc@-3", "proc@x", "bogus@5", "proc+@5",
		// A range is counted, not stepped, so one ending near the largest
		// int cannot wrap; the event cap holds for the whole spec.
		"proc@9223372036854775806..9223372036854775807",
		"proc@9223372036854775807..9223372036854775807/5",
		"proc@1..2147483647",
		atCap + "abft@7",
		"abft@7,proc@1..1048576",
	} {
		if _, err := ParsePlan(spec, 1); err == nil {
			t.Errorf("spec %.60q was accepted", spec)
		}
	}
	if p, err := ParsePlan("  ", 1); err != nil || len(p.Events()) != 0 {
		t.Fatalf("blank spec: plan %+v err %v, want empty plan", p, err)
	}
	for _, spec := range []string{strings.TrimSuffix(atCap, ","), "proc@2147483646..2147483647/1000"} {
		if _, err := ParsePlan(spec, 1); err != nil {
			t.Errorf("spec %.60q: %v", spec, err)
		}
	}
}

// FuzzParsePlan: whatever the spec, ParsePlan does not panic, expands
// to at most maxRangeEvents events, and what it accepts is sorted by
// positive iteration with no kind repeated at one iteration.
func FuzzParsePlan(f *testing.F) {
	for _, spec := range []string{
		"proc@40,midckpt@80",
		"proc@50,abft+proc@120,manifest+proc@200,shard+midckpt@300",
		"storagewrite@10..200,crash@300",
		"proc@10..100/10,slowio+storageread@5",
		"proc@10,abft@10,proc@10",
		"proc@9223372036854775806..9223372036854775807",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec, 1)
		if err != nil {
			return
		}
		evs := p.Events()
		if len(evs) > maxRangeEvents {
			t.Fatalf("%d events, above the cap of %d", len(evs), maxRangeEvents)
		}
		for i, ev := range evs {
			if ev.Iteration <= 0 || (i > 0 && ev.Iteration <= evs[i-1].Iteration) {
				t.Fatalf("event %d at iteration %d: not positive and strictly after %v", i, ev.Iteration, evs[max(i-1, 0)])
			}
			for j, k := range ev.Kinds {
				if slices.Contains(ev.Kinds[:j], k) {
					t.Fatalf("kind %v repeated at iteration %d: %v", k, ev.Iteration, ev.Kinds)
				}
			}
		}
	})
}

func TestPlanTakeConsumesInOrder(t *testing.T) {
	p, err := ParsePlan("proc@30,abft@10,shard@20", 1)
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if got := p.Take(5); got != nil {
		t.Fatalf("Take(5) = %v, want nil", got)
	}
	if got := p.Take(25); len(got) != 2 || got[0] != CorruptABFT || got[1] != CorruptShard {
		t.Fatalf("Take(25) = %v, want [abft shard] in iteration order", got)
	}
	if got := p.Take(25); got != nil {
		t.Fatalf("second Take(25) = %v, events must be consumed", got)
	}
	if got := p.Take(30); len(got) != 1 || got[0] != ProcLoss {
		t.Fatalf("Take(30) = %v, want [proc]", got)
	}
	if len(p.Events()) != 0 {
		t.Fatal("plan not empty after consuming everything")
	}
}

func TestKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{ProcLoss, CorruptABFT, CorruptShard, CorruptManifest, MidCheckpoint} {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip %v: got %v err %v", k, got, err)
		}
	}
}

// saveCheckpoint writes the registered state through a real
// Checkpointer so the corruption helpers face genuine objects.
func saveCheckpoint(t *testing.T, c *fti.Checkpointer) {
	t.Helper()
	if _, err := c.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
}

func TestCorruptLatestShardAndManifest(t *testing.T) {
	st := fti.NewMemStorage()
	c := fti.New(st, fti.Raw{})
	v := make([]float64, 256)
	for i := range v {
		v[i] = float64(i)
	}
	c.Protect("x", &v)
	if err := c.SetSharding(4, 0); err != nil {
		t.Fatalf("SetSharding: %v", err)
	}
	saveCheckpoint(t, c)

	p, _ := ParsePlan("", 99)
	name, err := CorruptLatestShard(st, p.Rand())
	if err != nil {
		t.Fatalf("CorruptLatestShard: %v", err)
	}
	if name == "" {
		t.Fatal("no shard name reported")
	}
	// The corrupted group must now fail to restore (CRC catches it).
	if err := c.Recover(); err == nil {
		t.Fatal("restore succeeded from a corrupted shard")
	}

	saveCheckpoint(t, c) // a fresh good checkpoint
	if _, err := CorruptLatestManifest(st); err != nil {
		t.Fatalf("CorruptLatestManifest: %v", err)
	}
	// keep=2: the walk falls back to the older (shard-corrupted)
	// checkpoint, which is also bad — everything is invalid now.
	if err := c.Recover(); err == nil {
		t.Fatal("restore succeeded with manifest and shard both corrupted")
	}
}

func TestCorruptHelpersWithoutCheckpoints(t *testing.T) {
	st := fti.NewMemStorage()
	if _, err := CorruptLatestShard(st, ParseMustPlan(t, "", 1).Rand()); err == nil {
		t.Fatal("CorruptLatestShard on empty storage must error")
	}
	if _, err := CorruptLatestManifest(st); err == nil {
		t.Fatal("CorruptLatestManifest on empty storage must error")
	}
}

// ParseMustPlan is a test helper: parse or fail.
func ParseMustPlan(t *testing.T, spec string, seed int64) *Plan {
	t.Helper()
	p, err := ParsePlan(spec, seed)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", spec, err)
	}
	return p
}
