// Deterministic fault-injection harness: a seeded plan of failure
// kinds pinned to chosen iterations, plus storage-corruption appliers
// for the checkpoint tiers. The spec grammar is
//
//	spec  := event ("," event)*
//	event := kind ("+" kind)* "@" iterspec
//	kind  := "proc" | "abft" | "shard" | "manifest" | "midckpt"
//	       | "storagewrite" | "storageread" | "slowio" | "crash"
//	iterspec := N | N..M | N..M/S
//
// An iterspec range schedules the event at every iteration N, N+S,
// N+2S, … ≤ M (stride S defaults to 1), which is how a campaign of
// hundreds of injected storage faults is spelled in one event:
// "storagewrite@100..600" arms a transient write fault at each of 501
// iterations. A spec names iterations up to 2³¹−1 and expands to at
// most 2²⁰ events in all.
//
// e.g. "proc@50,abft+proc@120,manifest+proc@200": a plain process loss
// at iteration 50, a process loss with corrupted ABFT retained state
// at 120 (forcing the chain past the ABFT tier), and a process loss
// with a corrupted checkpoint manifest at 200 (forcing it past the
// latest checkpoint too). Kinds:
//
//	proc          fail-stop loss of one rank's in-memory state
//	abft          corrupt the ABFT guard's retained redundancy
//	shard         corrupt one shard object of the newest checkpoint
//	manifest      corrupt the newest checkpoint's base object (manifest,
//	              or the payload itself for monolithic layouts)
//	midckpt       the failure strikes while a checkpoint is being
//	              written: the in-flight checkpoint is aborted, then the
//	              process is lost
//	storagewrite  arm a storage fault on an upcoming checkpoint write
//	              (transient or permanent per the injector's seeded mix)
//	storageread   arm a storage fault on an upcoming checkpoint read
//	slowio        arm a slow (delayed) storage op: a stall the solver
//	              sits through (the retry layer does not time ops out)
//	crash         the process dies mid-commit: the storage goes dead
//	              leaving a partial temp artifact, and restart runs the
//	              fsck sweep before recovering
//
// Corruption kinds without proc/midckpt in the same event are latent:
// they damage state silently and surface at the next recovery — the
// fallback-discovery path the tier-exhaustion matrix exercises. The
// storage kinds are handled by StorageInjector (see storage.go),
// which the runner interposes between the resilient retry layer and
// the real store.
package failure

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fti"
	"repro/internal/fti/shard"
)

// Kind is one failure flavor the injection plan can schedule.
type Kind int

const (
	// ProcLoss is a fail-stop process loss: one rank's in-memory block
	// of the solver state is gone.
	ProcLoss Kind = iota
	// CorruptABFT damages the ABFT guard's retained redundant copies,
	// so the ABFT tier fails verification.
	CorruptABFT
	// CorruptShard damages one shard object of the newest checkpoint.
	CorruptShard
	// CorruptManifest damages the newest checkpoint's base object (the
	// manifest for sharded layouts, the payload for monolithic ones).
	CorruptManifest
	// MidCheckpoint makes the failure strike during a checkpoint
	// write: the in-flight checkpoint is aborted and never commits.
	MidCheckpoint
	// StorageWriteFault arms a fault on an upcoming storage write (the
	// injector's seeded transient/permanent mix decides which).
	StorageWriteFault
	// StorageReadFault arms a fault on an upcoming storage read.
	StorageReadFault
	// SlowIO arms a delayed storage operation.
	SlowIO
	// Crash kills the storage mid-commit: a partial temp artifact is
	// left behind and every subsequent op fails until Revive.
	Crash
)

var kindNames = map[Kind]string{
	ProcLoss:          "proc",
	CorruptABFT:       "abft",
	CorruptShard:      "shard",
	CorruptManifest:   "manifest",
	MidCheckpoint:     "midckpt",
	StorageWriteFault: "storagewrite",
	StorageReadFault:  "storageread",
	SlowIO:            "slowio",
	Crash:             "crash",
}

// String names the kind as the spec grammar spells it.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ParseKind parses one spec-grammar kind name.
func ParseKind(s string) (Kind, error) {
	for k, n := range kindNames {
		if n == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("failure: unknown injection kind %q (want proc|abft|shard|manifest|midckpt|storagewrite|storageread|slowio|crash)", s)
}

// Injection is one scheduled event: the kinds that strike together at
// one iteration.
type Injection struct {
	Iteration int
	Kinds     []Kind
}

// Plan is a parsed, seeded injection schedule. The plan's random
// stream drives any per-event choices (which rank dies, which shard is
// corrupted), so a (spec, seed) pair reproduces the identical run.
type Plan struct {
	events []Injection
	rng    *rand.Rand
}

// ParsePlan parses the spec grammar into a deterministic plan. Events
// are sorted by iteration; two events at the same iteration merge.
func ParsePlan(spec string, seed int64) (*Plan, error) {
	p := &Plan{rng: rand.New(rand.NewSource(seed))}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	at := map[int]*Injection{}
	total := 0
	for _, ev := range strings.Split(spec, ",") {
		ev = strings.TrimSpace(ev)
		kindsPart, iterPart, ok := strings.Cut(ev, "@")
		if !ok {
			return nil, fmt.Errorf("failure: event %q lacks '@iteration'", ev)
		}
		lo, stride, n, err := parseIterSpec(strings.TrimSpace(iterPart))
		if err != nil {
			return nil, fmt.Errorf("failure: event %q: %w", ev, err)
		}
		if n > maxRangeEvents-total {
			return nil, fmt.Errorf("failure: spec expands to more than %d events", maxRangeEvents)
		}
		total += n
		var kinds []Kind
		for _, ks := range strings.Split(kindsPart, "+") {
			k, err := ParseKind(strings.TrimSpace(ks))
			if err != nil {
				return nil, err
			}
			kinds = append(kinds, k)
		}
		for k := range n {
			iter := lo + k*stride
			inj := at[iter]
			if inj == nil {
				inj = &Injection{Iteration: iter}
				at[iter] = inj
			}
			for _, k := range kinds {
				if !slices.Contains(inj.Kinds, k) {
					inj.Kinds = append(inj.Kinds, k)
				}
			}
		}
	}
	for _, inj := range at {
		p.events = append(p.events, *inj)
	}
	sort.Slice(p.events, func(i, j int) bool { return p.events[i].Iteration < p.events[j].Iteration })
	return p, nil
}

// maxRangeEvents bounds how many iterations a whole spec may expand
// to — a typo'd "1..1000000000", or many ranges that add up, should
// fail parsing, not eat the heap. maxIteration bounds the iteration an
// event may name, as cmd/solve bounds its iteration-valued flags.
const (
	maxRangeEvents = 1 << 20
	maxIteration   = 1<<31 - 1
)

// parseIterSpec reads an iteration spec — "N", "N..M", or "N..M/S" —
// as the n iterations lo + k·stride, k < n, it schedules. Counting
// rather than stepping to M cannot wrap past the largest int.
func parseIterSpec(s string) (lo, stride, n int, err error) {
	rangePart, stridePart, hasStride := strings.Cut(s, "/")
	first, last, isRange := strings.Cut(rangePart, "..")
	lo, err = strconv.Atoi(strings.TrimSpace(first))
	if err != nil || lo <= 0 {
		return 0, 0, 0, fmt.Errorf("needs a positive iteration, got %q", s)
	}
	if hasStride && !isRange {
		return 0, 0, 0, fmt.Errorf("stride %q without a range in %q", stridePart, s)
	}
	hi := lo
	if isRange {
		if hi, err = strconv.Atoi(strings.TrimSpace(last)); err != nil || hi < lo {
			return 0, 0, 0, fmt.Errorf("range end must be ≥ start in %q", s)
		}
	}
	if hi > maxIteration {
		return 0, 0, 0, fmt.Errorf("iteration beyond %d in %q", maxIteration, s)
	}
	stride = 1
	if hasStride {
		stride, err = strconv.Atoi(strings.TrimSpace(stridePart))
		if err != nil || stride <= 0 {
			return 0, 0, 0, fmt.Errorf("needs a positive stride, got %q", s)
		}
	}
	return lo, stride, (hi-lo)/stride + 1, nil
}

// Events returns the remaining scheduled events in iteration order.
func (p *Plan) Events() []Injection { return p.events }

// Take consumes and returns the kinds scheduled at iterations ≤ iter
// (normally exactly one event). Nil when nothing is due.
func (p *Plan) Take(iter int) []Kind {
	var kinds []Kind
	for len(p.events) > 0 && p.events[0].Iteration <= iter {
		kinds = append(kinds, p.events[0].Kinds...)
		p.events = p.events[1:]
	}
	return kinds
}

// Rand exposes the plan's seeded stream for per-event choices (failed
// rank, corrupted shard index).
func (p *Plan) Rand() *rand.Rand { return p.rng }

// latestCkptBase returns the newest checkpoint base object name in
// storage (monolithic payload or shard manifest), or an error when
// none exists. The name format is fti's "ckpt-%012d"; shard objects
// ("<base>.sNNNNN") are not bases.
func latestCkptBase(st fti.Storage) (string, error) {
	names, err := st.List()
	if err != nil {
		return "", err
	}
	best, bestSeq := "", -1
	for _, n := range names {
		rest, ok := strings.CutPrefix(n, "ckpt-")
		if !ok {
			continue
		}
		seq, err := strconv.Atoi(rest)
		if err != nil {
			continue // a shard object or stray name, not a base
		}
		if seq > bestSeq {
			best, bestSeq = n, seq
		}
	}
	if bestSeq < 0 {
		return "", fmt.Errorf("failure: no checkpoint in storage to corrupt")
	}
	return best, nil
}

// corruptObject flips a byte in the middle of the named object — a
// single-bit-rot style corruption the CRC layers must catch.
func corruptObject(st fti.Storage, name string) error {
	data, err := st.Read(name)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return fmt.Errorf("failure: object %q is empty", name)
	}
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0xFF
	return st.Write(name, mut)
}

// CorruptLatestShard corrupts one shard object of the newest
// checkpoint, chosen by rng; for a monolithic checkpoint the payload
// itself is corrupted. It returns the corrupted object's name.
func CorruptLatestShard(st fti.Storage, rng *rand.Rand) (string, error) {
	base, err := latestCkptBase(st)
	if err != nil {
		return "", err
	}
	data, err := st.Read(base)
	if err != nil {
		return "", err
	}
	name := base
	if shard.IsManifest(data) {
		man, err := shard.ParseManifest(data)
		if err != nil || len(man.Shards) == 0 {
			return "", fmt.Errorf("failure: checkpoint %q has an unreadable manifest", base)
		}
		name = man.Shards[rng.Intn(len(man.Shards))].Name
	}
	if err := corruptObject(st, name); err != nil {
		return "", err
	}
	return name, nil
}

// CorruptLatestManifest corrupts the newest checkpoint's base object:
// the manifest for sharded layouts, the whole payload for monolithic
// ones. Either way the checkpoint stops being restorable and recovery
// must fall back. It returns the corrupted object's name.
func CorruptLatestManifest(st fti.Storage) (string, error) {
	base, err := latestCkptBase(st)
	if err != nil {
		return "", err
	}
	if err := corruptObject(st, base); err != nil {
		return "", err
	}
	return base, nil
}
