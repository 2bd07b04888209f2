package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/abft"
	"repro/internal/failure"
	"repro/internal/fti"
	"repro/internal/precond"
	"repro/internal/solver"
	"repro/internal/sparse"
	"repro/internal/sz"
)

// tieredRig is one guarded CG + lossy Manager under test.
type tieredRig struct {
	a  *sparse.CSR
	cg *solver.CG
	g  *abft.Guard
	m  *Manager
	st *fti.MemStorage
	x0 []float64
}

func newTieredRig(t *testing.T, seed int64) *tieredRig { return newTieredRigOn(t, seed, 8) }

// newTieredRigOn builds the rig over a grid³ Poisson system.
func newTieredRigOn(t *testing.T, seed int64, grid int) *tieredRig {
	t.Helper()
	a := sparse.Poisson3D(grid)
	b := sparse.OnesRHS(a.Rows)
	cg := solver.NewCG(a, precond.NewJacobiFromMatrix(a), b, nil, solver.SeqSpace{},
		solver.Options{RTol: 1e-8})
	g, err := abft.NewGuard(a, b, cg, abft.Config{Seed: seed})
	if err != nil {
		t.Fatalf("NewGuard: %v", err)
	}
	st := fti.NewMemStorage()
	m, err := NewManager(Config{
		Scheme:   Lossy,
		SZParams: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4},
		ABFT:     g,
	}, st, cg)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return &tieredRig{a: a, cg: cg, g: g, m: m, st: st, x0: make([]float64, a.Rows)}
}

// steps advances n iterations with per-iteration ABFT retention.
func (r *tieredRig) steps(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		r.cg.Step()
		r.g.Observe()
	}
}

func (r *tieredRig) checkpoint(t *testing.T) {
	t.Helper()
	if _, err := r.m.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
}

// corruptAllCheckpoints flips a byte in every stored checkpoint object.
func (r *tieredRig) corruptAllCheckpoints(t *testing.T) {
	t.Helper()
	names, err := r.st.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	for _, name := range names {
		if !strings.HasPrefix(name, "ckpt-") {
			continue
		}
		data, err := r.st.Read(name)
		if err != nil {
			t.Fatalf("Read %s: %v", name, err)
		}
		mut := append([]byte(nil), data...)
		mut[len(mut)/2] ^= 0xFF
		if err := r.st.Write(name, mut); err != nil {
			t.Fatalf("Write %s: %v", name, err)
		}
	}
}

func TestRecoverTieredUsesABFTFirst(t *testing.T) {
	r := newTieredRig(t, 1)
	r.steps(t, 5)
	r.checkpoint(t)
	r.steps(t, 5)
	pre := r.cg.Iteration()

	r.g.FailNextRank()
	rep, err := r.m.RecoverTiered(r.x0)
	if err != nil {
		t.Fatalf("RecoverTiered: %v", err)
	}
	if rep.Used != TierABFT {
		t.Fatalf("used %v, want abft", rep.Used)
	}
	if len(rep.Attempts) != 1 || !rep.Attempts[0].Accepted {
		t.Fatalf("attempts = %+v, want one accepted abft attempt", rep.Attempts)
	}
	if rep.Iteration != pre {
		t.Fatalf("recovered to iteration %d, want pre-failure %d (no rollback)", rep.Iteration, pre)
	}
	if rb := rep.ReadBytes(); rb != 0 {
		t.Fatalf("ABFT recovery read %d bytes from storage, want 0", rb)
	}
}

func TestRecoverTieredFallsBackToLatestCheckpoint(t *testing.T) {
	r := newTieredRig(t, 1)
	r.steps(t, 5)
	r.checkpoint(t)
	ckptIt := lastCkptIter(r.m)
	r.steps(t, 5)

	r.g.CorruptRetained() // ABFT tier must fail verification
	r.g.FailNextRank()
	rep, err := r.m.RecoverTiered(r.x0)
	if err != nil {
		t.Fatalf("RecoverTiered: %v", err)
	}
	if rep.Used != TierCheckpoint {
		t.Fatalf("used %v, want checkpoint", rep.Used)
	}
	if len(rep.Attempts) != 2 {
		t.Fatalf("attempts = %+v, want rejected abft then accepted checkpoint", rep.Attempts)
	}
	if rep.Attempts[0].Tier != TierABFT || rep.Attempts[0].Accepted {
		t.Fatalf("first attempt %+v, want rejected abft", rep.Attempts[0])
	}
	if !strings.Contains(rep.Attempts[0].Err, "checksum") {
		t.Fatalf("abft rejection %q does not name the checksum", rep.Attempts[0].Err)
	}
	if rep.Attempts[1].Tier != TierCheckpoint || !rep.Attempts[1].Accepted || rep.Attempts[1].ReadBytes == 0 {
		t.Fatalf("second attempt %+v, want accepted checkpoint with bytes read", rep.Attempts[1])
	}
	if rep.Iteration != ckptIt {
		t.Fatalf("recovered to iteration %d, want checkpoint's %d", rep.Iteration, ckptIt)
	}
}

func TestRecoverTieredFallsBackToPreviousCheckpoint(t *testing.T) {
	r := newTieredRig(t, 1)
	r.steps(t, 4)
	r.checkpoint(t)
	r.steps(t, 4)
	r.checkpoint(t) // two committed checkpoints (keep=2)
	r.steps(t, 4)

	r.g.CorruptRetained()
	if _, err := failure.CorruptLatestManifest(r.st); err != nil {
		t.Fatalf("CorruptLatestManifest: %v", err)
	}
	r.g.FailNextRank()
	rep, err := r.m.RecoverTiered(r.x0)
	if err != nil {
		t.Fatalf("RecoverTiered: %v", err)
	}
	if rep.Used != TierPreviousCheckpoint {
		t.Fatalf("used %v, want previous-checkpoint; attempts %+v", rep.Used, rep.Attempts)
	}
	tiers := make([]RecoveryTier, len(rep.Attempts))
	for i, a := range rep.Attempts {
		tiers[i] = a.Tier
	}
	want := []RecoveryTier{TierABFT, TierCheckpoint, TierPreviousCheckpoint}
	for i := range want {
		if i >= len(tiers) || tiers[i] != want[i] {
			t.Fatalf("attempt tiers %v, want %v", tiers, want)
		}
	}
	if rep.Attempts[1].Accepted {
		t.Fatal("corrupted latest checkpoint was accepted")
	}
	// The rejected read was still paid: its bytes count in the total.
	if rep.Attempts[1].ReadBytes == 0 {
		t.Fatal("rejected checkpoint attempt reports no read bytes")
	}
}

// TestRecoverTieredRejectsForeignPredictor: a newest checkpoint whose
// CRC holds but whose SZ block names a predictor this decoder does not
// know, or grid strides no encoder writes, is an error — not a
// reconstruction under no bound — and recovery lands on the checkpoint
// before it.
func TestRecoverTieredRejectsForeignPredictor(t *testing.T) {
	// The core header of a 12³ iterate's block: predictor 3, strides 12
	// and 144 as uvarints.
	header := []byte{byte(sz.PredictorLorenzoND), 12, 0x90, 0x01}
	for name, forged := range map[string][]byte{
		"unknown predictor": {9, 12, 0x90, 0x01},
		"zero row stride":   {byte(sz.PredictorLorenzoND), 0, 0x90, 0x01},
		"ragged slab":       {byte(sz.PredictorLorenzoND), 12, 0x91, 0x01},
	} {
		r := newTieredRigOn(t, 1, 12)
		r.steps(t, 4)
		r.checkpoint(t)
		r.steps(t, 4)
		r.checkpoint(t)
		firstIt := r.cg.Iteration() - 4
		r.steps(t, 4)

		names, err := r.st.List()
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(names)
		newest := names[len(names)-1]
		data, err := r.st.Read(newest)
		if err != nil {
			t.Fatal(err)
		}
		at := bytes.Index(data, header)
		if at < 0 {
			t.Fatalf("%s: %s holds no block predicted over the 12×12×12 grid", name, newest)
		}
		body := bytes.Clone(data[:len(data)-4])
		copy(body[at:], forged)
		if err := r.st.Write(newest, binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))); err != nil {
			t.Fatal(err)
		}

		r.g.CorruptRetained()
		r.g.FailNextRank()
		rep, err := r.m.RecoverTiered(r.x0)
		if err != nil {
			t.Fatalf("%s: RecoverTiered: %v", name, err)
		}
		if rep.Used != TierPreviousCheckpoint || rep.Iteration != firstIt {
			t.Fatalf("%s: used %v at iteration %d, want previous-checkpoint at %d; attempts %+v", name, rep.Used, rep.Iteration, firstIt, rep.Attempts)
		}
		if why := rep.Attempts[1].Err; !strings.Contains(why, "sz: ") {
			t.Fatalf("%s: the newest checkpoint was refused for %q, want the SZ decoder's verdict", name, why)
		}
	}
}

func TestRecoverTieredDegradesToRestartZero(t *testing.T) {
	r := newTieredRig(t, 1)
	r.steps(t, 4)
	r.checkpoint(t)
	r.steps(t, 4)
	r.checkpoint(t)
	r.steps(t, 4)

	r.g.CorruptRetained()
	r.corruptAllCheckpoints(t)
	r.g.FailNextRank()
	rep, err := r.m.RecoverTiered(r.x0)
	if err != nil {
		t.Fatalf("RecoverTiered must never error for a degraded recovery, got %v", err)
	}
	if rep.Used != TierRestartZero {
		t.Fatalf("used %v, want restart-zero; attempts %+v", rep.Used, rep.Attempts)
	}
	if rep.Iteration != 0 {
		t.Fatalf("restart-zero recovered to iteration %d, want 0", rep.Iteration)
	}
	last := rep.Attempts[len(rep.Attempts)-1]
	if last.Tier != TierRestartZero || !last.Accepted {
		t.Fatalf("final attempt %+v, want accepted restart-zero", last)
	}
	// Every tier was tried: abft, both checkpoints, zero.
	if len(rep.Attempts) != 4 {
		t.Fatalf("attempts = %+v, want 4 (full exhaustion)", rep.Attempts)
	}
	// The solver must be healthy: continue to convergence.
	res, err := solver.RunToConvergence(r.cg, solver.Options{}, nil)
	if err != nil || !res.Converged {
		t.Fatalf("post-exhaustion solve: converged=%v err=%v", res != nil && res.Converged, err)
	}
}

func TestRecoverTieredAfterMidCheckpointAbort(t *testing.T) {
	r := newTieredRig(t, 1)
	r.steps(t, 4)
	r.checkpoint(t)
	r.steps(t, 4)
	// A failure strikes mid-write: the in-flight checkpoint never
	// commits, and the ABFT redundancy was corrupted by the same event.
	r.checkpoint(t)
	if err := r.m.AbortLastCheckpoint(); err != nil {
		t.Fatalf("AbortLastCheckpoint: %v", err)
	}
	r.g.CorruptRetained()
	r.g.FailNextRank()
	rep, err := r.m.RecoverTiered(r.x0)
	if err != nil {
		t.Fatalf("RecoverTiered: %v", err)
	}
	// After the abort the surviving earlier checkpoint is the latest
	// committed one again — recovery restores it as TierCheckpoint.
	if rep.Used != TierCheckpoint {
		t.Fatalf("used %v, want checkpoint (the pre-abort survivor); attempts %+v", rep.Used, rep.Attempts)
	}
	if rep.Iteration != 4 {
		t.Fatalf("recovered to iteration %d, want 4", rep.Iteration)
	}
}

func TestRecoverTieredWithNoRetentionNoCheckpoint(t *testing.T) {
	r := newTieredRig(t, 1)
	// Failure before any Observe or Checkpoint: the chain must bottom
	// out at restart-from-zero without panicking.
	r.cg.Step()
	r.g.FailRank(0)
	rep, err := r.m.RecoverTiered(r.x0)
	if err != nil {
		t.Fatalf("RecoverTiered: %v", err)
	}
	if rep.Used != TierRestartZero {
		t.Fatalf("used %v, want restart-zero", rep.Used)
	}
}

// tieredTrace is the determinism fingerprint of one full injected run.
type tieredTrace struct {
	tiers    []RecoveryTier
	attempts []string
	iters    int
	residual uint64
}

// runTieredScenario drives a fixed failure scenario end to end and
// fingerprints every recovery decision plus the final solver state.
func runTieredScenario(t *testing.T, seed int64) tieredTrace {
	t.Helper()
	r := newTieredRig(t, seed)
	var tr tieredTrace
	fail := func(prep func()) {
		if prep != nil {
			prep()
		}
		r.g.FailNextRank()
		rep, err := r.m.RecoverTiered(r.x0)
		if err != nil {
			t.Fatalf("RecoverTiered: %v", err)
		}
		tr.tiers = append(tr.tiers, rep.Used)
		for _, a := range rep.Attempts {
			status := "+"
			if !a.Accepted {
				status = "-"
			}
			tr.attempts = append(tr.attempts,
				a.Tier.String()+status+string(rune('0'+a.Seq%10)))
		}
	}
	r.steps(t, 4)
	r.checkpoint(t)
	r.steps(t, 4)
	fail(nil) // ABFT tier
	r.steps(t, 2)
	fail(func() { r.g.CorruptRetained() }) // checkpoint tier
	r.steps(t, 2)
	r.checkpoint(t)
	r.steps(t, 2)
	fail(func() {
		r.g.CorruptRetained()
		if _, err := failure.CorruptLatestManifest(r.st); err != nil {
			t.Fatalf("CorruptLatestManifest: %v", err)
		}
	}) // previous-checkpoint tier
	res, err := solver.RunToConvergence(r.cg, solver.Options{}, func(int, float64) error {
		r.g.Observe()
		return nil
	})
	if err != nil || !res.Converged {
		t.Fatalf("scenario solve: converged=%v err=%v", res != nil && res.Converged, err)
	}
	tr.iters = res.Iterations
	tr.residual = math.Float64bits(res.FinalResidual)
	return tr
}

func TestTieredRecoveryBitwiseDeterministic(t *testing.T) {
	a, b := runTieredScenario(t, 7), runTieredScenario(t, 7)
	if len(a.tiers) != len(b.tiers) {
		t.Fatalf("tier sequences differ in length: %v vs %v", a.tiers, b.tiers)
	}
	for i := range a.tiers {
		if a.tiers[i] != b.tiers[i] {
			t.Fatalf("tier sequences diverge at %d: %v vs %v", i, a.tiers, b.tiers)
		}
	}
	if strings.Join(a.attempts, ",") != strings.Join(b.attempts, ",") {
		t.Fatalf("attempt traces diverge:\n%v\n%v", a.attempts, b.attempts)
	}
	if a.iters != b.iters {
		t.Fatalf("iteration counts diverge: %d vs %d", a.iters, b.iters)
	}
	if a.residual != b.residual {
		t.Fatalf("final residuals are not bitwise equal: %x vs %x", a.residual, b.residual)
	}
	// The scenario must actually have exercised three distinct tiers.
	want := []RecoveryTier{TierABFT, TierCheckpoint, TierPreviousCheckpoint}
	for i, w := range want {
		if a.tiers[i] != w {
			t.Fatalf("scenario tiers %v, want %v", a.tiers, want)
		}
	}
}
