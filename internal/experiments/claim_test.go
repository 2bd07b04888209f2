package experiments

import (
	"fmt"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fti"
	"repro/internal/solver"
	"repro/internal/sz"
)

// The paper's claim on the wall clock: under failures and a storage
// bandwidth that a checkpoint has to pay for, a lossy checkpoint brings
// a solve to its answer sooner than a lossless or a traditional one
// (arXiv 1804.11268, Fig. 10). The harness is three pieces of test
// code: a store that sleeps for its bandwidth, a step-keyed process
// failure, and the wall-clock run that cmd/solve makes (solver.New,
// core.NewManager and core.Drive with nil Costs).

// claimPerOp is the fixed latency each storage operation pays on top
// of its bytes.
const claimPerOp = 500 * time.Microsecond

// throttledStore is a MemStorage whose every Write and Read sleeps
// claimPerOp plus its bytes over bw. One mutex serialises the sleeps,
// so concurrent operations share the bandwidth as ranks share a
// parallel file system. bw 0 leaves the store unthrottled.
type throttledStore struct {
	*fti.MemStorage
	bw float64 // bytes per second
	mu sync.Mutex
}

func (s *throttledStore) charge(n int) {
	if s.bw == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(claimPerOp + time.Duration(float64(n)/s.bw*float64(time.Second)))
}

func (s *throttledStore) Write(name string, data []byte) error {
	s.charge(len(data))
	return s.MemStorage.Write(name, data)
}

func (s *throttledStore) Read(name string) ([]byte, error) {
	data, err := s.MemStorage.Read(name)
	s.charge(len(data))
	return data, err
}

// procAt is cmd/solve's -inject proc@N: the process is lost once, at
// the end of the step that brings the solver's counter to N.
type procAt struct {
	iter int
	done bool
}

func (f *procAt) Strikes(w core.Window) (float64, bool) {
	if f.done || w.Op != core.OpStep || w.Iteration != f.iter {
		return 0, false
	}
	f.done = true
	return w.End, true
}

// claimBandwidths are the table's rows in MB/s, 0 for an unthrottled
// store.
var claimBandwidths = []float64{0, 100, 20, 5}

// cgUnthrottledFloor declares CG's one standing reversal of the claim:
// on an unthrottled store nothing is bought with fewer bytes, and lossy
// pays N′ = 13 extra steps (67 executed against 54) and an SZ encode per
// save, so it comes in at or above traditional. With IC(0)-PCG at about
// 0.8 ms a step, lossy/traditional was 1.35–1.42 over four medians of
// three runs (43–52 ms against 58–74 ms; single runs spread ±20%). A
// change that turns the reversal around — a cheaper N′, a faster encode
// — has to move this line.
const cgUnthrottledFloor = 1.0

// claimCase is one solve of the claim: a method on a 3-D Poisson grid,
// a save every interval steps, and one process failure at failAt.
// asserted lists the bandwidths its assertions read; the other rows are
// measured only under -v, for the table.
type claimCase struct {
	name     string
	method   string
	grid     int
	rtol     float64
	interval int
	failAt   int
	asserted []float64
}

// claimRun is one measured solve.
type claimRun struct {
	seconds float64 // wall seconds inside core.Drive
	iters   int     // iterations executed, replays and N′ included
	bytes   int     // bytes of the last committed checkpoint
}

// runClaim solves c under scheme over a store throttled to mbps (0: not
// throttled) and returns what it measured.
func runClaim(t *testing.T, c claimCase, scheme core.Scheme, mbps float64) claimRun {
	t.Helper()
	a, b := poissonSystem(c.grid)
	s, err := solver.New(c.method, a, b, solver.Options{RTol: c.rtol})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Scheme: scheme, Interval: c.interval}
	if scheme == core.Lossy {
		cfg.SZParams = sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4}
	}
	m, err := core.NewManager(cfg, &throttledStore{MemStorage: fti.NewMemStorage(), bw: mbps * 1e6}, s)
	if err != nil {
		t.Fatal(err)
	}
	out, err := core.Drive(core.DriveConfig{Stepper: s, Manager: m, X0: make([]float64, a.Rows),
		Failures: &procAt{iter: c.failAt}})
	if err != nil {
		t.Fatal(err)
	}
	if failures, tiers, _ := out.Recoveries(); !out.Converged || failures != 1 || tiers[core.TierCheckpoint] != 1 {
		t.Fatalf("%s %v at %g MB/s: converged %v, %d failures, recoveries by tier %v; want a converged run that restarted once from its latest checkpoint",
			c.name, scheme, mbps, out.Converged, failures, tiers)
	}
	return claimRun{seconds: out.SimSeconds, iters: out.IterationsExecuted, bytes: m.LastInfo().Bytes}
}

// raceBuild reports whether the test binary runs under the race
// detector, which slows compute several-fold and sleeps not at all, so
// it shifts every time below and proves nothing about them.
func raceBuild() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestLossyCheckpointsWinOnTheWallClock is the paper's claim as a test.
// On the medians of three runs per cell at 20 MB/s, lossy beats both
// lossless and traditional for CG 48³ (proc@40, a save every 10 steps)
// and for Jacobi 32³ (proc@900, every 50), and CG's lossy time is at
// most 0.4 of traditional's: a lossy Manager that saved raw x, not
// SZ, would still beat traditional there (it saves x alone) but lands
// near 0.56. At 5 MB/s CG shows the paper's whole ordering, lossy <
// lossless < traditional; one run per cell is enough for gaps of 7×.
// Unthrottled, CG keeps its declared reversal (cgUnthrottledFloor), on
// the median of five runs' lossy/traditional ratios. Under -race the
// runs and their checks still happen, once per cell, and no time is
// asserted. Under -v the test also measures the
// unthrottled and the other bandwidths, one run per cell, and logs the
// whole table.
func TestLossyCheckpointsWinOnTheWallClock(t *testing.T) {
	race := raceBuild()
	schemes := []core.Scheme{core.Traditional, core.Lossless, core.Lossy}
	cases := []claimCase{
		{name: "CG 48³ proc@40, a save every 10 steps", method: "cg", grid: 48, rtol: 1e-7, interval: 10, failAt: 40,
			asserted: []float64{0, 20, 5}},
		{name: "Jacobi 32³ proc@900, a save every 50 steps", method: "jacobi", grid: 32, rtol: 1e-4, interval: 50, failAt: 900,
			asserted: []float64{20}},
	}
	for _, c := range cases {
		median := map[float64]map[core.Scheme]float64{}
		var table strings.Builder
		fmt.Fprintf(&table, "%s: wall seconds in core.Drive, median [min–max] of n runs\n", c.name)
		fmt.Fprintf(&table, "%-10s %-26s %-26s %-26s\n", "bandwidth", "traditional", "lossless", "lossy")
		var last [3]claimRun
		var unthrottled float64 // the median run's lossy/traditional, no throttle
		for _, mbps := range claimBandwidths {
			if !slices.Contains(c.asserted, mbps) && !testing.Verbose() {
				continue
			}
			runs := 1
			switch {
			case race:
			case mbps == 0:
				runs = 5
			case mbps == 20:
				runs = 3
			}
			median[mbps] = map[core.Scheme]float64{}
			label := "none"
			if mbps > 0 {
				label = fmt.Sprintf("%g MB/s", mbps)
			}
			fmt.Fprintf(&table, "%-10s", label)
			// The schemes take turns run by run, so a slow phase of the
			// host lands on all of them alike.
			var secs [3][]float64
			for range runs {
				for i, scheme := range schemes {
					last[i] = runClaim(t, c, scheme, mbps)
					secs[i] = append(secs[i], last[i].seconds)
				}
			}
			if mbps == 0 {
				// A run's lossy and traditional solves ran back to back,
				// so their ratio cancels a slow phase of the host that
				// a ratio of two medians can catch on one side only.
				ratios := make([]float64, runs)
				for k := range ratios {
					ratios[k] = secs[2][k] / secs[0][k]
				}
				slices.Sort(ratios)
				unthrottled = ratios[runs/2]
			}
			for i, scheme := range schemes {
				secs := secs[i]
				slices.Sort(secs)
				median[mbps][scheme] = secs[len(secs)/2]
				fmt.Fprintf(&table, " %-26s", fmt.Sprintf("%.3f [%.3f–%.3f] n=%d", secs[len(secs)/2], secs[0], secs[len(secs)-1], runs))
			}
			if mbps == 0 {
				fmt.Fprintf(&table, " lossy/traditional %.2f (median run)", unthrottled)
			}
			table.WriteString("\n")
		}
		fmt.Fprintf(&table, "iterations executed %d / %d / %d, bytes per save %d / %d / %d",
			last[0].iters, last[1].iters, last[2].iters, last[0].bytes, last[1].bytes, last[2].bytes)
		t.Log(table.String())
		if race {
			continue
		}
		at20 := median[20]
		if !(at20[core.Lossy] < at20[core.Lossless] && at20[core.Lossy] < at20[core.Traditional]) {
			t.Errorf("%s at 20 MB/s: lossy %.3f s, lossless %.3f s, traditional %.3f s; want lossy below both",
				c.name, at20[core.Lossy], at20[core.Lossless], at20[core.Traditional])
		}
		if c.method != "cg" {
			continue
		}
		if ratio := at20[core.Lossy] / at20[core.Traditional]; ratio > 0.4 {
			t.Errorf("%s at 20 MB/s: lossy/traditional = %.2f, want at most 0.4 (SZ measured near 0.22, raw x near 0.56)", c.name, ratio)
		}
		at5 := median[5]
		if !(at5[core.Lossy] < at5[core.Lossless] && at5[core.Lossless] < at5[core.Traditional]) {
			t.Errorf("%s at 5 MB/s: lossy %.3f s, lossless %.3f s, traditional %.3f s; want lossy < lossless < traditional",
				c.name, at5[core.Lossy], at5[core.Lossless], at5[core.Traditional])
		}
		if unthrottled < cgUnthrottledFloor {
			t.Errorf("%s unthrottled: median run's lossy/traditional = %.2f, below the declared %.2f: the reversal is gone; update cgUnthrottledFloor",
				c.name, unthrottled, cgUnthrottledFloor)
		}
	}
}
