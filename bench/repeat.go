package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// runChild runs one pass of one workload in a fresh process, so heap,
// pools and peak RSS belong to that pass alone, and returns its
// standard output and parsed result line.
func runChild(name string, seed int64, seconds float64, trace int, ckptRoot string) (string, result, error) {
	var res result
	exe, err := os.Executable()
	if err != nil {
		return "", res, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-ckptdir", ckptRoot)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return string(out), res, fmt.Errorf("%s seed %d trace %d: no result line (%v): %w", name, seed, trace, runErr, err)
	}
	return string(out), res, runErr
}

// runAll prints every metric of every workload: both passes of all
// four, each pass in a child process.
func runAll(seed int64, seconds float64, ckptRoot string) error {
	failed := false
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			out, res, err := runChild(w.name, seed, seconds, trace, ckptRoot)
			fmt.Print(out)
			if err != nil || !res.Correct {
				failed = true
			}
		}
	}
	if failed {
		return errFailedOps
	}
	return nil
}

// quartiles returns what Python's statistics.quantiles(v, n=4) does
// (the exclusive method), which is what the driver judges spread by.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// runCheckRepeat does what the driver does before it accepts the
// benchmark: ten seeds of every workload, twice. Each end-to-end
// metric's spread (interquartile range over median) must stay within
// its bound in both sets, except setup_s, and no second median may be
// worse than the first by more than the bound. The two sets use the
// same seeds, so the counts must agree exactly.
func runCheckRepeat(seconds float64, ckptRoot string) error {
	const seeds = 10
	ok := true
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = map[string][]float64{}
			for seed := int64(1); seed <= seeds; seed++ {
				_, res, err := runChild(w.name, seed, seconds, 0, ckptRoot)
				if err != nil {
					return err
				}
				for name, m := range res.Metrics {
					sets[set][name] = append(sets[set][name], m.Value)
				}
			}
		}
		fmt.Printf("%s\n  %-14s %14s %8s %14s %8s %8s %6s\n", w.name, "metric", "median 1", "spread", "median 2", "spread", "worse", "bound")
		for _, d := range endToEnd {
			a1, m1, b1 := quartiles(sets[0][d.name])
			a2, m2, b2 := quartiles(sets[1][d.name])
			s1, s2, worse := (b1-a1)/m1, (b2-a2)/m2, (m2-m1)/m1
			verdict := ""
			if (d.name != "setup_s" && max(s1, s2) > d.bound) || worse > d.bound {
				verdict = "  OUT OF BOUND"
				ok = false
			}
			if exact := strings.HasPrefix(d.name, "iters") || d.name == "ckpt_bytes"; exact && m1 != m2 {
				verdict += "  COUNT DIFFERS"
				ok = false
			}
			fmt.Printf("  %-14s %14.6g %7.2f%% %14.6g %7.2f%% %+7.2f%% %5.0f%%%s\n",
				d.name, m1, 100*s1, m2, 100*s2, 100*worse, 100*d.bound, verdict)
		}
	}
	if !ok {
		return fmt.Errorf("the two sets of runs do not agree within the benchmark's own bounds")
	}
	return nil
}
