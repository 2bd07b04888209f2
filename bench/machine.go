package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// printMachine prints the machine and run record as one JSON line.
// BENCHMARK.json's keys are fixed by the driver's contract, so the
// record the issue wanted inside that file goes with each run's output
// instead.
func printMachine(w workload, seed int64, reps int, ckptRoot string) {
	rec := map[string]any{
		"cpu":               firstField("/proc/cpuinfo", "model name"),
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go":                runtime.Version(),
		"os":                runtime.GOOS + "/" + runtime.GOARCH,
		"kernel":            readTrim("/proc/sys/kernel/osrelease"),
		"commit":            gitCommit(),
		"ckptdir_fs":        fsType(ckptRoot),
		"llc_bytes":         llcBytes(),
		"working_set_bytes": w.workingSetBytes(),
		"workload":          w.name,
		"unknowns":          w.unknowns(),
		"seed":              seed,
		"reps":              reps,
	}
	line, _ := json.Marshal(rec) // a map of strings and ints always marshals
	fmt.Printf("machine %s\n", line)
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// firstField returns the value of the first "key : value" line of a
// /proc text file.
func firstField(path, key string) string {
	for _, line := range strings.Split(readTrim(path), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from the enclosing
// repository, if there is one; the driver's checkout has none.
func gitCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	for ; dir != filepath.Dir(dir); dir = filepath.Dir(dir) {
		head := readTrim(filepath.Join(dir, ".git", "HEAD"))
		if head == "unknown" {
			continue
		}
		if ref, ok := strings.CutPrefix(head, "ref: "); ok {
			return readTrim(filepath.Join(dir, ".git", ref))
		}
		return head
	}
	return "unknown"
}

// fsType is the filesystem type of the mount that holds path: the
// longest mount point in /proc/mounts that prefixes it.
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(readTrim("/proc/mounts"), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// llcBytes is the size of cpu0's highest-level cache as sysfs reports
// it (a hypervisor may report the host's), 0 if unreadable.
func llcBytes() int {
	size := 0
	for i := 0; ; i++ {
		s := readTrim(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if s == "unknown" {
			return size
		}
		var n int
		var unit string
		fmt.Sscanf(s, "%d%s", &n, &unit)
		switch unit {
		case "K":
			n <<= 10
		case "M":
			n <<= 20
		}
		size = max(size, n)
	}
}

// peakRSSMB is the process's VmHWM.
func peakRSSMB() float64 {
	var kb float64
	fmt.Sscanf(firstField("/proc/self/status", "VmHWM"), "%f", &kb)
	return kb / 1024
}
