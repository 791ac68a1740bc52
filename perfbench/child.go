package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childResult is what one child process reports: one timed operation
// of one workload, measured from inside the process that ran only it.
type childResult struct {
	SetupS    float64   `json:"setup_s"`
	WallS     float64   `json:"wall_s"`
	CPUS      float64   `json:"cpu_s"`
	AllocMB   float64   `json:"alloc_mb"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	LatMS     []float64 `json:"lat_ms"` // one entry per user-level request
	Events    uint64    `json:"events,omitempty"`
	// Digest fingerprints the operation's outputs; every child of a run
	// (same workload, same seed) must report the same one.
	Digest    string             `json:"digest"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
}

// fail records a failed operation, keeping the first few messages.
func (r *childResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// childEnv is handed to a workload's run function: the seed, whether the
// run is traced, a scratch directory inside the checkout, and the hooks
// that bracket the timed part.
type childEnv struct {
	seed    uint64
	traced  bool
	workDir string
	res     *childResult

	spawned time.Time
	start   time.Time
	cpu0    float64
	alloc0  uint64
	prof    bytes.Buffer
}

// begin ends set-up and starts the timed part. In a traced child it
// also starts the CPU profile.
func (e *childEnv) begin() error {
	if e.traced {
		if err := pprof.StartCPUProfile(&e.prof); err != nil {
			return err
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.alloc0 = ms.TotalAlloc
	e.cpu0 = processCPU()
	e.start = time.Now()
	e.res.SetupS = e.start.Sub(e.spawned).Seconds()
	return nil
}

// end closes the timed part and, when traced, attributes the profile's
// samples to layers.
func (e *childEnv) end() error {
	e.res.WallS = time.Since(e.start).Seconds()
	e.res.CPUS = processCPU() - e.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.res.AllocMB = float64(ms.TotalAlloc-e.alloc0) / (1 << 20)
	if !e.traced {
		return nil
	}
	pprof.StopCPUProfile()
	counts, total, err := cpuShares(e.prof.Bytes())
	if err != nil {
		return err
	}
	e.layer("profile.samples", float64(total))
	for _, l := range cpuLayers {
		share := 0.0
		if total > 0 {
			share = float64(counts[l]) / float64(total)
		}
		e.layer(l+".cpu_share", share)
	}
	return nil
}

func (e *childEnv) layer(name string, v float64) {
	if e.res.Layers == nil {
		e.res.Layers = make(map[string]float64)
	}
	e.res.Layers[name] = v
}

// processCPU returns the process's user+system CPU seconds so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM missing from /proc/self/status")
}

// runChild runs one operation of a workload in this process and prints
// its childResult as one JSON line.
func runChild(wl *workloadDef, seed uint64, traced bool, workDir string, spawnedNs int64) error {
	res := &childResult{}
	env := &childEnv{seed: seed, traced: traced, workDir: workDir, res: res, spawned: time.Unix(0, spawnedNs)}
	if err := wl.run(env); err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	res.PeakRSSMB = rss
	return json.NewEncoder(os.Stdout).Encode(res)
}
