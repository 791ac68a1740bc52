// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload through the public entry points (core.Run,
// idlewave.Simulate, serve.Handler over loopback HTTP), checks every
// output, and prints the end-to-end metrics; with --trace 1 it prints
// the per-layer metrics instead. Every timed operation runs in its own
// child process, so memory is measured per workload.
//
//	perfbench --workload chain-scale --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are a
// human-readable report with the host context, sample counts and the
// metrics the JSON line leaves out.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// parallelism is every workload's worker, shard and client count; it is
// part of the workload definition, not of the host.
const parallelism = 2

// minOps is the fewest timed operations (child processes) a run makes.
const minOps = 3

// runLimit bounds a whole run: a child still running then is killed and
// counted as a failed operation.
const runLimit = 170 * time.Second

type workloadDef struct {
	name        string
	defaultSeed uint64
	run         func(*childEnv) error
}

var workloads = []*workloadDef{
	{"paper-full", 42, runPaperFull},
	{"chain-scale", 1, runChainScale},
	{"chain-shard", 1, runChainShard},
	{"serve-mix", 1, runServeMix},
}

func lookup(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", -1, "input seed (-1 = the workload's default)")
		seconds = flag.Float64("seconds", 30, "how long the timed operations of one run should take")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
		workDir = flag.String("workdir", os.TempDir(), "scratch directory for journals")
		child   = flag.Bool("child", false, "internal: run one operation in this process")
		spawned = flag.Int64("spawned", 0, "internal: when the parent started this child (Unix ns)")
	)
	flag.Parse()
	wl, err := lookup(*name)
	if err != nil {
		fatal(err)
	}
	s := wl.defaultSeed
	if *seed >= 0 {
		s = uint64(*seed)
	}
	if *child {
		if err := runChild(wl, s, *trace == 1, *workDir, *spawned); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fatal(err)
	}
	err = runParent(wl, s, *seconds, *trace == 1, dir)
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// spawn runs one operation in a child process and returns its result;
// an operation whose child crashed or printed no result comes back as
// one failed operation.
func spawn(ctx context.Context, name string, seed uint64, traced bool, dir string) *childResult {
	failedOp := func(format string, args ...any) *childResult {
		c := &childResult{Attempted: 1}
		c.fail(format, args...)
		return c
	}
	exe, err := os.Executable()
	if err != nil {
		return failedOp("%v", err)
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	var out bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, "--child", "--workload", name, "--seed", strconv.FormatUint(seed, 10),
		"--trace", tr, "--workdir", dir, "--spawned", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return failedOp("child %s: %v", name, err)
	}
	var res childResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return failedOp("child %s output: %v", name, err)
	}
	return &res
}

// run is one benchmark run: its children's results plus the checks
// made across them.
type run struct {
	ops       []*childResult // successful timed children
	attempted int
	failed    int
	failures  []string
}

// count adds a child's operations and failures to the run.
func (r *run) count(c *childResult) {
	r.attempted += c.Attempted
	r.failed += c.Failed
	r.failures = append(r.failures, c.Failures...)
}

// add counts a timed child and keeps it for the metrics unless it
// produced nothing.
func (r *run) add(c *childResult) {
	r.count(c)
	if c.Digest != "" || c.Attempted > c.Failed {
		r.ops = append(r.ops, c)
	}
}

// crossCheck requires every child of the run to report the same output
// digest, equal to want when want is set. A child that disagrees has
// all its operations counted as failed.
func (r *run) crossCheck(want, what string) {
	for _, c := range r.ops {
		ref := want
		if ref == "" {
			ref = r.ops[0].Digest
		}
		if c.Digest != ref {
			r.failed += c.Attempted - c.Failed
			r.failures = append(r.failures, fmt.Sprintf("output digest %q differs from %s %q", c.Digest, what, ref))
		}
	}
}

func runParent(wl *workloadDef, seed uint64, seconds float64, traced bool, dir string) error {
	steal0, total0 := stealTicks()
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(runLimit))
	defer cancel()
	r := &run{}
	var reference *childResult
	if wl.name == "chain-shard" {
		// The sharded run must reproduce the serial run bit for bit.
		reference = spawn(ctx, "chain-scale", seed, false, dir)
		r.count(reference)
	}
	var tracedRes *childResult
	if traced {
		r.add(spawn(ctx, wl.name, seed, false, dir))
		tracedRes = spawn(ctx, wl.name, seed, true, dir)
		r.add(tracedRes)
	} else {
		deadline := start.Add(time.Duration(seconds * float64(time.Second)))
		for n := 1; ; n++ {
			t := time.Now()
			r.add(spawn(ctx, wl.name, seed, false, dir))
			if (n >= minOps && time.Now().Add(time.Since(t)).After(deadline)) || ctx.Err() != nil {
				break
			}
		}
	}
	if len(r.ops) == 0 {
		for _, f := range r.failures {
			fmt.Fprintln(os.Stderr, "  failure:", f)
		}
		return fmt.Errorf("%s: no operation completed", wl.name)
	}
	switch {
	case reference != nil:
		r.crossCheck(reference.Digest, "the serial chain-scale run")
	case wl.name == "paper-full" && seed == wl.defaultSeed:
		r.crossCheck(paperDigest, "the digest recorded for seed 42")
	default:
		r.crossCheck("", "the run's first operation")
	}
	steal1, total1 := stealTicks()

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d trace=%v ops=%d elapsed=%.1fs\n",
		wl.name, seed, traced, len(r.ops), time.Since(start).Seconds())
	fmt.Fprintf(w, "host: nproc=%d gomaxprocs=%d go=%s steal=%d of %d jiffies (%.1f%%)\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(),
		steal1-steal0, total1-total0, 100*float64(steal1-steal0)/math.Max(1, float64(total1-total0)))
	for _, f := range r.failures {
		fmt.Fprintln(w, "failure:", f)
	}
	for i, c := range r.ops {
		fmt.Fprintf(w, "op %d: setup %.4fs wall %.3fs cpu %.3fs alloc %.1fMB rss %.1fMB requests %d\n",
			i+1, c.SetupS, c.WallS, c.CPUS, c.AllocMB, c.PeakRSSMB, len(c.LatMS))
	}
	fmt.Fprintf(w, "digest %s\n", r.ops[0].Digest)
	fmt.Fprintf(w, "error_rate %.4g (%d failed of %d attempted)\n",
		float64(r.failed)/math.Max(1, float64(r.attempted)), r.failed, r.attempted)

	var metrics map[string]metricOut
	if traced {
		metrics = layerReport(w, r, tracedRes)
	} else {
		metrics = endToEndReport(w, r)
	}
	out, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", out)
	return nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndReport computes the end-to-end metrics as medians over the
// run's operations: of each operation's value, and for req_p50_ms and
// req_p99_ms of each operation's request-latency percentile, which a
// steal burst during one operation cannot move. peak_rss_mb is the
// largest high-water mark instead (the memory one operation must be
// given; garbage-collector timing makes single operations peak lower
// now and then).
func endToEndReport(w *bufio.Writer, r *run) map[string]metricOut {
	col := func(f func(*childResult) float64) []float64 {
		v := make([]float64, len(r.ops))
		for i, c := range r.ops {
			v[i] = f(c)
		}
		return v
	}
	n, nreq := len(r.ops), 0
	for _, c := range r.ops {
		nreq += len(c.LatMS)
	}
	latP := func(p float64) float64 {
		return median(col(func(c *childResult) float64 { return percentile(c.LatMS, p) }))
	}
	rows := []struct {
		name, unit string
		value      float64
		samples    int
		inJSON     bool
	}{
		{"setup_s", "s", median(col(func(c *childResult) float64 { return c.SetupS })), n, true},
		{"wall_s", "s", median(col(func(c *childResult) float64 { return c.WallS })), n, true},
		{"cpu_s", "s", median(col(func(c *childResult) float64 { return c.CPUS })), n, true},
		{"alloc_mb", "MB", median(col(func(c *childResult) float64 { return c.AllocMB })), n, true},
		{"peak_rss_mb", "MB", slices.Max(col(func(c *childResult) float64 { return c.PeakRSSMB })), n, true},
		// Sub-millisecond serve-mix medians track host steal time (0.79 ms
		// at 0.6% steal, 1.12 ms at 4.4% on a 2-vCPU VM), too unsteady to
		// gate on; the tail, req_p99_ms, is gated.
		{"req_p50_ms", "ms", latP(50), nreq, false},
		{"req_p99_ms", "ms", latP(99), nreq, true},
		{"req_per_s", "1/s", median(col(func(c *childResult) float64 { return float64(len(c.LatMS)) / c.WallS })), n, false},
	}
	if r.ops[0].Events > 0 {
		rows = append(rows, struct {
			name, unit string
			value      float64
			samples    int
			inJSON     bool
		}{"events_per_s", "1/s", median(col(func(c *childResult) float64 { return float64(c.Events) / c.WallS })), n, false})
	}
	metrics := make(map[string]metricOut)
	fmt.Fprintf(w, "%-14s %14s %-5s %8s\n", "metric", "value", "unit", "samples")
	for _, row := range rows {
		fmt.Fprintf(w, "%-14s %14.6g %-5s %8d\n", row.name, row.value, row.unit, row.samples)
		if row.inJSON {
			metrics[row.name] = metricOut{row.value, row.unit}
		}
	}
	return metrics
}

// layerReport prints every per-layer metric (0 where the workload does
// not exercise that layer) with its unit and what it should move.
func layerReport(w *bufio.Writer, r *run, traced *childResult) map[string]metricOut {
	metrics := make(map[string]metricOut)
	var untraced *childResult
	for _, c := range r.ops {
		if c != traced {
			untraced = c
		}
	}
	values := map[string]float64{}
	if slices.Contains(r.ops, traced) {
		for k, v := range traced.Layers {
			values[k] = v
		}
		if untraced != nil && untraced.WallS > 0 {
			values["trace_overhead"] = traced.WallS / untraced.WallS
		}
	}
	fmt.Fprintf(w, "%-24s %14s %-6s  %s\n", "metric", "value", "unit", "should move")
	for _, m := range layerMetrics {
		v := values[m.name]
		fmt.Fprintf(w, "%-24s %14.6g %-6s  %s\n", m.name, v, m.unit, m.moves)
		metrics[m.name] = metricOut{v, m.unit}
	}
	return metrics
}

// stealTicks returns the host's steal and total jiffies from /proc/stat.
func stealTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:min(len(fields), 9)] { // user .. steal
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func median(v []float64) float64 { return percentile(v, 50) }

// percentile returns the p-th percentile with linear interpolation
// between closest ranks (0 for no data).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
