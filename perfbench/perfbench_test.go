package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"repro/internal/spec"
)

func TestLayerOfStack(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"repro/internal/sim.(*Engine).pop", "repro/internal/mpisim.Run"}, "sim"},
		{[]string{"runtime.mallocgc", "repro/internal/mpisim.(*Sim).send"}, "gc"},
		{[]string{"runtime.memmove", "runtime.mallocgc", "repro/internal/trace.(*Recorder).Add"}, "gc"},
		{[]string{"encoding/json.(*decodeState).object", "repro/internal/spec.Decode"}, "spec"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Fsync", "os.(*File).Sync", "repro/internal/journal.(*Journal).Append"}, "journal"},
		{[]string{"syscall.Syscall", "internal/poll.(*FD).Write", "net.(*conn).Write", "net/http.(*response).finishRequest"}, "http"},
		{[]string{"repro/internal/rng.(*Source).Uint64", "repro/internal/noise.Exponential.func1"}, "noise"},
		{[]string{"repro/internal/topology.Chain.SendTargets", "repro/internal/mpisim.Run"}, "other"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "other"},
	}
	for _, c := range cases {
		if got := layerOfStack(c.frames); got != c.want {
			t.Errorf("layerOfStack(%q) = %s, want %s", c.frames, got, c.want)
		}
	}
}

var allocSink []byte

// TestCPUSharesDecodesRuntimeProfile decodes a profile written by
// runtime/pprof: the samples must exist and the layers must cover them.
func TestCPUSharesDecodesRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		allocSink = make([]byte, 1<<16)
	}
	pprof.StopCPUProfile()
	counts, total, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("no samples decoded")
	}
	var sum int64
	for l, n := range counts {
		if !slices.Contains(cpuLayers, l) {
			t.Errorf("sample charged to unknown layer %q", l)
		}
		sum += n
	}
	if sum != total || counts["gc"] == 0 {
		t.Errorf("counts %v: sum %d, total %d; want equal sums and allocation samples in gc", counts, sum, total)
	}
}

// TestLayerMetricsMatchBenchmarkJSON pins the traced run's metric table
// to the per_layer list the benchmark declares.
func TestLayerMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced run prints %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		p := b.PerLayer[i]
		if p.Name != m.name || p.Unit != m.unit || p.Better != m.better {
			t.Errorf("per_layer[%d] = %+v, traced run has %+v", i, p, m)
		}
	}
}

// TestMixPlan checks the serve-mix sequence: deterministic per seed,
// the stated share of new specs, distinct spec hashes (the service's
// cache keys) for distinct specs, and exactly two fresh points per new
// spec after a family's first.
func TestMixPlan(t *testing.T) {
	p, err := newMixPlan(7)
	if err != nil {
		t.Fatal(err)
	}
	q, err := newMixPlan(7)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p.requests, q.requests) || len(p.specs) != len(q.specs) {
		t.Fatal("same seed, different plans")
	}
	if len(p.requests) != mixRequests {
		t.Fatalf("%d requests, want %d", len(p.requests), mixRequests)
	}
	nNew := mixRequests * mixNewPercent / 100
	if len(p.specs) != nNew {
		t.Fatalf("%d distinct specs, want %d", len(p.specs), nNew)
	}
	gen, families := 0, map[int]bool{}
	hashes := map[string]bool{}
	for _, s := range p.specs {
		if mixFamilyOf(s.family).gen {
			gen++
		}
		families[s.family] = true
		ws, err := spec.Decode(s.body)
		if err != nil {
			t.Fatal(err)
		}
		h, err := ws.Hash()
		if err != nil {
			t.Fatal(err)
		}
		hashes[h] = true
	}
	if want := nNew * mixGenPercent / 100; gen != want {
		t.Errorf("%d gen specs, want %d", gen, want)
	}
	if len(hashes) != nNew {
		t.Errorf("%d distinct spec hashes for %d specs", len(hashes), nNew)
	}
	if want := 4*len(families) + 2*(nNew-len(families)); p.distinctPoints != want {
		t.Errorf("%d distinct points, want %d", p.distinctPoints, want)
	}
}
