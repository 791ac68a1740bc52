package idlewave

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/mpisim"
	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wave"
	"repro/internal/workload"
)

// traceModeScenarios are the public-API scenarios the reduced-trace
// equivalence tests run: a chain and a torus, each with a mid-run delay
// injection whose wave front the analytics track.
func traceModeScenarios(t *testing.T) []struct {
	name   string
	spec   ScenarioSpec
	source int
} {
	t.Helper()
	torus, err := Torus2D(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name   string
		spec   ScenarioSpec
		source int
	}{
		{
			name: "chain",
			spec: ScenarioSpec{
				Ranks: 32, Steps: 10,
				Delay:    []Injection{Inject(16, 2, 15*time.Millisecond)},
				Boundary: Open,
			},
			source: 16,
		},
		{
			name: "torus",
			spec: ScenarioSpec{
				Topology: torus, Steps: 10,
				Delay: []Injection{Inject(12, 2, 15*time.Millisecond)},
			},
			source: 12,
		},
	}
}

// TestReducedTraceMatchesFullTrace is the public-API equivalence
// property behind 10^5-rank scenarios: running with the trace recorder
// off and the front tracked incrementally (Trace: TraceOff,
// FrontSources) must yield exactly the wave analytics a full-trace run
// extracts from the buffered timeline.
func TestReducedTraceMatchesFullTrace(t *testing.T) {
	for _, sc := range traceModeScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			full, err := Simulate(sc.spec)
			if err != nil {
				t.Fatal(err)
			}
			off := sc.spec
			off.Trace = TraceOff
			off.FrontSources = []int{sc.source}
			reduced, err := Simulate(off)
			if err != nil {
				t.Fatal(err)
			}

			if reduced.End != full.End || reduced.Events != full.Events {
				t.Errorf("reduced run diverged: end %v vs %v, events %d vs %d",
					reduced.End, full.End, reduced.Events, full.Events)
			}
			for _, rt := range reduced.Traces.Ranks {
				if len(rt.Segments) != 0 {
					t.Fatalf("TraceOff recorded %d segments for rank %d", len(rt.Segments), rt.Rank)
				}
			}

			vFull, err := full.WaveSpeed(sc.source)
			if err != nil {
				t.Fatal(err)
			}
			vOff, err := reduced.WaveSpeed(sc.source)
			if err != nil {
				t.Fatal(err)
			}
			if vFull != vOff {
				t.Errorf("wave speed %v from the stream, %v from the trace", vOff, vFull)
			}
			dFull, err := full.WaveDecay(sc.source)
			if err != nil {
				t.Fatal(err)
			}
			dOff, err := reduced.WaveDecay(sc.source)
			if err != nil {
				t.Fatal(err)
			}
			if dFull != dOff {
				t.Errorf("wave decay %v from the stream, %v from the trace", dOff, dFull)
			}
			aFull := full.ShellArrivals(sc.source)
			aOff := reduced.ShellArrivals(sc.source)
			if len(aFull) != len(aOff) {
				t.Fatalf("shell arrivals: %d shells from the stream, %d from the trace", len(aOff), len(aFull))
			}
			for i := range aFull {
				if aFull[i] != aOff[i] {
					t.Errorf("shell %d arrival %v from the stream, %v from the trace", i, aOff[i], aFull[i])
				}
			}
		})
	}
}

// TestReducedTraceDegradesExplicitly pins the reduced-trace contract:
// sources that were not tracked yield the empty-front sample errors,
// and trace-based analytics see an empty timeline instead of lying.
func TestReducedTraceDegradesExplicitly(t *testing.T) {
	sc := traceModeScenarios(t)[0]
	off := sc.spec
	off.Trace = TraceOff
	off.FrontSources = []int{sc.source}
	res, err := Simulate(off)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.WaveSpeed(sc.source + 1); err == nil {
		t.Error("WaveSpeed for an untracked source succeeded under TraceOff")
	}
	if idle := res.IdleByStep(); len(idle) != 0 {
		t.Errorf("IdleByStep reported %d steps without a trace", len(idle))
	}
	if total := res.TotalIdle(); total != 0 {
		t.Errorf("TotalIdle = %v without a trace", total)
	}

	if _, err := Simulate(ScenarioSpec{Ranks: 8, Steps: 3, Trace: TraceMode(9)}); err == nil {
		t.Error("invalid trace mode accepted")
	}
	if _, err := Simulate(ScenarioSpec{Ranks: 8, Steps: 3, FrontSources: []int{99}}); err == nil {
		t.Error("out-of-range front source accepted")
	}
}

// TestStreamedFrontMemoryScales bounds what trace-off mode saves: a
// 100k-rank, 12-step chain run with the trace recorder off and the front
// streamed from its waits must allocate less than 20x the bytes of a
// 1k-rank, 60-step chain with the full trace, though it has 20x the
// rank-steps. Memory follows the live state, not the rank x step trace.
func TestStreamedFrontMemoryScales(t *testing.T) {
	net, err := netmodel.NewHockney(sim.Micro(2), 3e9, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	// chainAlloc returns the bytes one run of an open bidirectional chain
	// with a centre delay allocates, programs excluded.
	chainAlloc := func(ranks, steps int, streamed bool) uint64 {
		chain, err := topology.NewChain(ranks, 1, topology.Bidirectional, topology.Open)
		if err != nil {
			t.Fatal(err)
		}
		wl := workload.BulkSync{
			Topo: chain, Steps: steps, Texec: sim.Milli(3), Bytes: 8192,
			Injections: []noise.Injection{{Rank: ranks / 2, Step: 2, Duration: sim.Milli(15)}},
		}
		progs, err := wl.Programs()
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cfg := mpisim.Config{Ranks: ranks, Net: net}
		var tracker *wave.FrontTracker
		if streamed {
			tracker = wave.NewFrontTracker(chain, ranks/2, sim.Milli(3)/2)
			cfg.Trace, cfg.OnWait = mpisim.TraceOff, tracker.Observe
		}
		if _, err := mpisim.Run(cfg, progs); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if streamed && tracker.Samples() == 0 {
			t.Fatal("front tracker observed no idle wave")
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	dense := chainAlloc(1000, 60, false)
	sparse := chainAlloc(100_000, 12, true)
	ratio := float64(sparse) / float64(dense)
	t.Logf("100k streamed %.1f MB, 1k full trace %.1f MB: %.1fx", float64(sparse)/1e6, float64(dense)/1e6, ratio)
	if ratio >= 20 {
		t.Fatalf("100k-rank streamed chain allocated %.1fx the 1k-rank full-trace chain, want < 20x", ratio)
	}
}
