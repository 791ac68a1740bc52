package main

import (
	"fmt"
	"math"
	"time"

	idlewave "repro"
	"repro/internal/mpisim"
	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wave"
	"repro/internal/workload"
)

// The chain scenario: an open bidirectional chain on Emmy (with its
// natural noise) with one 15 ms delay in the middle. The pending-event
// heap holds about one event per rank, so at this size it outgrows a
// core's 2 MiB L2, which no paper-full run does.
const (
	chainRanks     = 30_000
	chainSteps     = 12
	chainBytes     = 8192 // eager on Emmy
	chainTexec     = 3 * time.Millisecond
	chainDelay     = 15 * time.Millisecond
	chainDelayStep = 2
	chainSource    = chainRanks / 2

	// eq2Tolerance bounds the relative gap between the tracked front's
	// speed and the paper's Eq. 2 silent-system prediction. Emmy's
	// natural noise slows the wave slightly; a model or engine bug
	// moves it by far more.
	eq2Tolerance = 0.01
)

func chainSpec(seed uint64, shards int) idlewave.ScenarioSpec {
	return idlewave.ScenarioSpec{
		Ranks: chainRanks, Steps: chainSteps, MessageBytes: chainBytes, Texec: chainTexec,
		Direction:    idlewave.Bidirectional,
		Delay:        []idlewave.Injection{idlewave.Inject(chainSource, chainDelayStep, chainDelay)},
		Seed:         seed,
		Trace:        idlewave.TraceOff,
		FrontSources: []int{chainSource},
		Shards:       shards,
	}
}

// chainDigest fingerprints a chain run bit for bit: event count, end
// time and tracked front speed.
func chainDigest(events uint64, end, speed float64) string {
	return fmt.Sprintf("events=%d end=%x speed=%x", events, math.Float64bits(end), math.Float64bits(speed))
}

func runChainScale(e *childEnv) error { return runChain(e, 0) }
func runChainShard(e *childEnv) error { return runChain(e, parallelism) }

// runChain times one idlewave.Simulate call. The traced variant instead
// drives the identical configuration through the layers directly
// (workload → mpisim with a timed front tracker) and must reproduce
// Simulate's digest exactly.
func runChain(e *childEnv, shards int) error {
	e.res.Attempted = 1
	if e.traced {
		return runChainTraced(e, shards)
	}
	spec := chainSpec(e.seed, shards)
	if err := e.begin(); err != nil {
		return err
	}
	res, err := idlewave.Simulate(spec)
	if err := e.end(); err != nil {
		return err
	}
	e.res.LatMS = []float64{e.res.WallS * 1e3}
	if err != nil {
		e.res.fail("simulate: %v", err)
		return nil
	}
	e.res.Events = res.Events
	speed, err := res.WaveSpeed(chainSource)
	if err != nil {
		e.res.fail("wave speed: %v", err)
		return nil
	}
	e.res.Digest = chainDigest(res.Events, res.End, speed)
	return checkEq2(e, speed)
}

// checkEq2 compares the measured front speed with the paper's Eq. 2.
func checkEq2(e *childEnv, speed float64) error {
	net, err := idlewave.Emmy().FlatNetModel()
	if err != nil {
		return err
	}
	tcomm := time.Duration(float64(netmodel.PingPong(net, 0, 1, chainBytes)) * float64(time.Second))
	pred := idlewave.PredictSpeed(true, false, 1, chainTexec, tcomm)
	if rel := math.Abs(speed-pred) / pred; !(rel <= eq2Tolerance) {
		e.res.fail("Eq. 2: front speed %.2f ranks/s vs predicted %.2f (%.2f%% > %.0f%%)",
			speed, pred, rel*100, eq2Tolerance*100)
	}
	return nil
}

// runChainTraced mirrors idlewave.Simulate's compute-bound path: Emmy's
// flat network, natural plus (zero-level) injected noise, one symmetric
// front tracker on the source rank.
func runChainTraced(e *childEnv, shards int) error {
	m := idlewave.Emmy()
	texec := sim.Time(chainTexec.Seconds())
	chain, err := topology.NewChain(chainRanks, 1, topology.Bidirectional, topology.Open)
	if err != nil {
		return err
	}
	wl := workload.BulkSync{
		Topo: chain, Steps: chainSteps, Texec: texec, Bytes: chainBytes,
		Injections: []noise.Injection{idlewave.Inject(chainSource, chainDelayStep, chainDelay)},
	}
	net, err := m.FlatNetModel()
	if err != nil {
		return err
	}
	buildNoise := func() mpisim.NoiseFunc {
		natural, err := m.NaturalNoise(e.seed, texec)
		if err != nil {
			panic(err) // the same call succeeded below before the run started
		}
		return noise.Combine(natural, noise.Exponential(e.seed+1, 0, texec))
	}
	if _, err := m.NaturalNoise(e.seed, texec); err != nil {
		return err
	}
	tracker := wave.NewFrontTracker(chain, chainSource, texec/2)
	var observe time.Duration
	var calls int
	cfg := mpisim.Config{
		Ranks: chainRanks, Net: net, Noise: buildNoise(), Trace: mpisim.TraceOff, Shards: shards,
		OnWait: func(rank, step int, start, end sim.Time) {
			t := time.Now()
			tracker.Observe(rank, step, start, end)
			observe += time.Since(t)
			calls++
		},
	}
	if shards > 0 {
		cfg.NoiseFactory = buildNoise
	}

	if err := e.begin(); err != nil {
		return err
	}
	t := time.Now()
	progs, err := wl.Programs()
	if err != nil {
		return err
	}
	e.layer("workload.programs_s", time.Since(t).Seconds())
	dec, err := mpisim.PlanShards(cfg, progs)
	if err != nil {
		return err
	}
	count := 1
	if len(dec.Bounds) > 1 {
		count = len(dec.Bounds) - 1
	}
	e.layer("shard.count", float64(count))
	if shards > 0 && count < shards {
		e.res.fail("PlanShards gave %d shards for %d requested (%s): the run measures the serial fallback", count, shards, dec.Reason)
	}
	t, cpu := time.Now(), processCPU()
	res, err := mpisim.Run(cfg, progs)
	runS := time.Since(t).Seconds()
	e.layer("mpisim.run_s", runS)
	e.layer("shard.parallelism", (processCPU()-cpu)/runS)
	if err != nil {
		e.res.fail("mpisim.Run: %v", err)
		return e.end()
	}
	sp, speedErr := wave.Speed(tracker.Front())
	if err := e.end(); err != nil {
		return err
	}
	e.res.LatMS = []float64{e.res.WallS * 1e3}
	e.layer("wave.observe_s", observe.Seconds())
	e.layer("wave.observe_calls", float64(calls))
	e.layer("sim.events", float64(res.Events))
	e.res.Events = res.Events
	if speedErr != nil {
		e.res.fail("wave speed: %v", speedErr)
		return nil
	}
	e.res.Digest = chainDigest(res.Events, float64(res.End), sp.RanksPerSecond)
	return nil
}
