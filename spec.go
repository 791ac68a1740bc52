package idlewave

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/netmodel"
	"repro/internal/spec"
	"repro/internal/workload"
)

// Spec is the serializable wire form of a sweep: a base scenario plus
// axes and metric names, every component spelled in the same flag
// syntaxes the CLIs accept ("chain:64", "emmy:lat=5us", "exp:0.5").
// Spec marshals to JSON directly (json.Marshal / Spec.Encode); ParseSpec
// reads one back; SweepFromSpec turns it into a runnable SweepSpec.
// Spec.Hash() is the content address the sweep service caches results
// under — the determinism contract (fixed seed ⇒ byte-identical output
// at any worker or shard count) makes that cache exact.
type Spec = spec.Sweep

// SpecScenario is the serializable form of ScenarioSpec; see
// ScenarioFromSpec.
type SpecScenario = spec.Scenario

// SpecAxis is one serializable sweep dimension: a kind (see
// spec.AxisKinds) plus its value spellings.
type SpecAxis = spec.Axis

// SpecDelay is one serializable injected delay.
type SpecDelay = spec.Delay

// ParseSpec decodes a JSON sweep spec (unknown fields are rejected).
// The result is not yet validated against the simulator — Canonical()
// checks the component spellings, SweepFromSpec builds the runnable
// sweep.
func ParseSpec(data []byte) (*Spec, error) { return spec.Decode(data) }

// MetricByName resolves a metric column name ("speed", "decay", "idle",
// "quiet", "runtime", "events", "membw", "steptime") to the Metric it
// denotes. source is the rank whose idle wave the wave metrics track —
// conventionally the rank receiving the injected delay.
func MetricByName(name string, source int) (Metric, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "speed":
		return MetricWaveSpeed(source), nil
	case "decay":
		return MetricWaveDecay(source), nil
	case "idle":
		return MetricTotalIdle(), nil
	case "quiet":
		return MetricQuietStep(), nil
	case "runtime":
		return MetricRuntime(), nil
	case "events":
		return MetricEvents(), nil
	case "membw":
		return MetricMemBandwidth(), nil
	case "steptime":
		return MetricStepTime(), nil
	}
	return Metric{}, fmt.Errorf("idlewave: unknown metric %q (want %s)", name, strings.Join(spec.MetricNames, ", "))
}

// ScenarioFromSpec converts a wire scenario into a runnable
// ScenarioSpec, parsing every component string through the public
// parsers. A workload spec absorbs the scenario's Steps as its default
// step count (matching the CLIs' -steps threading), since a runnable
// spec with a Workload carries the step count inside the workload.
func ScenarioFromSpec(ws SpecScenario) (ScenarioSpec, error) {
	c, err := ws.Canonical()
	if err != nil {
		return ScenarioSpec{}, err
	}
	out := ScenarioSpec{
		Ranks:            c.Ranks,
		Steps:            c.Steps,
		MessageBytes:     c.MessageBytes,
		NeighborDistance: c.NeighborDistance,
		NoiseLevel:       c.NoiseLevel,
		Seed:             c.Seed,
		Shards:           c.Shards,
		FrontSources:     append([]int(nil), c.FrontSources...),
	}
	if c.Machine != "" {
		if out.Machine, err = ParseMachine(c.Machine); err != nil {
			return ScenarioSpec{}, err
		}
	}
	if c.Noise != "" {
		if out.Noise, err = ParseNoise(c.Noise); err != nil {
			return ScenarioSpec{}, err
		}
	}
	if c.NetModel != "" {
		if out.NetModel, err = ParseNetModel(c.NetModel); err != nil {
			return ScenarioSpec{}, err
		}
	}
	if c.Topology != "" {
		if out.Topology, err = ParseTopology(c.Topology); err != nil {
			return ScenarioSpec{}, err
		}
	}
	if c.Workload != "" {
		wl, err := workload.ParseWith(c.Workload, workload.Defaults{Steps: c.Steps})
		if err != nil {
			return ScenarioSpec{}, err
		}
		out.Workload = wl
		out.Steps = 0 // the workload carries the step count now
	}
	if c.Texec != "" {
		d, err := time.ParseDuration(c.Texec)
		if err != nil {
			return ScenarioSpec{}, fmt.Errorf("idlewave: texec: %w", err)
		}
		out.Texec = d
	}
	if c.Direction != "" {
		out.Direction, _ = parseDirection(c.Direction)
	}
	if c.Boundary == "periodic" {
		out.Boundary = Periodic
	}
	switch c.Trace {
	case "steps":
		out.Trace = TraceSteps
	case "off":
		out.Trace = TraceOff
	}
	for _, d := range c.Delay {
		dur, err := time.ParseDuration(d.Duration)
		if err != nil {
			return ScenarioSpec{}, fmt.Errorf("idlewave: delay: %w", err)
		}
		out.Delay = append(out.Delay, Inject(d.Rank, d.Step, dur))
	}
	return out, nil
}

// SweepFromSpec converts a wire sweep into a runnable SweepSpec using
// the same axis builders the CLIs use, so a spec submitted to the sweep
// service produces byte-identical output to the equivalent cmd/sweep
// flags. A spec with no axes becomes a single-point sweep over the base
// seed; wave metrics track the first injected delay's rank (rank 0 when
// no delay is injected).
func SweepFromSpec(ws *Spec) (SweepSpec, error) {
	var zero SweepSpec
	c, err := ws.Canonical()
	if err != nil {
		return zero, err
	}
	base, err := ScenarioFromSpec(c.Base)
	if err != nil {
		return zero, err
	}
	axes := make([]SweepAxis, 0, len(c.Axes))
	for i, a := range c.Axes {
		ax, err := axisFromSpec(a, c.Base)
		if err != nil {
			return zero, fmt.Errorf("idlewave: axis %d: %w", i, err)
		}
		axes = append(axes, ax)
	}
	if len(axes) == 0 {
		axes = append(axes, SeedAxis(c.Base.Seed))
	}
	source := 0
	if len(c.Base.Delay) > 0 {
		source = c.Base.Delay[0].Rank
	}
	metrics := make([]Metric, len(c.Metrics))
	for i, m := range c.Metrics {
		if metrics[i], err = MetricByName(m, source); err != nil {
			return zero, err
		}
	}
	return SweepSpec{Base: base, Axes: axes, Metrics: metrics, Workers: c.Workers}, nil
}

// axisFromSpec builds the SweepAxis for one canonical wire axis,
// delegating to the public axis builders so labels and semantics match
// sweeps built in code.
func axisFromSpec(a SpecAxis, base SpecScenario) (SweepAxis, error) {
	vals := a.Values
	switch a.Kind {
	case "noise":
		return buildAxis(vals, func(v string) (float64, error) { return strconv.ParseFloat(v, 64) }, NoiseAxis)
	case "noiseprofile":
		return buildAxis(vals, ParseNoise, NoiseProfileAxis)
	case "bytes":
		return buildAxis(vals, strconv.Atoi, MessageAxis)
	case "d":
		return buildAxis(vals, strconv.Atoi, DistanceAxis)
	case "direction":
		return buildAxis(vals, parseDirection, DirectionAxis)
	case "machine":
		return buildAxis(vals, ParseMachine, MachineAxis)
	case "ranks":
		return buildAxis(vals, strconv.Atoi, RanksAxis)
	case "seed":
		return buildAxis(vals, func(v string) (uint64, error) { return strconv.ParseUint(v, 10, 64) }, SeedAxis)
	case "topology":
		return buildAxis(vals, ParseTopology, TopologyAxis)
	case "workload":
		return buildAxis(vals, func(v string) (Workload, error) {
			return workload.ParseWith(v, workload.Defaults{Steps: base.Steps})
		}, WorkloadAxis)
	case "netmodel":
		return buildAxis(vals, ParseNetModel, NetModelAxis)
	case "latency":
		return buildAxis(vals, time.ParseDuration, LatencyAxis)
	case "bandwidth":
		return buildAxis(vals, func(v string) (float64, error) { return netmodel.ParseRate(v, "bandwidth") }, BandwidthAxis)
	case "distribution":
		return buildAxis(vals, ParseDistribution, DistributionAxis)
	}
	return SweepAxis{}, fmt.Errorf("unknown axis kind %q", a.Kind)
}

// buildAxis parses every value of an axis and hands them to its builder.
func buildAxis[T any](vals []string, parse func(string) (T, error), build func(...T) SweepAxis) (SweepAxis, error) {
	xs := make([]T, len(vals))
	for i, v := range vals {
		var err error
		if xs[i], err = parse(v); err != nil {
			return SweepAxis{}, err
		}
	}
	return build(xs...), nil
}

// parseDirection reads a canonical direction spelling.
func parseDirection(v string) (Direction, error) {
	switch v {
	case "uni":
		return Unidirectional, nil
	case "bi":
		return Bidirectional, nil
	}
	return 0, fmt.Errorf("bad direction %q (want uni or bi)", v)
}
