// Command idlewave runs a single idle-wave reproduction experiment — or
// an ad-hoc scenario on an arbitrary topology and workload — and prints
// its report.
//
// Usage:
//
//	idlewave -list
//	idlewave -exp fig4
//	idlewave -exp fig8 -seed 7 -full
//	idlewave -exp fig5 -csv
//	idlewave -topology grid:16x16:periodic -steps 24 -delay 15ms
//	idlewave -topology chain:32:periodic:uni -steps 20 -timeline
//	idlewave -workload lbm:40:cells=90 -steps 31 -delay 15ms
//	idlewave -workload triad:18 -workload-topology grid:3x6:periodic
//	idlewave -topology chain:32 -machine custom:lat=5us:bw=1GB/s -noise periodic:500us@10ms
//	idlewave -spec scenario.json -timeline
//
// The ad-hoc flags fill a wire scenario (idlewave.SpecScenario, the
// base scenario of the JSON spec the sweep service consumes) that then
// runs exactly as the base of a -spec document would: -topology,
// -workload (rebound by -workload-topology), -machine, -noise, -steps,
// -bytes, -E, -seed and -shards set its fields, and -delay injects one
// delay at -delay-rank (the topology's center by default). The spec's
// Canonical rules reject fields that supersede each other; the flags
// without a spec field of their own (-spec, -exp, -workload-topology,
// the replay: overrides, -bytes and -E when a -workload or -noise
// replaces them) are checked by one table here.
//
// The -spec flag runs the base scenario of a spec document ("-" reads
// stdin); only -timeline and -workers compose with it.
//
// -topology takes chain:<n>[:opts], grid:<e1>x<e2>[x...][:opts] or
// torus:<dims>[:opts] (opts: open, periodic, uni, bi, d=<k>). -workload
// takes triad:<shape>[:ws=..][:msg=..], lbm:<shape>[:cells=..],
// divide:<shape>[:phase=..], bulk:<shape>[:texec=..][:bytes=..]
// [:topology opts], gen:<shape>[:phase=<dist>][:delay=<dist>
// :every=<dist>][:seed=..], mix:<part>+<part> or replay:<trace file>,
// where <shape> is a rank count or NxM torus extents. -machine takes
// emmy, meggie:noise=0 or custom:lat=1.2us:bw=6.8GB/s:eager=32768:
// cores=10x2; -noise takes exp:1.5, exp:2.4us:cap=30us,
// periodic:500us@10ms, or combinations joined with +.
//
// -record writes the executed per-rank timings to a trace v2 file that
// replay:<file> reproduces byte-identically. A replay restores the
// recorded machine, noise, seed and injections, so the flags a
// recording fixes are rejected alongside it (a mix part
// mix:replay/<file>+... composes a recorded job with live ones
// instead).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.As(err, new(flagError)):
		os.Exit(2) // the flag package already reported it
	default:
		fmt.Fprintf(os.Stderr, "idlewave: %v\n", err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// flagError is a command line the flag package could not parse.
type flagError struct{ error }

// usageError is a flag combination the command rejects.
type usageError struct{ error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// adhocFlags are the flags only an ad-hoc scenario reads, beyond its
// topology or workload.
var adhocFlags = []string{
	"machine", "noise", "steps", "bytes", "E", "delay-rank", "delay-step", "delay",
	"shards", "record",
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("idlewave", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "", "experiment id (fig1..fig9, eq2)")
		seed    = fs.Uint64("seed", 42, "random seed for noise and injections")
		full    = fs.Bool("full", false, "run full (paper-scale) problem sizes")
		workers = fs.Int("workers", 0, "sweep-engine worker pool size (0 = all cores)")
		csv     = fs.Bool("csv", false, "print the data rows as CSV instead of the report")
		list    = fs.Bool("list", false, "list available experiments")

		topoSpec = fs.String("topology", "", "run an ad-hoc scenario on this topology (e.g. grid:16x16:periodic) instead of -exp")
		wlSpec   = fs.String("workload", "", "run an ad-hoc scenario of this workload (e.g. lbm:40:cells=90, triad:18, divide:16) instead of -exp")
		wlTopo   = fs.String("workload-topology", "", "rebind the -workload decomposition to this topology spec")
		machSpec = fs.String("machine", "", "ad-hoc scenario: machine spec (emmy, meggie:noise=0, custom:lat=1.2us:bw=6.8GB/s:...)")
		noiseSp  = fs.String("noise", "", "ad-hoc scenario: injected-noise profile spec (exp:1.5, periodic:500us@10ms, ...); replaces -E")
		steps    = fs.Int("steps", 24, "ad-hoc scenario: time steps")
		bytes    = fs.Int("bytes", 8192, "ad-hoc scenario: message size per neighbor (bulk-sync only)")
		noiseE   = fs.Float64("E", 0, "ad-hoc scenario: injected noise level")
		delayAt  = fs.Int("delay-rank", -1, "ad-hoc scenario: delayed rank (-1 = topology center)")
		delaySt  = fs.Int("delay-step", 1, "ad-hoc scenario: delayed step")
		delayDur = fs.Duration("delay", 15*time.Millisecond, "ad-hoc scenario: injected delay (0 = none)")
		timeline = fs.Bool("timeline", false, "ad-hoc scenario: render the rank-over-time timeline")
		shards   = fs.Int("shards", 0, "ad-hoc scenario: parallel-DES shard count (0 = serial; results are byte-identical at any count)")
		record   = fs.String("record", "", "ad-hoc scenario: write the executed per-rank timings to this trace v2 file (replay with -workload replay:<file>)")
		specFile = fs.String("spec", "", "run the base scenario of a declarative spec document (\"-\" = stdin); replaces the ad-hoc flags")
	)
	if err := fs.Parse(args); err != nil {
		return flagError{err}
	}
	if *list {
		for _, id := range core.Experiments() {
			title, _ := core.Title(id)
			fmt.Fprintf(stdout, "%-5s %s\n", id, title)
		}
		return nil
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	// The checks for flags that have no spec field of their own: each
	// row rejects the listed flags when given explicitly while on holds.
	adhoc := *topoSpec != "" || *wlSpec != ""
	for _, c := range []struct {
		on    bool
		flags []string
		msg   string // formats the offending flags
	}{
		{*specFile != "", append([]string{"exp", "topology", "workload", "workload-topology", "seed"}, adhocFlags...),
			"-spec replaces %s; edit the spec document instead"},
		{*exp != "", []string{"topology", "workload"},
			"-exp replaces %s (a named figure reproduction fixes its own scenario)"},
		{!adhoc && *specFile == "", append([]string{"timeline"}, adhocFlags...),
			"%s apply to ad-hoc scenarios; named figure reproductions fix their own (pass -topology or -workload)"},
		{*wlSpec == "", []string{"workload-topology"}, "%s needs -workload"},
		// A zero -E has no spec spelling, so the spec's own noise rule
		// cannot see it.
		{*noiseSp != "", []string{"E"}, "-noise replaces %s; express the level as exp:<level>"},
		{*wlSpec != "", []string{"bytes", "topology"},
			"-workload replaces %s; fold the message size into the workload spec (e.g. bulk:64:bytes=8192), rebind with -workload-topology"},
		// A recorded trace fixes the whole scenario; layering flags on
		// top would silently add to the recorded timings (the default
		// -delay alone would shift every replay by 15ms). To vary a
		// recorded run, use it as a mix part.
		{strings.HasPrefix(*wlSpec, "replay:"), []string{"machine", "noise", "E", "steps", "delay", "delay-rank", "delay-step", "seed", "workload-topology"},
			"-workload replay: restores the recorded scenario and replaces %s"},
	} {
		var given []string
		for _, n := range c.flags {
			if c.on && set[n] {
				given = append(given, "-"+n)
			}
		}
		if len(given) > 0 {
			return usagef(c.msg, strings.Join(given, ", "))
		}
	}

	switch {
	case *specFile != "":
		ws, err := readSpec(*specFile)
		if err != nil {
			return err
		}
		if len(ws.Axes) > 0 {
			return fmt.Errorf("the spec has %d sweep axes; idlewave runs single scenarios — submit it to cmd/sweep or the sweep service instead", len(ws.Axes))
		}
		return simulate(stdout, ws.Base, "", *timeline)
	case strings.HasPrefix(*wlSpec, "replay:"):
		// ReplayScenario restores the recorded machine (noise silenced),
		// net model, seed and noise draws: the byte-identical replay.
		spec, err := idlewave.ReplayScenario(strings.TrimPrefix(*wlSpec, "replay:"))
		if err != nil {
			return err
		}
		spec.Shards = *shards
		spec.RecordTo = *record
		return report(stdout, spec, false, false, *timeline)
	case adhoc:
		ws := idlewave.SpecScenario{
			Topology: *topoSpec, Workload: *wlSpec, Machine: *machSpec, Noise: *noiseSp,
			Steps: *steps, NoiseLevel: *noiseE, Seed: *seed, Shards: *shards,
		}
		if *wlSpec == "" {
			ws.MessageBytes = *bytes
		} else {
			ws.Topology = *wlTopo
		}
		if *delayDur > 0 {
			rank := *delayAt
			if rank < 0 {
				spec, err := idlewave.ScenarioFromSpec(ws)
				if err != nil {
					return err
				}
				if rank, err = centerRank(spec); err != nil {
					return err
				}
			}
			ws.Delay = []idlewave.SpecDelay{{Rank: rank, Step: *delaySt, Duration: delayDur.String()}}
		}
		return simulate(stdout, ws, *record, *timeline)
	case *exp == "":
		return usagef("pick an experiment with -exp (see -list), a scenario with -topology, or a kernel with -workload")
	}
	rep, err := core.Run(*exp, core.Options{Seed: *seed, Quick: !*full, Workers: *workers})
	if err != nil {
		return err
	}
	if *csv {
		for _, row := range rep.Data {
			fmt.Fprintln(stdout, strings.Join(row, ","))
		}
		return nil
	}
	_, err = fmt.Fprint(stdout, rep.String())
	return err
}

// readSpec reads a declarative spec document ("-" = stdin).
func readSpec(path string) (*idlewave.Spec, error) {
	var (
		data []byte
		err  error
	)
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	return idlewave.ParseSpec(data)
}

// simulate runs one wire scenario, recording it to record when that is
// set, and prints its report.
func simulate(w io.Writer, ws idlewave.SpecScenario, record string, timeline bool) error {
	spec, err := idlewave.ScenarioFromSpec(ws)
	if err != nil {
		return err
	}
	spec.RecordTo = record
	return report(w, spec, ws.Machine != "", ws.Noise != "", timeline)
}

// report simulates a scenario and prints the ad-hoc summary: workload,
// topology, runtime, idle time and the tracked wave front.
func report(w io.Writer, spec idlewave.ScenarioSpec, showMachine, showNoise, timeline bool) error {
	res, err := idlewave.Simulate(spec)
	if err != nil {
		return err
	}
	if spec.RecordTo != "" {
		fmt.Fprintf(w, "recorded  %s\n", spec.RecordTo)
	}
	fmt.Fprintf(w, "workload  %v\n", res.Workload())
	if showMachine {
		fmt.Fprintf(w, "machine   %s\n", spec.Machine.Name)
	}
	if showNoise {
		fmt.Fprintf(w, "noise     %v\n", spec.Noise)
	}
	if topo := res.Topology(); topo != nil {
		fmt.Fprintf(w, "topology  %s (%d ranks)\n", topo, topo.Ranks())
	}
	fmt.Fprintf(w, "runtime   %.3f ms over %d steps (%d events)\n", res.End*1e3, res.Traces.Steps(), res.Events)
	fmt.Fprintf(w, "idle      %.3f ms total, quiet from step %d\n", res.TotalIdle()*1e3, res.QuietStep())
	if bw, err := res.MemBandwidth(); err == nil {
		fmt.Fprintf(w, "membw     %.2f GB/s achieved per rank\n", bw/1e9)
	}
	if len(spec.Delay) > 0 {
		d := spec.Delay[0]
		// Round: sim times are float seconds, and 0.015*1e9 lands one ulp
		// under 15000000 — truncation would print "14.999999ms".
		dur := time.Duration(math.Round(float64(d.Duration) * float64(time.Second)))
		fmt.Fprintf(w, "delay     %v at rank %d, step %d\n", dur, d.Rank, d.Step)
		if v, err := res.WaveSpeed(d.Rank); err == nil {
			fmt.Fprintf(w, "wave      speed %.1f hops/s", v)
			if dec, err := res.WaveDecay(d.Rank); err == nil {
				fmt.Fprintf(w, ", decay %.1f us/hop", dec*1e6)
			}
			fmt.Fprintln(w)
		}
	}
	if timeline {
		return res.RenderTimeline(w, 100)
	}
	return nil
}

// centerRank is the default injection rank: the center of the
// scenario's topology.
func centerRank(spec idlewave.ScenarioSpec) (int, error) {
	topo := spec.Topology
	if topo == nil && spec.Workload != nil {
		t, err := spec.Workload.Topology()
		if err != nil {
			return 0, err
		}
		topo = t
	}
	if topo == nil {
		return 0, fmt.Errorf("cannot derive a delay rank without a topology; pass -delay-rank")
	}
	if g, ok := topo.(idlewave.Grid); ok {
		return g.Center(), nil
	}
	return topo.Ranks() / 2, nil
}
