// Command sweep runs ad-hoc parameter sweeps over the idle-wave
// simulator: the cartesian product of noise level E, message size,
// neighbor distance d, direction, machine and workload fans out across
// a worker pool and the per-point metrics come back as a table, CSV,
// JSON or Markdown — deterministically, independent of the worker
// count.
//
// Usage:
//
//	sweep -E 0,0.02,0.05,0.1
//	sweep -E 0,0.1 -bytes 8192,262144 -d 1,2 -dir uni,bi -format csv
//	sweep -machine emmy,meggie -metrics speed,decay,idle -o out.csv -format csv
//	sweep -machine custom:lat=1us,custom:lat=5us -noise exp:0.5,periodic:500us@10ms
//	sweep -topology grid:16x16:periodic,chain:256:periodic -E 0,0.05
//	sweep -workload triad:18,lbm:18:cells=90,divide:18 -metrics runtime,membw
//	sweep -E 0,0.05 -format markdown
//	sweep -spec sweep.json -format csv
//
// The flags fill a declarative sweep spec (idlewave.Spec, the JSON
// document the sweep service consumes) that then runs exactly as a
// -spec document would: the scalar flags set base scenario fields, and
// each list flag (-E, -noise, -bytes, -d, -dir, -topology, -workload,
// -machine) becomes an axis whose values are its comma-separated
// entries, in the spelling the spec's axis kind takes. -machine all
// names the three reference machines.
//
// Which flags combine is the spec's rule, kept in one table in
// internal/spec: -topology replaces -ranks/-d/-dir/-periodic;
// -workload also replaces -texec/-bytes; -noise replaces -E. Every
// flag fills the spec, defaults included; spec.DropSuperseded then
// drops the defaults a given flag replaces, and a replaced flag given
// explicitly stays in for spec.Sweep.Canonical to reject.
//
// The -spec flag runs a spec document instead ("-" reads stdin). Only
// the output flags (-format, -o), the execution flag (-workers) and
// the profiling flags compose with it; an explicit -workers
// overrides the document's worker count.
//
// Flag syntaxes: -topology takes chain:<n>[:opts], grid:<e1>x<e2>[x...]
// [:opts] or torus:<dims>[:opts] (opts: open, periodic, uni, bi, d=<k>);
// -workload takes triad:<shape>[:ws=..][:msg=..], lbm:<shape>
// [:cells=..], divide:<shape>[:phase=..], bulk:<shape>[:texec=..]
// [:bytes=..][:topo opts], gen:<shape>[:phase=<dist>][:delay=<dist>
// :every=<dist>], mix:<part>+<part> or replay:<trace file>, where
// <shape> is a rank count or NxM torus extents and -steps is the default
// step count of each; -machine takes ParseMachine specs ("emmy",
// "meggie:noise=0", "custom:lat=1.2us:bw=6.8GB/s:eager=32768:cores=10x2");
// -noise takes ParseNoise specs ("exp:0.5", "periodic:500us@10ms",
// "silent", "exp:0.5+periodic:500us@10ms"). Generator specs embed
// distributions with ':' spelled '/' ("gen:64:phase=gamma/shape=2/scale=3ms").
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/profiling"
	"repro/internal/spec"
	"repro/internal/viz"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.As(err, new(flagError)):
		os.Exit(2) // the flag package already reported it
	default:
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(1)
	}
}

// flagError is a command line the flag package could not parse.
type flagError struct{ error }

// specFlags are the flags a spec document replaces.
var specFlags = []string{
	"ranks", "steps", "texec", "delay-rank", "delay-step", "delay",
	"periodic", "seed", "E", "noise", "bytes", "d", "dir",
	"topology", "workload", "machine", "metrics", "shards",
}

// specField names the spec field, as spec.DropSuperseded spells it,
// that each defaulted flag another flag may supersede fills.
var specField = map[string]string{
	"ranks": "base.ranks", "texec": "base.texec", "periodic": "base.boundary",
	"E": "noise", "bytes": "bytes", "d": "d", "dir": "direction",
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		ranks    = fs.Int("ranks", 24, "number of ranks")
		steps    = fs.Int("steps", 26, "time steps")
		texec    = fs.Duration("texec", 3*time.Millisecond, "execution phase length")
		delayAt  = fs.Int("delay-rank", 0, "rank receiving the injected delay (-1 = none)")
		delaySt  = fs.Int("delay-step", 2, "step receiving the injected delay")
		delayDur = fs.Duration("delay", 15*time.Millisecond, "injected delay duration")
		periodic = fs.Bool("periodic", true, "periodic (ring) boundary instead of open chain")
		seed     = fs.Uint64("seed", 42, "random seed")

		eList     = fs.String("E", "0", "comma-separated injected noise levels")
		noiseList = fs.String("noise", "", "comma-separated noise profile specs (e.g. exp:0.5,periodic:500us@10ms,silent); replaces -E")
		byteList  = fs.String("bytes", "8192", "comma-separated message sizes in bytes")
		dList     = fs.String("d", "1", "comma-separated neighbor distances")
		dirList   = fs.String("dir", "bi", "comma-separated directions: uni, bi")
		topoList  = fs.String("topology", "", "comma-separated topology specs (e.g. grid:32x32:periodic); replaces -ranks/-d/-dir/-periodic")
		wlList    = fs.String("workload", "", "comma-separated workload specs (e.g. triad:18,lbm:18:cells=90); replaces the shape and kernel flags")
		machList  = fs.String("machine", "emmy", "comma-separated machine specs: emmy, meggie, simulated, all, or the ParseMachine syntax (e.g. custom:lat=1.2us:bw=6.8GB/s)")

		metricsF = fs.String("metrics", "speed,decay,idle,runtime", "comma-separated metrics: speed, decay, idle, quiet, runtime, events, membw, steptime")
		workers  = fs.Int("workers", 0, "worker pool size (0 = all cores)")
		shards   = fs.Int("shards", 0, "parallel-DES shard count per grid point (0 = serial; results are byte-identical at any count)")
		format   = fs.String("format", "table", "output format: table, csv, json or markdown")
		outFile  = fs.String("o", "", "write output to a file instead of stdout")

		specFile = fs.String("spec", "", "run a declarative sweep spec from this JSON file (\"-\" = stdin); replaces the scenario and axis flags")

		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProf = fs.String("memprofile", "", "write a heap profile to this file when the sweep finishes")
	)
	if err := fs.Parse(args); err != nil {
		return flagError{err}
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	// Flags without a spec field of their own: a spec document replaces
	// every scenario flag, and cmd/sweep has no flag that would rebind a
	// workload axis to a topology axis.
	for _, c := range []struct {
		by       string
		on       bool
		replaces []string
		hint     string
	}{
		{"-spec", *specFile != "", specFlags, "edit the spec document instead"},
		{"-workload", *wlList != "", []string{"topology"}, "fold the shape into the workload spec (e.g. lbm:16x16:cells=90:steps=30)"},
	} {
		var given []string
		for _, n := range c.replaces {
			if c.on && set[n] {
				given = append(given, "-"+n)
			}
		}
		if len(given) > 0 {
			return fmt.Errorf("%s replaces %s; %s", c.by, strings.Join(given, ", "), c.hint)
		}
	}

	var ws *idlewave.Spec
	if *specFile != "" {
		var err error
		if ws, err = readSpec(*specFile); err != nil {
			return err
		}
		if set["workers"] {
			ws.Workers = *workers
		}
	} else {
		ws = &idlewave.Spec{
			Base: idlewave.SpecScenario{
				Ranks: *ranks, Steps: *steps, Texec: texec.String(),
				Boundary: map[bool]string{true: "periodic", false: "open"}[*periodic],
				Seed:     *seed, Shards: *shards,
			},
			Metrics: strings.Split(*metricsF, ","),
			Workers: *workers,
		}
		if *delayAt >= 0 {
			ws.Base.Delay = []idlewave.SpecDelay{{Rank: *delayAt, Step: *delaySt, Duration: delayDur.String()}}
		}
		machines := *machList
		if machines == "all" {
			var names []string
			for _, m := range cluster.All() {
				names = append(names, m.Name)
			}
			machines = strings.Join(names, ",")
		}
		for _, ax := range []struct {
			kind, list string
			on         bool
		}{
			{"machine", machines, true},
			{"noiseprofile", *noiseList, *noiseList != ""},
			{"noise", *eList, true},
			{"workload", *wlList, *wlList != ""},
			{"bytes", *byteList, true},
			{"topology", *topoList, *topoList != ""},
			{"d", *dList, true},
			{"direction", *dirList, true},
		} {
			if ax.on {
				ws.Axes = append(ws.Axes, idlewave.SpecAxis{Kind: ax.kind, Values: strings.Split(ax.list, ",")})
			}
		}
		// The spec's rules drop the defaults a given flag supersedes; a
		// flag given explicitly stays in, and Canonical rejects the pair.
		var keep []string
		for name, field := range specField {
			if set[name] {
				keep = append(keep, field)
			}
		}
		*ws = spec.DropSuperseded(*ws, keep)
	}
	sw, err := idlewave.SweepFromSpec(ws)
	if err != nil {
		return err
	}

	switch *format {
	case "table", "csv", "json", "markdown":
	default:
		return fmt.Errorf("unknown format %q (want table, csv, json or markdown)", *format)
	}

	// Profile only the sweep itself, not flag parsing or output
	// formatting.
	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	tbl, err := idlewave.Sweep(sw)
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}

	if *outFile == "" {
		return writeTable(stdout, tbl, *format)
	}
	f, err := os.Create(*outFile)
	if err != nil {
		return err
	}
	if err := writeTable(f, tbl, *format); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeTable(w io.Writer, tbl *idlewave.SweepTable, format string) error {
	switch format {
	case "csv":
		return tbl.WriteCSV(w)
	case "json":
		return tbl.WriteJSON(w)
	case "markdown":
		return tbl.WriteMarkdown(w)
	}
	return viz.Table(w, tbl.Rows())
}

// readSpec reads a declarative sweep spec ("-" = stdin).
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
