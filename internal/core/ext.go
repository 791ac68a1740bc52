package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpisim"
	"repro/internal/netmodel"
	"repro/internal/noise"
	"repro/internal/proc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/viz"
	"repro/internal/wave"
	"repro/internal/workload"
)

// runExtCollective explores the paper's future-work question of how
// collective operations transport delays: the same one-off delay is
// injected into (a) a pure point-to-point ring and (b) the same ring with
// a global allreduce every four steps. Collectives turn the travelling
// idle wave into an instantaneous global stall.
func runExtCollective(opts Options) (*Report, error) {
	rep := &Report{}
	ranks, steps := 32, 16
	if opts.Quick {
		ranks, steps = 16, 12
	}
	texec := 3 * time.Millisecond
	delay := 12 * time.Millisecond
	src := ranks / 2

	net, err := cluster.Emmy().FlatNetModel()
	if err != nil {
		return nil, err
	}

	variants := []struct {
		id         string
		collective bool
	}{{"point-to-point", false}, {"allreduce-every-4", true}}

	rep.Data = [][]string{{"variant", "affected_after_1_step", "affected_total", "end_ms"}}
	for _, v := range variants {
		v := v
		res, err := proc.Run(mpisim.Config{Ranks: ranks, Net: net}, func(c *proc.Comm) {
			for s := 0; s < steps; s++ {
				if c.Rank() == src && s == 1 {
					c.Delay(delay)
				}
				c.Compute(texec)
				c.Isend((c.Rank()+1)%c.Size(), 8192)
				c.Isend((c.Rank()-1+c.Size())%c.Size(), 8192)
				c.Irecv((c.Rank()-1+c.Size())%c.Size(), 8192)
				c.Irecv((c.Rank()+1)%c.Size(), 8192)
				c.Waitall()
				if v.collective && (s+1)%4 == 0 {
					c.Allreduce(8192)
					// Close the collective inside the same step; the
					// next Waitall tag starts a fresh step anyway.
				}
			}
		})
		if err != nil {
			return nil, err
		}
		w := res.Traces.WaitMatrix()
		threshold := sim.Time(texec.Seconds()) / 2
		countIdleAt := func(step int) int {
			n := 0
			for r := range w {
				if step < len(w[r]) && w[r][step] > threshold {
					n++
				}
			}
			return n
		}
		after1 := countIdleAt(2)
		totalAffected := 0
		for r := range w {
			for s := range w[r] {
				if w[r][s] > threshold {
					totalAffected++
					break
				}
			}
		}
		rep.addf("%-18s: %2d/%d ranks idle one step after injection; %2d ranks affected overall; runtime %.1f ms",
			v.id, after1, ranks, totalAffected, res.End.Millis())
		rep.Data = append(rep.Data, []string{v.id, fmt.Sprint(after1),
			fmt.Sprint(totalAffected), fmt.Sprintf("%.2f", res.End.Millis())})
	}
	rep.finding("point-to-point: the delay spreads gradually (a wave); with periodic allreduces the next collective stalls every rank at once")
	return rep, nil
}

// runExtHierarchy explores the paper's future-work claim that the
// propagation speed changes whenever a domain boundary is crossed: the
// chain's left half communicates with fast (low-latency) links, the right
// half with links whose per-message cost approaches the execution time.
func runExtHierarchy(opts Options) (*Report, error) {
	rep := &Report{}
	n := 31
	if opts.Quick {
		n = 25
	}
	boundary := n / 3
	texec := sim.Milli(3)
	// The slow domain halves the wave speed (one rank per two periods),
	// so give the front enough steps to traverse it fully.
	steps := boundary + 2*(n-boundary) + 8

	fast, err := netmodel.NewHockney(sim.Micro(2), 3e9, 1<<17)
	if err != nil {
		return nil, err
	}
	// Slow domain: per-message transfer time comparable to texec, which
	// roughly halves the wave speed there (Eq. 2 with larger Tcomm).
	slow, err := netmodel.NewHockney(sim.Milli(3), 3e9, 1<<17)
	if err != nil {
		return nil, err
	}
	// Ranks below the boundary share one socket and talk over the fast
	// links; every pair touching the slow domain uses the slow ones.
	split, err := netmodel.NewHierarchical(domainLocator(boundary), fast, slow, slow)
	if err != nil {
		return nil, err
	}

	topo := chainOrDie(n, 1, topology.Unidirectional, topology.Open)
	b := workload.BulkSync{
		Topo:       topo,
		Steps:      steps,
		Texec:      texec,
		Bytes:      8192,
		Injections: []noise.Injection{injection(1, 1, 6*texec)},
	}
	progs, err := b.Programs()
	if err != nil {
		return nil, err
	}
	res, err := mpisim.Run(mpisim.Config{Ranks: n, Net: split}, progs)
	if err != nil {
		return nil, err
	}
	// Slow-domain ranks wait one transfer time in every regular step;
	// only waits clearly above that routine level belong to the wave.
	threshold := slow.Transfer(0, 1, 8192) + texec
	f := wave.TrackFront(res.Traces, topo, 1, threshold)

	// Fit speed separately within each domain.
	fitSpeed := func(lo, hi int) (float64, error) {
		var xs, ys []float64
		for _, s := range f.Samples {
			if s.Rank >= lo && s.Rank < hi {
				xs = append(xs, float64(s.Arrival))
				ys = append(ys, float64(s.Rank))
			}
		}
		fit, err := stats.LinearFit(xs, ys)
		if err != nil {
			return 0, err
		}
		return fit.B, nil
	}
	vFast, err := fitSpeed(2, boundary)
	if err != nil {
		return nil, err
	}
	vSlow, err := fitSpeed(boundary+1, n)
	if err != nil {
		return nil, err
	}
	predFast := wave.SilentSpeed(1, 1, texec, fast.Transfer(0, 1, 8192))
	predSlow := wave.SilentSpeed(1, 1, texec, slow.Transfer(0, 1, 8192))

	rep.addf("domain boundary at rank %d; fast links %s/msg, slow links %s/msg",
		boundary, viz.FormatTime(fast.Transfer(0, 1, 8192)), viz.FormatTime(slow.Transfer(0, 1, 8192)))
	rep.addf("fast domain: %.0f ranks/s (Eq.2: %.0f)", vFast, predFast)
	rep.addf("slow domain: %.0f ranks/s (Eq.2: %.0f)", vSlow, predSlow)
	var tl strings.Builder
	if err := viz.Timeline(&tl, res.Traces, viz.TimelineOptions{Width: 90, EveryNthRank: 2}); err != nil {
		return nil, err
	}
	rep.Lines = append(rep.Lines, strings.Split(strings.TrimRight(tl.String(), "\n"), "\n")...)
	rep.Data = [][]string{
		{"domain", "measured_ranks_per_s", "eq2_ranks_per_s", "rel_err"},
		{"fast", fmt.Sprintf("%.1f", vFast), fmt.Sprintf("%.1f", predFast),
			fmt.Sprintf("%.3f", wave.RelativeError(vFast, predFast))},
		{"slow", fmt.Sprintf("%.1f", vSlow), fmt.Sprintf("%.1f", predSlow),
			fmt.Sprintf("%.3f", wave.RelativeError(vSlow, predSlow))},
	}
	rep.finding("the idle wave slows from %.0f to %.0f ranks/s when crossing the domain boundary, tracking Eq. 2 locally (paper's future-work hypothesis)",
		vFast, vSlow)
	return rep, nil
}

// domainLocator places the ranks below it on one socket and every other
// rank on a node of its own.
type domainLocator int

func (b domainLocator) SameSocket(x, y int) bool { return x == y || (x < int(b) && y < int(b)) }

func (b domainLocator) SameNode(x, y int) bool { return b.SameSocket(x, y) }
