package mpisim

// Equivalence property tests for the sparse rank-state structures. The
// production simulator keeps eager-flow counts in swap-delete peer
// lists and message-matching channels in pooled linear-scan slots; the
// dense references here — a full ranks x ranks count matrix and a
// map of plain slice-backed queues — are the obvious implementations
// those structures replaced. Randomized operation streams must be
// indistinguishable between the two, and randomized small scenarios
// must produce byte-identical results under every trace mode.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/netmodel"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wave"
)

// TestEagerTrackerMatchesDenseReference drives the sparse eager tracker
// and a dense count matrix with the same randomized inc/dec stream and
// checks they agree on every count, plus the sparse invariants the
// production code relies on: no zero-count peers linger (a drained pair
// is swap-deleted) and no receiver appears twice in a sender's row.
func TestEagerTrackerMatchesDenseReference(t *testing.T) {
	const ranks = 48
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			var tr eagerTracker
			tr.init(ranks)
			dense := make([][]int, ranks)
			for i := range dense {
				dense[i] = make([]int, ranks)
			}
			type pair struct{ from, to int }
			var live []pair // pairs with non-zero count, for dec picks
			for op := 0; op < 20000; op++ {
				if len(live) == 0 || r.Intn(2) == 0 {
					p := pair{r.Intn(ranks), r.Intn(ranks)}
					if dense[p.from][p.to] == 0 {
						live = append(live, p)
					}
					dense[p.from][p.to]++
					tr.inc(p.from, p.to)
				} else {
					i := r.Intn(len(live))
					p := live[i]
					dense[p.from][p.to]--
					tr.dec(p.from, p.to)
					if dense[p.from][p.to] == 0 {
						live[i] = live[len(live)-1]
						live = live[:len(live)-1]
					}
				}
				if op%500 == 0 {
					compareEagerTracker(t, &tr, dense)
				}
			}
			compareEagerTracker(t, &tr, dense)
			// Drain everything: every row must give its storage back.
			for _, p := range live {
				for dense[p.from][p.to] > 0 {
					dense[p.from][p.to]--
					tr.dec(p.from, p.to)
				}
			}
			for i := range tr.rows {
				if n := len(tr.rows[i].peers); n != 0 {
					t.Fatalf("drained tracker still holds %d peers in row %d", n, i)
				}
			}
		})
	}
}

func compareEagerTracker(t *testing.T, tr *eagerTracker, dense [][]int) {
	t.Helper()
	for from := range dense {
		seen := make(map[int32]bool)
		for _, p := range tr.rows[from].peers {
			if p.count <= 0 {
				t.Fatalf("row %d keeps peer %d at count %d (zero-count peers must be swap-deleted)", from, p.to, p.count)
			}
			if seen[p.to] {
				t.Fatalf("row %d lists peer %d twice", from, p.to)
			}
			seen[p.to] = true
		}
		for to, want := range dense[from] {
			if got := tr.count(from, to); got != want {
				t.Fatalf("count(%d,%d) = %d, dense reference says %d", from, to, got, want)
			}
		}
	}
}

// denseSlot is the dense matcher reference: one plain slice per queue,
// keyed in an ordinary map — the structure the pooled linear-scan
// matcher replaced.
type denseSlot struct {
	recvs  []*request
	eagers []*eagerMsg
	rts    []*request
}

func (d *denseSlot) empty() bool {
	return len(d.recvs) == 0 && len(d.eagers) == 0 && len(d.rts) == 0
}

// TestMatcherMatchesDenseReference drives the pooled matcher and the
// dense map reference with the same randomized push/pop stream: every
// queue must pop the same objects in the same FIFO order, a drained
// channel must vanish from the matcher, and a fully drained rank must
// hand its entry list back to the pool.
func TestMatcherMatchesDenseReference(t *testing.T) {
	for _, seed := range []int64{4, 5, 6} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			s := &simulation{}
			var m matcher
			dense := make(map[matchKey]*denseSlot)
			keys := []matchKey{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 5}, {3, 7}, {5, 2}}
			for op := 0; op < 30000; op++ {
				key := keys[r.Intn(len(keys))]
				ref := dense[key]
				switch r.Intn(6) {
				case 0, 1: // post a receive
					req := &request{}
					m.slot(s, key).postedRecvs.push(req)
					if ref == nil {
						ref = &denseSlot{}
						dense[key] = ref
					}
					ref.recvs = append(ref.recvs, req)
				case 2: // unexpected eager arrival
					msg := &eagerMsg{}
					m.slot(s, key).unexpEager.push(msg)
					if ref == nil {
						ref = &denseSlot{}
						dense[key] = ref
					}
					ref.eagers = append(ref.eagers, msg)
				case 3: // unexpected rendezvous handshake
					req := &request{}
					m.slot(s, key).unexpRTS.push(req)
					if ref == nil {
						ref = &denseSlot{}
						dense[key] = ref
					}
					ref.rts = append(ref.rts, req)
				default: // pop from a non-empty queue, then release
					if ref == nil || ref.empty() {
						continue
					}
					sl := m.find(key)
					if sl == nil {
						t.Fatalf("op %d: channel %v live in reference but not in matcher", op, key)
					}
					switch {
					case len(ref.recvs) > 0:
						want := ref.recvs[0]
						ref.recvs = ref.recvs[1:]
						if got := sl.postedRecvs.pop(); got != want {
							t.Fatalf("op %d: %v popped recv %p, reference says %p", op, key, got, want)
						}
					case len(ref.eagers) > 0:
						want := ref.eagers[0]
						ref.eagers = ref.eagers[1:]
						if got := sl.unexpEager.pop(); got != want {
							t.Fatalf("op %d: %v popped eager %p, reference says %p", op, key, got, want)
						}
					default:
						want := ref.rts[0]
						ref.rts = ref.rts[1:]
						if got := sl.unexpRTS.pop(); got != want {
							t.Fatalf("op %d: %v popped RTS %p, reference says %p", op, key, got, want)
						}
					}
					m.release(s, key, sl)
					if ref.empty() {
						delete(dense, key)
					}
				}
				if op%1000 == 0 {
					compareMatcher(t, &m, dense)
				}
			}
			compareMatcher(t, &m, dense)
			// Drain everything left; the matcher must end empty with its
			// entry list recycled to the simulation's pool.
			for key, ref := range dense {
				sl := m.find(key)
				for range ref.recvs {
					sl.postedRecvs.pop()
				}
				for range ref.eagers {
					sl.unexpEager.pop()
				}
				for range ref.rts {
					sl.unexpRTS.pop()
				}
				m.release(s, key, sl)
			}
			if m.entries != nil {
				t.Fatalf("drained matcher kept its entry list (%d entries, cap %d)", len(m.entries), cap(m.entries))
			}
			if len(s.freeSlots) == 0 || len(s.freeEntryLists) == 0 {
				t.Fatalf("drained matcher recycled nothing: %d slots, %d entry lists pooled",
					len(s.freeSlots), len(s.freeEntryLists))
			}
		})
	}
}

func compareMatcher(t *testing.T, m *matcher, dense map[matchKey]*denseSlot) {
	t.Helper()
	for key, ref := range dense {
		sl := m.find(key)
		if sl == nil {
			t.Fatalf("channel %v live in reference but missing from matcher", key)
		}
		if got, want := sl.postedRecvs.live(), ref.recvs; !samePtrs(got, want) {
			t.Fatalf("channel %v posted recvs diverge: %d vs %d", key, len(got), len(want))
		}
		if got, want := sl.unexpEager.live(), ref.eagers; !samePtrs(got, want) {
			t.Fatalf("channel %v unexpected eagers diverge: %d vs %d", key, len(got), len(want))
		}
		if got, want := sl.unexpRTS.live(), ref.rts; !samePtrs(got, want) {
			t.Fatalf("channel %v unexpected RTS diverge: %d vs %d", key, len(got), len(want))
		}
	}
	for i := range m.entries {
		if _, ok := dense[m.entries[i].key]; !ok {
			t.Fatalf("matcher keeps channel %v the reference drained", m.entries[i].key)
		}
	}
}

func samePtrs[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// equivTopology is the neighbor interface the scenario generator needs;
// Chain and Grid both satisfy it.
type equivTopology interface {
	topology.Topology
	SendTargets(int) []int
	RecvSources(int) []int
}

// equivPrograms builds the bulk-synchronous program the workload layer
// would emit for the topology: per step an optional injected delay, a
// compute phase, sends and receives to every neighbor, and a waitall.
func equivPrograms(topo equivTopology, steps int, texec sim.Time, bytes int, injRank, injStep int, injDur sim.Time, memBytes float64) []Program {
	n := topo.Ranks()
	progs := make([]Program, n)
	for i := 0; i < n; i++ {
		var p Program
		for s := 0; s < steps; s++ {
			if i == injRank && s == injStep {
				p = append(p, Delay{Duration: injDur, Step: s})
			}
			p = append(p, Compute{Duration: texec, MemBytes: memBytes, Step: s})
			for _, to := range topo.SendTargets(i) {
				p = append(p, Isend{To: to, Bytes: bytes, Tag: s})
			}
			for _, from := range topo.RecvSources(i) {
				p = append(p, Irecv{From: from, Bytes: bytes, Tag: s})
			}
			p = append(p, Waitall{Step: s})
		}
		progs[i] = p
	}
	return progs
}

// equivNoise is a deterministic noise function that is pure in
// (rank, step), so its draws do not depend on call order, with enough
// variation to perturb every rank differently.
func equivNoise(texec sim.Time) NoiseFunc {
	return func(rank, step int) sim.Time {
		h := uint64(rank+1)*0x9e3779b97f4a7c15 ^ uint64(step+1)*0xbf58476d1ce4e5b9
		h ^= h >> 31
		return texec * sim.Time(h%97) / 1000
	}
}

// TestTraceModesAgreeOnRandomScenarios is the scenario-level equivalence
// property: randomized small scenarios (ranks <= 64; random topology,
// protocol, noise, memory-boundedness, progress mode) must finish at
// exactly the same time with exactly the same event count under
// TraceFull, TraceSteps and TraceOff, the streaming front tracker fed
// by OnWait must reproduce the dense TrackFront extraction from the
// recorded trace byte for byte, and TraceSteps must keep exactly the
// step timeline TraceFull records.
func TestTraceModesAgreeOnRandomScenarios(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	net, err := netmodel.NewHockney(sim.Micro(2), 3e9, 1<<17)
	if err != nil {
		t.Fatal(err)
	}
	texec := sim.Milli(3)
	for i := 0; i < 14; i++ {
		var topo equivTopology
		var label string
		switch r.Intn(4) {
		case 0: // open bidirectional chain
			n := 2 + r.Intn(63)
			c, err := topology.NewChain(n, 1, topology.Bidirectional, topology.Open)
			if err != nil {
				t.Fatal(err)
			}
			topo, label = c, fmt.Sprintf("chain%d", n)
		case 1: // periodic ring, sometimes unidirectional, sometimes d=2
			n := 5 + r.Intn(60)
			d := 1 + r.Intn(2)
			dir := topology.Bidirectional
			if r.Intn(2) == 0 {
				dir = topology.Unidirectional
			}
			c, err := topology.NewChain(n, d, dir, topology.Periodic)
			if err != nil {
				t.Fatal(err)
			}
			topo, label = c, fmt.Sprintf("ring%d_d%d_%s", n, d, dir)
		case 2: // 2-D torus (periodic extents must exceed 2d)
			a, b := 3+r.Intn(6), 3+r.Intn(5)
			g, err := topology.Torus2D(a, b)
			if err != nil {
				t.Fatal(err)
			}
			topo, label = g, fmt.Sprintf("torus%dx%d", a, b)
		default: // open grid
			a, b := 2+r.Intn(6), 2+r.Intn(6)
			g, err := topology.NewGrid([]int{a, b}, 1, topology.Bidirectional, topology.Open)
			if err != nil {
				t.Fatal(err)
			}
			topo, label = g, fmt.Sprintf("grid%dx%d", a, b)
		}
		ranks := topo.Ranks()
		steps := 3 + r.Intn(4)
		bytes := 8192
		if r.Intn(3) == 0 {
			bytes = 200_000 // above the eager limit: rendezvous
			label += "_rndv"
		}
		injRank := r.Intn(ranks)
		injStep := r.Intn(2)
		cfg := Config{Ranks: ranks, Net: net}
		if r.Intn(2) == 0 {
			cfg.Noise = equivNoise(texec)
			label += "_noise"
		}
		if r.Intn(2) == 0 {
			cfg.Progress = IndependentRendezvous
		}
		memBytes := 0.0
		if r.Intn(4) == 0 {
			memBytes = 5e6
			cfg.SocketOf = func(rank int) int { return rank / 4 }
			cfg.SocketBandwidth = 40e9
			cfg.CoreBandwidth = 8e9
			label += "_mem"
		}
		progs := equivPrograms(topo, steps, texec, bytes, injRank, injStep, 5*texec, memBytes)

		t.Run(label, func(t *testing.T) {
			full := cfg
			full.Trace = TraceFull
			resFull, err := Run(full, progs)
			if err != nil {
				t.Fatal(err)
			}

			tracker := wave.NewFrontTracker(topo, injRank, texec/2)
			off := cfg
			off.Trace = TraceOff
			off.OnWait = tracker.Observe
			resOff, err := Run(off, progs)
			if err != nil {
				t.Fatal(err)
			}

			stepsOnly := cfg
			stepsOnly.Trace = TraceSteps
			resSteps, err := Run(stepsOnly, progs)
			if err != nil {
				t.Fatal(err)
			}

			if resOff.End != resFull.End || resSteps.End != resFull.End {
				t.Errorf("end times diverge: full %v, steps %v, off %v", resFull.End, resSteps.End, resOff.End)
			}
			if resOff.Events != resFull.Events || resSteps.Events != resFull.Events {
				t.Errorf("event counts diverge: full %d, steps %d, off %d", resFull.Events, resSteps.Events, resOff.Events)
			}
			for _, rt := range resOff.Traces.Ranks {
				if len(rt.Segments) != 0 || len(rt.StepEnd) != 0 {
					t.Fatalf("TraceOff recorded rank %d: %d segments, %d step ends", rt.Rank, len(rt.Segments), len(rt.StepEnd))
				}
			}
			if len(resSteps.Traces.Ranks) != len(resFull.Traces.Ranks) {
				t.Fatalf("TraceSteps has %d rank traces, TraceFull %d", len(resSteps.Traces.Ranks), len(resFull.Traces.Ranks))
			}
			for i, rt := range resSteps.Traces.Ranks {
				if len(rt.Segments) != 0 {
					t.Fatalf("TraceSteps recorded %d segments for rank %d", len(rt.Segments), rt.Rank)
				}
				want := resFull.Traces.Ranks[i].StepEnd
				if !samePtrs(rt.StepEnd, want) {
					t.Fatalf("rank %d step timeline diverges between TraceSteps and TraceFull", rt.Rank)
				}
			}

			dense := wave.TrackFront(resFull.Traces, topo, injRank, texec/2)
			stream := tracker.Front()
			dj, err := json.Marshal(dense)
			if err != nil {
				t.Fatal(err)
			}
			sj, err := json.Marshal(stream)
			if err != nil {
				t.Fatal(err)
			}
			if string(dj) != string(sj) {
				t.Errorf("fronts diverge:\ndense:  %s\nstream: %s", dj, sj)
			}
		})
	}
}
