package spec

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/workload"
)

func validSweep() Sweep {
	return Sweep{
		Base: Scenario{
			Machine:  "emmy",
			Topology: "chain:24",
			Steps:    26,
			Seed:     42,
			Delay:    []Delay{{Rank: 12, Step: 5, Duration: "1500us"}},
		},
		Axes: []Axis{
			{Kind: "Noise", Values: []string{"0", "0.5", "1.0"}},
			{Kind: "bytes", Values: []string{"8192", "131073"}},
		},
		Metrics: []string{"Speed", "decay"},
		Workers: 3,
	}
}

func TestCanonicalNormalizes(t *testing.T) {
	c, err := validSweep().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Base.Delay[0].Duration != "1.5ms" {
		t.Errorf("delay duration not canonicalized: %q", c.Base.Delay[0].Duration)
	}
	if c.Axes[0].Kind != "noise" {
		t.Errorf("axis kind not lowercased: %q", c.Axes[0].Kind)
	}
	if got := c.Axes[0].Values[2]; got != "1" {
		t.Errorf("float value not canonicalized: %q", got)
	}
	if c.Metrics[0] != "speed" {
		t.Errorf("metric not lowercased: %q", c.Metrics[0])
	}
}

func TestCanonicalComponentStrings(t *testing.T) {
	s := Sweep{Base: Scenario{
		Workload: "triad:18:ws=1.2e9", // explicit default folds away
		Noise:    "exp:0.5",
		Machine:  " emmy ",
		NetModel: "hockney:bw=3e9",
	}}
	c, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if c.Base.Workload != "triad:18" {
		t.Errorf("workload not canonicalized: %q", c.Base.Workload)
	}
	if c.Base.Machine != "emmy" {
		t.Errorf("machine not trimmed: %q", c.Base.Machine)
	}
	if c.Base.NetModel != "hockney:bw=3e9" {
		t.Errorf("netmodel spelling changed: %q", c.Base.NetModel)
	}
}

func TestCanonicalRejects(t *testing.T) {
	base := validSweep()
	for name, mutate := range map[string]func(*Sweep){
		"bad workload":           func(s *Sweep) { s.Base.Workload = "warp:8" },
		"bad topology":           func(s *Sweep) { s.Base.Topology = "blob:9" },
		"bad machine":            func(s *Sweep) { s.Base.Machine = "deepthought" },
		"bad noise":              func(s *Sweep) { s.Base.Noise = "loud" },
		"bad netmodel":           func(s *Sweep) { s.Base.NetModel = "hier(a|b|c)" },
		"bad texec":              func(s *Sweep) { s.Base.Texec = "-3ms" },
		"bad direction":          func(s *Sweep) { s.Base.Direction = "sideways" },
		"bad boundary":           func(s *Sweep) { s.Base.Boundary = "wall" },
		"bad trace":              func(s *Sweep) { s.Base.Trace = "verbose" },
		"negative ranks":         func(s *Sweep) { s.Base.Ranks = -1 },
		"negative shards":        func(s *Sweep) { s.Base.Shards = -1 },
		"negative workers":       func(s *Sweep) { s.Workers = -1 },
		"noise conflict":         func(s *Sweep) { s.Base.Noise = "exp:0.5"; s.Base.NoiseLevel = 0.5 },
		"bad delay duration":     func(s *Sweep) { s.Base.Delay[0].Duration = "0s" },
		"negative delay":         func(s *Sweep) { s.Base.Delay[0].Rank = -1 },
		"unknown axis":           func(s *Sweep) { s.Axes[0].Kind = "flavor" },
		"empty axis":             func(s *Sweep) { s.Axes[0].Values = nil },
		"bad axis value":         func(s *Sweep) { s.Axes[1].Values[0] = "many" },
		"unknown metric":         func(s *Sweep) { s.Metrics = []string{"vibes"} },
		"topology with d":        func(s *Sweep) { s.Base.NeighborDistance = 2 },
		"topology with boundary": func(s *Sweep) { s.Base.Boundary = "open" },
		"workload with direction axis": func(s *Sweep) {
			s.Base.Topology, s.Base.Workload = "", "triad:8"
			s.Axes[1] = Axis{Kind: "direction", Values: []string{"uni"}}
		},
		"topology axis with ranks": func(s *Sweep) {
			s.Base.Topology, s.Base.Ranks = "", 24
			s.Axes[1] = Axis{Kind: "topology", Values: []string{"chain:8"}}
		},
		"workload axis with ranks axis": func(s *Sweep) {
			s.Base.Topology = ""
			s.Axes[1] = Axis{Kind: "workload", Values: []string{"triad:8"}}
			s.Axes = append(s.Axes, Axis{Kind: "ranks", Values: []string{"8"}})
		},
		"workload axis with texec": func(s *Sweep) {
			s.Base.Topology, s.Base.Texec = "", "3ms"
			s.Axes[1] = Axis{Kind: "workload", Values: []string{"triad:8"}}
		},
		"workload axis with bytes axis": func(s *Sweep) {
			s.Base.Topology = ""
			s.Axes = append(s.Axes, Axis{Kind: "workload", Values: []string{"triad:8"}})
		},
		"noiseprofile axis with noise_level": func(s *Sweep) {
			s.Base.NoiseLevel = 0.5
			s.Axes[0] = Axis{Kind: "noiseprofile", Values: []string{"exp:0.5"}}
		},
		"noiseprofile axis with noise axis": func(s *Sweep) {
			s.Axes = append(s.Axes, Axis{Kind: "noiseprofile", Values: []string{"silent"}})
		},
		"noise axis with noise": func(s *Sweep) { s.Base.Noise = "exp:0.5" },
		"axis kind twice": func(s *Sweep) {
			s.Axes = append(s.Axes, Axis{Kind: "BYTES", Values: []string{"1"}})
		},
	} {
		s := base
		s.Base.Delay = append([]Delay(nil), base.Base.Delay...)
		s.Axes = []Axis{
			{Kind: base.Axes[0].Kind, Values: append([]string(nil), base.Axes[0].Values...)},
			{Kind: base.Axes[1].Kind, Values: append([]string(nil), base.Axes[1].Values...)},
		}
		mutate(&s)
		if _, err := s.Canonical(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDropSuperseded: the fields a set field supersedes are dropped
// unless kept, and a kept one is still rejected by Canonical.
func TestDropSuperseded(t *testing.T) {
	s := Sweep{
		Base: Scenario{Ranks: 24, Steps: 20, Texec: "3ms", Boundary: "periodic"},
		Axes: []Axis{
			{Kind: "noiseprofile", Values: []string{"exp:0.5"}},
			{Kind: "noise", Values: []string{"0"}},
			{Kind: "topology", Values: []string{"chain:8"}},
			{Kind: "d", Values: []string{"1"}},
			{Kind: "bytes", Values: []string{"8192"}},
		},
	}
	got := DropSuperseded(s, nil)
	want := Sweep{
		Base: Scenario{Steps: 20, Texec: "3ms"},
		Axes: []Axis{s.Axes[0], s.Axes[2], s.Axes[4]},
	}
	a, _ := got.Encode()
	b, _ := want.Encode()
	if !bytes.Equal(a, b) {
		t.Errorf("dropped to\n%s\nwant\n%s", a, b)
	}
	if len(s.Axes) != 5 || s.Base.Ranks != 24 {
		t.Error("DropSuperseded modified its argument")
	}
	if _, err := got.Canonical(); err != nil {
		t.Errorf("dropped spec rejected: %v", err)
	}
	kept := DropSuperseded(s, []string{"d"})
	if len(kept.Axes) != 4 || kept.Base.Ranks != 0 {
		t.Fatalf("kept d axis: %+v", kept)
	}
	if _, err := kept.Canonical(); err == nil || !strings.Contains(err.Error(), "topology axis replaces d axis") {
		t.Errorf("kept d axis: Canonical gave %v", err)
	}
}

func TestHashIgnoresExecutionConfig(t *testing.T) {
	a := validSweep()
	b := validSweep()
	b.Workers = 16
	b.Base.Shards = 4
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Errorf("workers/shards split the hash: %s vs %s", ha, hb)
	}
	if len(ha) != 64 {
		t.Errorf("hash %q is not hex SHA-256", ha)
	}
}

func TestHashDistinguishesContent(t *testing.T) {
	a := validSweep()
	b := validSweep()
	b.Base.Seed = 43
	ha, _ := a.Hash()
	hb, _ := b.Hash()
	if ha == hb {
		t.Error("different seeds hash identically")
	}
	c := validSweep()
	c.Metrics = []string{"idle"}
	hc, _ := c.Hash()
	if ha == hc {
		t.Error("different metrics hash identically")
	}
	// An explicit steps=24 (the parse default) is not the base step
	// count: the two spellings run 24 and 30 steps.
	d := Sweep{Base: Scenario{Steps: 30, Workload: "triad:18:steps=24"}}
	e := Sweep{Base: Scenario{Steps: 30, Workload: "triad:18"}}
	hd, err := d.Hash()
	if err != nil {
		t.Fatal(err)
	}
	he, _ := e.Hash()
	if hd == he {
		t.Error("triad:18:steps=24 and triad:18 hash identically under base steps 30")
	}
}

// TestCanonicalWorkloadUnderBaseSteps: a workload's canonical spelling
// is that of what it means under the base step count. Spellings in one
// group mean the same under steps and must canonicalize to one string
// that still means it; different groups must not collide.
func TestCanonicalWorkloadUnderBaseSteps(t *testing.T) {
	seen := map[string]int{}
	for gi, g := range []struct {
		steps     int
		spellings []string
	}{
		{0, []string{"triad:18", "triad:18:steps=24", " triad:18 "}},
		{24, []string{"triad:18", "triad:18:steps=24"}},
		{30, []string{"triad:18", "triad:18:steps=30"}},
		{30, []string{"triad:18:steps=24"}},
		{30, []string{"triad:18:steps=50", "triad:18:ws=1.2e9:steps=50"}},
		{30, []string{"bulk:18:periodic:steps=24", "bulk:18:steps=24:periodic"}},
		{11, []string{"gen:8:phase=exp/3ms:seed=7", "gen:8:seed=7:phase=exp/3000us", "gen:8:steps=11:phase=exp/3ms:seed=7"}},
		{11, []string{"gen:8:steps=24:phase=exp/3ms:seed=7"}},
		{11, []string{"mix:bulk/18+gen/8/phase=exp/3ms/seed=1", "mix:bulk/18/steps=11+gen/8/seed=1/phase=exp/3000us"}},
		{11, []string{"mix:bulk/18/steps=24+gen/8/phase=exp/3ms/seed=1"}},
	} {
		var canon string
		for _, v := range g.spellings {
			c, err := canonWorkload(v, g.steps)
			if err != nil {
				t.Fatalf("%q (steps %d): %v", v, g.steps, err)
			}
			if canon == "" {
				canon = c
			} else if c != canon {
				t.Errorf("steps %d: %q canonicalizes to %q, %q to %q", g.steps, g.spellings[0], canon, v, c)
			}
			if got, want := meaningUnder(t, c, g.steps), meaningUnder(t, v, g.steps); got != want {
				t.Errorf("steps %d: %q canonicalizes to %q, which means %s, not %s", g.steps, v, c, got, want)
			}
		}
		key := fmt.Sprint(g.steps, " ", canon)
		if prev, dup := seen[key]; dup {
			t.Errorf("groups %d and %d both canonicalize to %q", prev, gi, canon)
		}
		seen[key] = gi
	}
}

// meaningUnder renders what v means under the base step count steps.
func meaningUnder(t *testing.T, v string, steps int) string {
	t.Helper()
	w, err := workload.ParseWith(v, workload.Defaults{Steps: steps})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprint(w)
}

func TestHashEquivalentSpellings(t *testing.T) {
	a := validSweep()
	b := validSweep()
	b.Base.Delay[0].Duration = "1.5ms" // same value, different spelling
	b.Axes[0].Values = []string{"0.0", "0.50", "1"}
	b.Metrics = []string{"SPEED", "Decay"}
	ha, _ := a.Hash()
	hb, _ := b.Hash()
	if ha != hb {
		t.Errorf("equivalent spellings hash differently: %s vs %s", ha, hb)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := validSweep()
	data, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := s.Hash()
	h2, _ := back.Hash()
	if h1 != h2 {
		t.Errorf("encode/decode changed the hash: %s vs %s", h1, h2)
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	if _, err := Decode([]byte(`{"base": {"ranks": 8}, "axis": []}`)); err == nil {
		t.Error("unknown top-level field accepted")
	}
	if _, err := Decode([]byte(`{"base": {"rnaks": 8}}`)); err == nil {
		t.Error("unknown scenario field accepted")
	}
	if _, err := Decode([]byte(`{"base": {}} trailing`)); err == nil {
		t.Error("trailing data accepted")
	}
}

func TestPointsAndSlice(t *testing.T) {
	s := validSweep()
	n, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("Points = %d, want 6", n)
	}
	sl, err := s.Slice([]int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := sl.Points(); got != 1 {
		t.Errorf("slice has %d points", got)
	}
	if sl.Axes[0].Values[0] != "1.0" || sl.Axes[1].Values[0] != "131073" {
		t.Errorf("slice picked wrong values: %+v", sl.Axes)
	}
	if _, err := s.Slice([]int{0}); err == nil {
		t.Error("coordinate count mismatch accepted")
	}
	if _, err := s.Slice([]int{3, 0}); err == nil {
		t.Error("out-of-range coordinate accepted")
	}
}

func TestSliceHashesDiffer(t *testing.T) {
	s := validSweep()
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			sl, err := s.Slice([]int{i, j})
			if err != nil {
				t.Fatal(err)
			}
			h, err := sl.Hash()
			if err != nil {
				t.Fatal(err)
			}
			if seen[h] {
				t.Fatalf("duplicate point hash at (%d,%d)", i, j)
			}
			seen[h] = true
		}
	}
}

func TestMetricDefaults(t *testing.T) {
	c, err := Sweep{}.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(c.Metrics, ",") != "speed,decay,idle,runtime" {
		t.Errorf("default metrics = %v", c.Metrics)
	}
}

// FuzzDecodeSpec drives the sweep service's untrusted input through
// Decode, Canonical and Hash: no input may panic, an accepted spec's
// canonical form must be a fixed point (by encoded bytes), and a spec
// must hash like its canonical form.
func FuzzDecodeSpec(f *testing.F) {
	valid := validSweep()
	data, err := valid.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	for _, seed := range []string{
		`{"base": {"ranks": 8}, "axis": []}`,
		`{"base": {"rnaks": 8}}`,
		`{"base": {}} trailing`,
		`{"base": {"steps": 30, "workload": "triad:18:steps=24"}}`,
		`{"base": {"workload": "gen:8:phase=exp/3ms:seed=7", "delay": [{"rank": 1, "step": 2, "duration": "1500us"}]},
		  "axes": [{"kind": "distribution", "values": ["gamma:scale=1ms:shape=2"]}], "metrics": ["RUNTIME"]}`,
		`{"base": {"steps": 12}, "axes": [{"kind": "workload", "values": ["divide:8", "lbm:6:cells=30:steps=24"]},
		  {"kind": "noiseprofile", "values": ["exp:0.5+periodic:500us@10ms", "silent"]}]}`,
		`{"base": {"topology": "grid:4x4:periodic", "machine": " meggie:noise=0 ", "netmodel": "hockney:bw=3e9",
		  "texec": "3000us", "trace": "OFF", "front_sources": [3]}, "workers": 2, "deadline": "90s"}`,
		`{"base": {"ranks": 24, "boundary": "periodic", "direction": "bi", "noise_level": 0.5},
		  "axes": [{"kind": "latency", "values": ["1us"]}, {"kind": "bandwidth", "values": ["1GB/s"]},
		  {"kind": "seed", "values": ["1", "2"]}, {"kind": "d", "values": ["1", "2"]}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		c, err := s.Canonical()
		if err != nil {
			return
		}
		cc, err := c.Canonical()
		if err != nil {
			t.Fatalf("canonical form rejected: %v", err)
		}
		a, err := c.Encode()
		if err != nil {
			t.Fatal(err)
		}
		b, err := cc.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("Canonical is not a fixed point:\n%s\nvs\n%s", a, b)
		}
		hs, err := s.Hash()
		if err != nil {
			t.Fatal(err)
		}
		hc, err := c.Hash()
		if err != nil {
			t.Fatal(err)
		}
		if hs != hc {
			t.Fatalf("Hash(x) = %s, Hash(Canonical(x)) = %s", hs, hc)
		}
	})
}
