package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunMatchesGolden pins the flag-to-spec path byte for byte: every
// golden under testdata was written by the command as it stood before
// the ad-hoc flags filled an idlewave.SpecScenario, and must not move.
func TestRunMatchesGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"list", []string{"-list"}},
		{"exp-fig4", []string{"-exp", "fig4"}},
		{"exp-eq2-csv", []string{"-exp", "eq2", "-csv"}},
		{"topology", []string{"-topology", "grid:6x6:periodic", "-delay", "15ms"}},
		{"workload", []string{"-workload", "lbm:12:cells=30", "-delay", "15ms"}},
		{"custom-machine", []string{"-topology", "chain:16", "-machine", "custom:lat=5us:bw=1GB/s", "-noise", "periodic:500us@10ms"}},
		{"timeline", []string{"-topology", "chain:32:periodic:uni", "-steps", "20", "-timeline"}},
		{"workload-topology", []string{"-workload", "triad:18", "-workload-topology", "grid:3x6:periodic"}},
		{"gen", []string{"-workload", "gen:16:phase=exp/3ms:seed=7"}},
		{"shards", []string{"-topology", "chain:64", "-steps", "12", "-shards", "2"}},
		{"spec", []string{"-spec", "testdata/scenario.json", "-timeline"}},
		{"workload-steps", []string{"-workload", "triad:18:steps=24", "-steps", "30"}},
		{"workload-steps-default", []string{"-workload", "divide:8", "-steps", "11", "-delay-rank", "2"}},
		{"scalars", []string{"-topology", "chain:16", "-E", "0.5", "-seed", "9", "-delay-rank", "3", "-delay-step", "2", "-delay", "5ms", "-bytes", "65536"}},
		{"no-delay", []string{"-topology", "chain:16", "-delay", "0"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			checkGolden(t, c.name, c.args, "")
		})
	}
}

// TestRunRecordReplay: a recorded run and its replay (on two shards)
// print the goldens written with the recording at run.iwt2.
func TestRunRecordReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.iwt2")
	checkGolden(t, "record", []string{"-workload", "gen:16:phase=exp/3ms:seed=7", "-E", "0.2", "-record", path}, dir)
	checkGolden(t, "replay", []string{"-workload", "replay:" + path, "-shards", "2"}, dir)
}

// checkGolden runs the command and compares its output, with dir+"/"
// removed, against testdata/<name>.golden.
func checkGolden(t *testing.T, name string, args []string, dir string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if dir != "" {
		got = strings.ReplaceAll(got, dir+string(filepath.Separator), "")
	}
	if got != string(want) {
		t.Errorf("%s: output differs from golden:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestRunRejects: every flag combination the command rejected before
// its flags filled a spec is still rejected, now either by the
// command's own table (flags with no spec field) or by the spec's
// Canonical rules. The last three rows were accepted before: the first two
// silently ignored -topology and -steps, the third ran a negative E.
func TestRunRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-spec", "testdata/scenario.json", "-exp", "fig4"},
		{"-spec", "testdata/scenario.json", "-topology", "chain:8"},
		{"-spec", "testdata/scenario.json", "-workload", "triad:8"},
		{"-spec", "testdata/scenario.json", "-workload-topology", "chain:8"},
		{"-spec", "testdata/scenario.json", "-machine", "emmy"},
		{"-spec", "testdata/scenario.json", "-noise", "exp:1"},
		{"-spec", "testdata/scenario.json", "-steps", "8"},
		{"-spec", "testdata/scenario.json", "-bytes", "100"},
		{"-spec", "testdata/scenario.json", "-E", "0.1"},
		{"-spec", "testdata/scenario.json", "-delay-rank", "1"},
		{"-spec", "testdata/scenario.json", "-delay-step", "1"},
		{"-spec", "testdata/scenario.json", "-delay", "1ms"},
		{"-spec", "testdata/scenario.json", "-seed", "1"},
		{"-spec", "testdata/scenario.json", "-shards", "2"},
		{"-spec", "testdata/scenario.json", "-record", "x.iwt2"},
		{"-exp", "fig4", "-topology", "chain:8"},
		{"-exp", "fig4", "-workload", "triad:8"},
		{"-machine", "emmy"},
		{"-noise", "exp:1"},
		{"-exp", "fig4", "-machine", "emmy"},
		{"-topology", "chain:8", "-noise", "exp:1", "-E", "0"},
		{"-topology", "chain:8", "-noise", "exp:1", "-E", "0.5"},
		{"-workload-topology", "grid:2x2"},
		{"-topology", "chain:8", "-workload-topology", "grid:2x2"},
		{"-workload", "triad:8", "-bytes", "100"},
		{"-workload", "triad:8", "-bytes", "8192"},
		{"-workload", "replay:x.iwt2", "-machine", "emmy"},
		{"-workload", "replay:x.iwt2", "-noise", "exp:1"},
		{"-workload", "replay:x.iwt2", "-E", "0.1"},
		{"-workload", "replay:x.iwt2", "-steps", "8"},
		{"-workload", "replay:x.iwt2", "-delay", "1ms"},
		{"-workload", "replay:x.iwt2", "-delay-rank", "1"},
		{"-workload", "replay:x.iwt2", "-delay-step", "1"},
		{"-workload", "replay:x.iwt2", "-seed", "1"},
		{"-workload", "replay:x.iwt2", "-workload-topology", "chain:8"},
		{"-workload", "replay:missing.iwt2"},
		{"-exp", "nope"},
		{"-topology", "blob:9"},
		{"-workload", "warp:8"},
		{"-topology", "chain:8", "-machine", "deepthought"},
		{"-topology", "chain:8", "-noise", "loud"},
		{"-spec", "testdata/multi.json"},
		{},
		{"-steps", "x"},
		{"-workload", "triad:8", "-topology", "chain:8"},
		{"-exp", "fig4", "-steps", "10"},
		{"-topology", "chain:8", "-E", "-1"},
	} {
		if err := run(args, new(bytes.Buffer)); err == nil {
			t.Errorf("%q: accepted", args)
		}
	}
}
