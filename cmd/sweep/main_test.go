package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestRunMatchesGolden pins the flag-to-spec path byte for byte: every
// golden under testdata was written by the command as it stood before
// the flags filled an idlewave.Spec, and must not move.
func TestRunMatchesGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"default-csv", []string{"-format", "csv"}},
		{"default-table", []string{}},
		{"readme-e-dir", []string{"-E", "0,0.05,0.1", "-dir", "uni,bi", "-format", "csv"}},
		{"readme-topology", []string{"-topology", "grid:4x4:periodic,chain:16:periodic", "-E", "0,0.05", "-format", "csv"}},
		{"readme-workload", []string{"-workload", "triad:6,lbm:6:cells=30", "-metrics", "runtime,membw", "-format", "markdown"}},
		{"readme-machine-noise", []string{"-machine", "emmy,custom:lat=5us", "-noise", "silent,exp:0.5", "-format", "csv"}},
		{"readme-gen", []string{"-workload", "gen:8:phase=gamma/shape=2/scale=3ms:seed=7", "-E", "0,0.05", "-format", "csv"}},
		{"machine-all", []string{"-machine", "all", "-E", "0,0.05", "-format", "csv"}},
		{"noise-json", []string{"-noise", "exp:0.5,periodic:500us@10ms", "-bytes", "8192,262144", "-format", "json"}},
		{"bytes-d", []string{"-E", "0,0.1", "-bytes", "8192,262144", "-d", "1,2", "-dir", "uni,bi", "-ranks", "16", "-steps", "20", "-format", "csv"}},
		{"spec", []string{"-spec", "testdata/sweep.json", "-format", "csv"}},
		{"spec-workers", []string{"-spec", "testdata/sweep.json", "-workers", "1", "-format", "markdown"}},
		{"workload-steps", []string{"-workload", "triad:18:steps=24", "-steps", "30", "-format", "csv"}},
		{"workload-rebind-steps", []string{"-workload", "divide:8,lbm:6:cells=30:steps=24", "-steps", "12", "-E", "0,0.05", "-format", "csv"}},
		{"shards", []string{"-shards", "2", "-E", "0,0.05", "-format", "csv"}},
		{"no-delay", []string{"-delay-rank", "-1", "-metrics", "runtime,idle,quiet,events", "-format", "csv"}},
		{"chain-scalars", []string{"-seed", "7", "-texec", "2ms", "-periodic=false", "-ranks", "12", "-steps", "16", "-delay-rank", "5", "-delay-step", "3", "-delay", "9ms", "-metrics", "speed,decay,steptime", "-format", "csv"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := run(c.args, &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("output differs from golden:\n%s\nwant:\n%s", got.Bytes(), want)
			}
		})
	}
}

// TestRunWritesFile: -o writes the bytes stdout would get.
func TestRunWritesFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out.csv")
	var stdout bytes.Buffer
	if err := run([]string{"-format", "csv", "-o", out}, &stdout); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "default-csv.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 || !bytes.Equal(got, want) {
		t.Errorf("-o wrote %q (stdout %q), want %q", got, stdout.Bytes(), want)
	}
}

// TestRunRejects: every flag combination the command rejected before
// its flags filled a spec is still rejected, now either by the
// command's own table (flags with no spec field) or by the spec's
// Canonical rules. The last five rows were accepted before and are
// rejected by the spec's value checks now.
func TestRunRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-spec", "testdata/sweep.json", "-ranks", "8"},
		{"-spec", "testdata/sweep.json", "-steps", "8"},
		{"-spec", "testdata/sweep.json", "-texec", "2ms"},
		{"-spec", "testdata/sweep.json", "-delay-rank", "1"},
		{"-spec", "testdata/sweep.json", "-delay-step", "1"},
		{"-spec", "testdata/sweep.json", "-delay", "1ms"},
		{"-spec", "testdata/sweep.json", "-periodic=false"},
		{"-spec", "testdata/sweep.json", "-seed", "1"},
		{"-spec", "testdata/sweep.json", "-E", "0.1"},
		{"-spec", "testdata/sweep.json", "-noise", "exp:0.5"},
		{"-spec", "testdata/sweep.json", "-bytes", "100"},
		{"-spec", "testdata/sweep.json", "-d", "2"},
		{"-spec", "testdata/sweep.json", "-dir", "uni"},
		{"-spec", "testdata/sweep.json", "-topology", "chain:8"},
		{"-spec", "testdata/sweep.json", "-workload", "triad:8"},
		{"-spec", "testdata/sweep.json", "-machine", "meggie"},
		{"-spec", "testdata/sweep.json", "-metrics", "idle"},
		{"-spec", "testdata/sweep.json", "-shards", "2"},
		{"-topology", "chain:8", "-ranks", "8"},
		{"-topology", "chain:8", "-periodic=false"},
		{"-topology", "chain:8", "-periodic"},
		{"-topology", "chain:8", "-d", "2"},
		{"-topology", "chain:8", "-d", "1"},
		{"-topology", "chain:8", "-dir", "uni"},
		{"-workload", "triad:8", "-ranks", "8"},
		{"-workload", "triad:8", "-periodic"},
		{"-workload", "triad:8", "-d", "1"},
		{"-workload", "triad:8", "-dir", "bi"},
		{"-workload", "triad:8", "-topology", "chain:8"},
		{"-workload", "triad:8", "-texec", "3ms"},
		{"-workload", "triad:8", "-bytes", "8192"},
		{"-noise", "exp:0.5", "-E", "0"},
		{"-noise", "exp:0.5", "-E", "0.1"},
		{"-E", "x"},
		{"-bytes", "x"},
		{"-d", "x"},
		{"-dir", "sideways"},
		{"-machine", "deepthought"},
		{"-metrics", "vibes"},
		{"-format", "xml"},
		{"-workload", "warp:8"},
		{"-topology", "blob:9"},
		{"-noise", "loud"},
		{"-spec", "testdata/missing.json"},
		{"-ranks", "x"},
		{"-delay", "0"},
		{"-E", "-0.1"},
		{"-bytes", "0"},
		{"-d", "0"},
		{"-texec", "0"},
		{"-workers", "-1"},
	} {
		if err := run(args, new(bytes.Buffer)); err == nil {
			t.Errorf("%q: accepted", args)
		}
	}
}
