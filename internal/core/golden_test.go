package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// renderGolden is the canonical serialization the golden files use: the
// rendered report followed by the machine-readable rows as CSV lines.
func renderGolden(rep *Report) string {
	var b strings.Builder
	b.WriteString(rep.String())
	for _, row := range rep.Data {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestExperimentsMatchGolden pins every registered experiment's report
// byte-identical to its captured output (testdata/<id>.golden, quick
// mode, seed 42). Any change to the workload builders, the simulator,
// the run configuration or the report rendering that alters these bytes
// is a regression, not a cosmetic diff. A newly registered experiment
// fails here until its golden is captured.
func TestExperimentsMatchGolden(t *testing.T) {
	for _, id := range Experiments() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(id, Options{Seed: 42, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			got := renderGolden(rep)
			want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s report differs from golden:\n--- got\n%s\n--- want\n%s",
					id, got, want)
			}
		})
	}
}
