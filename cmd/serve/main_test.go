package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	idlewave "repro"
	"repro/internal/spec"
)

// e2eSpec is sized so one point takes ~150ms: slow enough to kill the
// server mid-sweep deterministically, fast enough for CI.
func e2eSpec() spec.Sweep {
	return spec.Sweep{
		Base: spec.Scenario{Ranks: 64, Steps: 2000, Texec: "1ms", Seed: 1},
		Axes: []spec.Axis{
			{Kind: "noise", Values: []string{"0", "0.01", "0.02", "0.03", "0.04", "0.05"}},
		},
	}
}

type e2eServer struct {
	cmd *exec.Cmd
	url string
}

// waitReady polls /v1/readyz until the server has replayed its journal
// or the deadline passes.
func (s *e2eServer) waitReady(t *testing.T, deadline time.Time) {
	t.Helper()
	for time.Now().Before(deadline) {
		if s.getJSON(t, "/v1/readyz", nil) == http.StatusOK {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// startServer launches the built binary and waits for its listen line.
func startServer(t *testing.T, bin string, args ...string) *e2eServer {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if addr, ok := strings.CutPrefix(line, "serve: listening on "); ok {
				addrCh <- addr
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return &e2eServer{cmd: cmd, url: "http://" + addr}
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		t.Fatal("server did not print its listen address")
		return nil
	}
}

func (s *e2eServer) getJSON(t *testing.T, path string, v any) int {
	t.Helper()
	resp, err := http.Get(s.url + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("GET %s: %v in %s", path, err, data)
		}
	}
	return resp.StatusCode
}

// jobView is the slice of the serve.Status JSON the e2e needs.
type jobView struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Recovered  bool   `json:"recovered"`
	DonePoints int    `json:"done_points"`
	Total      int    `json:"total_points"`
}

// statsView is the slice of /v1/stats the e2e asserts on.
type statsView struct {
	PointsReplayed int64 `json:"points_replayed"`
	PointsComputed int64 `json:"points_computed"`
	PointsFailed   int64 `json:"points_failed"`
}

// TestCrashRecoveryE2E is the paper-trail crash test: start the real
// binary with a journal, kill -9 it mid-sweep, restart on the same
// journal, and require (a) the job resumes under its original ID,
// (b) the finished CSV is byte-identical to an uninterrupted in-process
// run of the same spec, and (c) the stats counters prove the logged
// points were replayed, not re-executed.
func TestCrashRecoveryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e: builds and kills a real server binary")
	}
	bin := filepath.Join(t.TempDir(), "serve-e2e")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	dir := t.TempDir()
	args := []string{
		"-addr", "127.0.0.1:0", "-journal", dir, "-journal-sync",
		"-jobs", "1", "-workers-per-job", "1",
	}

	srv := startServer(t, bin, args...)
	defer srv.cmd.Process.Kill()
	// The server listens before it replays its journal and refuses
	// submissions until then, even when the journal is empty.
	srv.waitReady(t, time.Now().Add(30*time.Second))

	ws := e2eSpec()
	body, err := ws.Encode()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.url+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %d %s", resp.StatusCode, data)
	}
	var job jobView
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}

	// Wait for at least one journaled point, then kill -9 while the
	// sweep is demonstrably mid-flight.
	observedDone := 0
	deadline := time.Now().Add(30 * time.Second)
	for {
		var cur jobView
		srv.getJSON(t, "/v1/sweeps/"+job.ID, &cur)
		if cur.State == "done" {
			t.Fatal("job finished before the kill — spec too fast for the e2e")
		}
		if cur.DonePoints >= 1 {
			observedDone = cur.DonePoints
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no point completed within 30s")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := srv.cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup, no flush
		t.Fatal(err)
	}
	srv.cmd.Wait()

	// Restart on the same journal; the job must resume and finish.
	srv2 := startServer(t, bin, args...)
	defer func() {
		srv2.cmd.Process.Kill()
		srv2.cmd.Wait()
	}()
	srv2.waitReady(t, deadline)
	var cur jobView
	for {
		if srv2.getJSON(t, "/v1/sweeps/"+job.ID, &cur) != http.StatusOK {
			t.Fatalf("job %s lost across restart", job.ID)
		}
		if cur.State == "done" {
			break
		}
		if cur.State == "failed" || cur.State == "cancelled" {
			t.Fatalf("resumed job settled %s", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed job did not finish (state %s, %d/%d points)", cur.State, cur.DonePoints, cur.Total)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !cur.Recovered {
		t.Error("resumed job not flagged recovered")
	}

	// Byte-identity against an uninterrupted in-process run.
	httpResp, err := http.Get(srv2.url + "/v1/sweeps/" + job.ID + "?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	ss, err := idlewave.SweepFromSpec(&ws)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := idlewave.Sweep(ss)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := tbl.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("recovered table differs from uninterrupted run:\n%s\nvs\n%s", got, want.String())
	}

	// Zero re-execution of logged points: everything the first process
	// reported done was journaled (-journal-sync) and replayed, and
	// replayed + computed covers the grid exactly.
	var stats statsView
	srv2.getJSON(t, "/v1/stats", &stats)
	if stats.PointsReplayed < int64(observedDone) {
		t.Errorf("replayed %d points, but %d were already done before the kill", stats.PointsReplayed, observedDone)
	}
	total := int64(cur.Total)
	if stats.PointsReplayed+stats.PointsComputed != total {
		t.Errorf("replayed %d + computed %d != %d total — logged points were re-executed or lost",
			stats.PointsReplayed, stats.PointsComputed, total)
	}
	if stats.PointsFailed != 0 {
		t.Errorf("%d points failed during recovery", stats.PointsFailed)
	}
	fmt.Printf("e2e: killed at %d/%d points, replayed %d, computed %d\n",
		observedDone, cur.Total, stats.PointsReplayed, stats.PointsComputed)
}
