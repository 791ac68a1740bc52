package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/spec"
)

// runJournaled runs ws to completion on a journal-backed manager in
// dir and returns the journal's record stream plus the job's CSV.
func runJournaled(t *testing.T, dir string, ws spec.Sweep) ([]journal.Record, []byte) {
	t.Helper()
	jnl, recs, err := journal.Open(dir, journal.Options{SyncPoints: true})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{Journal: jnl, WorkersPerJob: 1})
	if err := m.Recover(recs); err != nil {
		t.Fatal(err)
	}
	job, err := m.Submit(ws)
	if err != nil {
		t.Fatal(err)
	}
	csv := waitJobCSV(t, job)
	m.Close()
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen read-only to get the final record stream.
	jnl2, all, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	jnl2.Close()
	return all, csv
}

func waitJobCSV(t *testing.T, job *Job) []byte {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !settledState(job.State()) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not settle (state %s)", job.ID, job.State())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if job.State() != StateDone {
		st := job.Status()
		t.Fatalf("job %s settled %s: %+v", job.ID, st.State, st)
	}
	tbl, err := job.Table()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// seedJournal writes recs into a fresh WAL in dir and returns the
// replayed stream, simulating a log left behind by a crashed process.
func seedJournal(t *testing.T, dir string, recs []journal.Record) (*journal.Journal, []journal.Record) {
	t.Helper()
	jnl, _, err := journal.Open(dir, journal.Options{SyncPoints: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := jnl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	jnl2, replayed, err := journal.Open(dir, journal.Options{SyncPoints: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(recs) {
		t.Fatalf("seeded %d records, replayed %d", len(recs), len(replayed))
	}
	return jnl2, replayed
}

// TestRecoveryFullReplay: a journal holding a finished job
// re-materializes it settled — same ID, same table bytes, zero
// re-execution — and re-seeds the whole-sweep cache, so the cache is
// durable across restarts.
func TestRecoveryFullReplay(t *testing.T) {
	leaked := checkGoroutines(t)
	defer leaked()
	recs, wantCSV := runJournaled(t, t.TempDir(), testSpec())

	m := NewManager(Config{})
	defer m.Close()
	if err := m.Recover(recs); err != nil {
		t.Fatal(err)
	}
	job, ok := m.Get("j000001")
	if !ok {
		t.Fatal("recovered job not found under its original ID")
	}
	st := job.Status()
	if st.State != StateDone || !st.Recovered || st.DonePoints != 4 {
		t.Fatalf("recovered job: %+v", st)
	}
	if got := waitJobCSV(t, job); !bytes.Equal(got, wantCSV) {
		t.Errorf("recovered table differs:\n%s\nvs\n%s", got, wantCSV)
	}
	if n := m.pointsComputed.Load(); n != 0 {
		t.Errorf("recovery computed %d points, want 0", n)
	}

	// The whole-sweep cache was re-seeded: the same spec is answered
	// instantly, flagged cached, under a fresh ID past the recovered one.
	again, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached() || again.ID != "j000002" {
		t.Fatalf("post-recovery resubmit: cached=%v id=%s", again.Cached(), again.ID)
	}
}

// TestRecoveryPartialResume: a journal cut off mid-job (the crash
// case) resumes — logged points replay without re-execution, the
// remainder computes fresh, and the finished table is byte-identical
// to the uninterrupted run. The resumed run also completes the log:
// reopening it afterwards reduces to a terminal job.
func TestRecoveryPartialResume(t *testing.T) {
	leaked := checkGoroutines(t)
	defer leaked()
	recs, wantCSV := runJournaled(t, t.TempDir(), testSpec())

	// Keep the submit and the first two point rows — as if the process
	// died mid-sweep.
	var truncated []journal.Record
	points := 0
	for _, rec := range recs {
		switch rec.Kind {
		case journal.KindSubmit:
			truncated = append(truncated, rec)
		case journal.KindPoint:
			if points < 2 {
				truncated = append(truncated, rec)
				points++
			}
		}
	}
	if len(truncated) != 3 {
		t.Fatalf("truncated log has %d records, want 3", len(truncated))
	}

	dir := t.TempDir()
	jnl, replayed := seedJournal(t, dir, truncated)
	defer jnl.Close()
	m := NewManager(Config{Journal: jnl, WorkersPerJob: 1})
	if err := m.Recover(replayed); err != nil {
		t.Fatal(err)
	}
	job, ok := m.Get("j000001")
	if !ok {
		t.Fatal("resumed job not found")
	}
	got := waitJobCSV(t, job)
	if !bytes.Equal(got, wantCSV) {
		t.Errorf("resumed table differs from uninterrupted run:\n%s\nvs\n%s", got, wantCSV)
	}
	if !job.Status().Recovered {
		t.Error("resumed job not flagged recovered")
	}
	if n := m.pointsReplayed.Load(); n != 2 {
		t.Errorf("replayed %d points, want 2", n)
	}
	if n := m.pointsComputed.Load(); n != 2 {
		t.Errorf("computed %d points, want 2 (the unlogged remainder)", n)
	}
	m.Close()
	jnl.Close()

	// The resumed run appended the missing rows and the terminal record:
	// the log now reduces to a finished job.
	check, all, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	check.Close()
	states, err := journal.Reduce(all)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || states[0].Terminal == nil || states[0].Terminal.Kind != journal.KindDone {
		t.Fatalf("completed log did not reduce to a done job: %+v", states)
	}
	if len(states[0].Points) != 4 {
		t.Fatalf("completed log holds %d point rows, want 4", len(states[0].Points))
	}
}

// TestRecoveryDoubleReplay: recovering the same log twice-concatenated
// (duplicate records — exactly what a resume-then-crash produces)
// reduces to the same state as recovering it once.
func TestRecoveryDoubleReplay(t *testing.T) {
	recs, wantCSV := runJournaled(t, t.TempDir(), testSpec())
	doubled := append(append([]journal.Record(nil), recs...), recs...)

	m := NewManager(Config{})
	defer m.Close()
	if err := m.Recover(doubled); err != nil {
		t.Fatal(err)
	}
	job, ok := m.Get("j000001")
	if !ok {
		t.Fatal("job not recovered from doubled log")
	}
	if got := waitJobCSV(t, job); !bytes.Equal(got, wantCSV) {
		t.Errorf("doubled-log recovery differs:\n%s\nvs\n%s", got, wantCSV)
	}
	if len(m.List()) != 1 {
		t.Fatalf("doubled log recovered %d jobs, want 1", len(m.List()))
	}
}

// TestRecoveryTerminalStates: failed and cancelled terminal records
// re-materialize in their terminal states with their error messages.
func TestRecoveryTerminalStates(t *testing.T) {
	ws := testSpec()
	c, err := ws.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	hash, _ := c.Hash()
	encoded, _ := c.Encode()
	header := []string{"noise", "bytes", "t_total"}
	recs := []journal.Record{
		{Kind: journal.KindSubmit, Job: "j000004", Hash: hash, Spec: encoded, Header: header, Total: 4},
		{Kind: journal.KindFailed, Job: "j000004", Error: "deadline exceeded after 1s"},
		{Kind: journal.KindSubmit, Job: "j000007", Hash: hash + "x", Spec: encoded, Header: header, Total: 4},
		{Kind: journal.KindCancelled, Job: "j000007", Error: "canceled"},
	}
	m := NewManager(Config{})
	defer m.Close()
	if err := m.Recover(recs); err != nil {
		t.Fatal(err)
	}
	failed, _ := m.Get("j000004")
	if st := failed.Status(); st.State != StateFailed || st.Error != "deadline exceeded after 1s" || !st.Recovered {
		t.Errorf("failed job recovered as %+v", st)
	}
	cancelled, _ := m.Get("j000007")
	if st := cancelled.Status(); st.State != StateCancelled || st.Error != "canceled" {
		t.Errorf("cancelled job recovered as %+v", st)
	}
	// Fresh IDs continue past the highest recovered one.
	job, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if job.ID != "j000008" {
		t.Errorf("next ID after recovery = %s, want j000008", job.ID)
	}
}

// TestRecoveryRejectedSpec: a journal written before a spec rule
// existed can hold specs the current Canonical rejects. Recovery keeps
// the service up: a finished job re-materializes as logged, an
// unfinished one settles failed with the rejection, and that failure
// is journaled so the log reduces to a closed job.
func TestRecoveryRejectedSpec(t *testing.T) {
	leaked := checkGoroutines(t)
	defer leaked()
	stale := []byte(`{"base":{"topology":"chain:8","boundary":"periodic"}}`)
	if _, err := mustDecode(t, stale).Canonical(); err == nil {
		t.Fatal("fixture spec is accepted; pick one the current rules reject")
	}
	header := []string{"seed", "t_total"}
	dir := t.TempDir()
	jnl, replayed := seedJournal(t, dir, []journal.Record{
		{Kind: journal.KindSubmit, Job: "j000001", Hash: "stale-done", Spec: stale, Header: header, Total: 1},
		{Kind: journal.KindPoint, Job: "j000001", Index: 0, Labels: []string{"42"}, Values: journal.Floats{1.5}},
		{Kind: journal.KindDone, Job: "j000001"},
		{Kind: journal.KindSubmit, Job: "j000002", Hash: "stale-open", Spec: stale, Header: header, Total: 1},
	})
	defer jnl.Close()
	m := NewManager(Config{Journal: jnl, WorkersPerJob: 1})
	if err := m.Recover(replayed); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if !m.Ready() {
		t.Fatal("manager not ready after recovering a rejected spec")
	}
	done, _ := m.Get("j000001")
	if st := done.Status(); st.State != StateDone || st.DonePoints != 1 {
		t.Errorf("finished job recovered as %+v", st)
	}
	open, _ := m.Get("j000002")
	if st := open.Status(); st.State != StateFailed || !strings.Contains(st.Error, "topology replaces boundary") {
		t.Errorf("unfinished job recovered as %+v", st)
	}
	job, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitJobCSV(t, job)
	m.Close()
	jnl.Close()

	check, all, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	check.Close()
	states, err := journal.Reduce(all)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 3 || states[1].Terminal == nil || states[1].Terminal.Kind != journal.KindFailed {
		t.Fatalf("rejected job not closed in the log: %+v", states)
	}
}

func mustDecode(t *testing.T, data []byte) *spec.Sweep {
	t.Helper()
	ws, err := spec.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	return ws
}

// TestReadinessGate: a journal-backed manager rejects work until
// Recover runs — 503 with Retry-After over HTTP, ErrNotReady direct —
// while liveness stays green throughout.
func TestReadinessGate(t *testing.T) {
	dir := t.TempDir()
	jnl, recs, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	m := NewManager(Config{Journal: jnl})
	defer m.Close()
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	if _, err := m.Submit(testSpec()); err != ErrNotReady {
		t.Fatalf("submit before recover: %v, want ErrNotReady", err)
	}
	if code, _ := getBody(t, srv.URL+"/v1/healthz"); code != http.StatusOK {
		t.Errorf("healthz while not ready: %d, want 200 (liveness is not readiness)", code)
	}
	resp, err := http.Get(srv.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("readyz while not ready: %d (Retry-After %q)", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	ws := testSpec()
	body, _ := ws.Encode()
	resp, err = http.Post(srv.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("submit while not ready: %d %s", resp.StatusCode, data)
	}
	var stats Stats
	if _, data := getBody(t, srv.URL+"/v1/stats"); json.Unmarshal(data, &stats) == nil && stats.Ready {
		t.Error("stats reports ready before Recover")
	}

	if err := m.Recover(recs); err != nil {
		t.Fatal(err)
	}
	if code, data := getBody(t, srv.URL+"/v1/readyz"); code != http.StatusOK || !strings.Contains(string(data), "ready") {
		t.Errorf("readyz after recover: %d %s", code, data)
	}
	if _, err := m.Submit(testSpec()); err != nil {
		t.Errorf("submit after recover: %v", err)
	}
}
