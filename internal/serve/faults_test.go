package serve

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	idlewave "repro"
	"repro/internal/chaos"
	"repro/internal/journal"
	"repro/internal/spec"
)

// fastRetries keeps fault tests quick without changing semantics.
func fastRetries(cfg Config) Config {
	cfg.RetryBase = time.Millisecond
	cfg.RetryCap = 4 * time.Millisecond
	return cfg
}

// TestRetryTransient: every point fails its first two attempts with an
// injected transient error, succeeds on the third — the job still
// completes with the full, byte-identical table, and the retries are
// counted.
func TestRetryTransient(t *testing.T) {
	leaked := checkGoroutines(t)
	defer leaked()
	in := chaos.New(3, chaos.Config{ErrorProb: 1, MaxFaultAttempts: 2})
	m := NewManager(fastRetries(Config{Chaos: in, MaxRetries: 3}))
	defer m.Close()

	ws := testSpec()
	job, err := m.Submit(ws)
	if err != nil {
		t.Fatal(err)
	}
	got := waitJobCSV(t, job)

	direct, err := idlewave.SweepFromSpec(&ws)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := idlewave.Sweep(direct)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := tbl.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("table under faults differs from clean run:\n%s\nvs\n%s", got, want.String())
	}
	if n := m.pointsRetried.Load(); n != 8 {
		t.Errorf("retries = %d, want 8 (2 per point)", n)
	}
	if n := m.pointsFailed.Load(); n != 0 {
		t.Errorf("failed points = %d, want 0", n)
	}
}

// TestPanicIsolation: a panicking point attempt is recovered, retried,
// and never takes down the worker pool or the job.
func TestPanicIsolation(t *testing.T) {
	leaked := checkGoroutines(t)
	defer leaked()
	in := chaos.New(5, chaos.Config{PanicProb: 1, MaxFaultAttempts: 1})
	m := NewManager(fastRetries(Config{Chaos: in, MaxRetries: 2}))
	defer m.Close()

	job, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitJobCSV(t, job)
	if n := m.pointsRetried.Load(); n != 4 {
		t.Errorf("retries = %d, want 4 (each point panics once)", n)
	}
}

// TestPermanentFailure: a point that exhausts its retry budget is
// recorded as a structured per-point failure, the job settles done
// (degraded) with the holes in failed_points — and the degraded result
// is NOT cached, so a resubmission gets a fresh attempt.
func TestPermanentFailure(t *testing.T) {
	leaked := checkGoroutines(t)
	defer leaked()
	// Faults never stop (MaxFaultAttempts far past the retry budget).
	in := chaos.New(7, chaos.Config{ErrorProb: 1, MaxFaultAttempts: 100})
	m := NewManager(fastRetries(Config{Chaos: in, MaxRetries: 1}))
	defer m.Close()
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	st := postSpec(t, srv, testSpec())
	final := waitDone(t, srv, st.ID)
	if final.State != StateDone {
		t.Fatalf("degraded job settled %s, want done: %+v", final.State, final)
	}
	if final.DonePoints != 0 || len(final.FailedPoints) != 4 {
		t.Fatalf("degraded job: %d done, %d failed, want 0 and 4: %+v", final.DonePoints, len(final.FailedPoints), final)
	}
	for i, pe := range final.FailedPoints {
		if pe.Index != i {
			t.Errorf("failed point %d has index %d (want row-major order)", i, pe.Index)
		}
		if pe.Attempts != 2 || !strings.Contains(pe.Error, "retries exhausted") {
			t.Errorf("failed point %d: %+v", i, pe)
		}
	}
	if n := m.pointsFailed.Load(); n != 4 {
		t.Errorf("failed counter = %d, want 4", n)
	}
	// Degraded tables must not poison the cache.
	second := postSpec(t, srv, testSpec())
	if second.Cached {
		t.Error("degraded result was served from the whole-sweep cache")
	}
	waitDone(t, srv, second.ID)
}

// TestDeadline: a job over its wall-clock deadline is stopped and
// settles failed with a deadline error, promptly.
func TestDeadline(t *testing.T) {
	leaked := checkGoroutines(t)
	defer leaked()
	// Chaos delays make each point slow; one worker serializes them, so
	// the 4-point job takes ~800ms against a 50ms deadline.
	in := chaos.New(11, chaos.Config{DelayProb: 1, MaxDelay: 200 * time.Millisecond, MaxFaultAttempts: 1})
	m := NewManager(Config{Chaos: in, WorkersPerJob: 1, DefaultDeadline: 50 * time.Millisecond})
	defer m.Close()

	job, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for !settledState(job.State()) {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("deadline job did not settle (state %s)", job.State())
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := job.Status()
	if st.State != StateFailed || !strings.Contains(st.Error, "deadline exceeded") {
		t.Fatalf("deadline job settled as %+v", st)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline enforcement took %s", elapsed)
	}
}

// TestDeadlineClamp: spec-requested deadlines are clamped by the
// server's MaxDeadline; an unparsable one is rejected at submit.
func TestDeadlineClamp(t *testing.T) {
	m := NewManager(Config{MaxDeadline: 80 * time.Millisecond})
	defer m.Close()
	ws := testSpec()
	ws.Deadline = "10h"
	d, err := m.jobDeadline(mustCanonical(t, ws))
	if err != nil || d != 80*time.Millisecond {
		t.Errorf("clamped deadline = %v (%v), want 80ms", d, err)
	}
	ws.Deadline = "not-a-duration"
	if _, err := m.Submit(ws); err == nil {
		t.Error("unparsable deadline accepted")
	}
}

// TestMemBudgetBackpressure: submissions over the server-wide memory
// budget bounce with a BusyError — 429 + Retry-After over HTTP — and
// the budget frees as jobs settle.
func TestMemBudgetBackpressure(t *testing.T) {
	m := NewManager(Config{MemBudget: 1})
	defer m.Close()
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	_, err := m.Submit(testSpec())
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("submit over budget: %v, want BusyError", err)
	}
	if busy.RetryAfter <= 0 {
		t.Errorf("BusyError carries no Retry-After hint: %+v", busy)
	}

	ws := testSpec()
	body, _ := ws.Encode()
	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Errorf("over-budget submit: %d (Retry-After %q), want 429 with hint",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// A generous budget admits the job, and the charge is released once
	// it settles.
	roomy := NewManager(Config{MemBudget: 1 << 30})
	defer roomy.Close()
	job, err := roomy.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitJobCSV(t, job)
	deadline := time.Now().Add(5 * time.Second)
	for {
		roomy.mu.Lock()
		live := roomy.liveBytes
		roomy.mu.Unlock()
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("budget not released after settle: %d bytes live", live)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMemBudgetCountsWorkloadRanks: a workload spelling that carries
// its own rank count is charged for those ranks, as the base workload
// and on a workload axis alike. An oversized workload bounces with a
// BusyError (429 over HTTP) under a budget that admits the same spec at
// small size, instead of slipping through at the 64-rank floor.
func TestMemBudgetCountsWorkloadRanks(t *testing.T) {
	const (
		small  = "gen:16:steps=6:phase=exp/1ms"
		big    = "gen:20000:steps=6:phase=exp/1ms"
		budget = 8 << 20
	)
	shapes := []struct {
		name string
		spec func(w string) spec.Sweep
	}{
		{"base", func(w string) spec.Sweep {
			return spec.Sweep{
				Base: spec.Scenario{Workload: w, Seed: 1},
				Axes: []spec.Axis{{Kind: "noise", Values: []string{"0", "0.02"}}},
			}
		}},
		{"axis", func(w string) spec.Sweep {
			return spec.Sweep{
				Base: spec.Scenario{Seed: 1},
				Axes: []spec.Axis{{Kind: "workload", Values: []string{"gen:8:steps=6:phase=exp/1ms", w}}},
			}
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			m := NewManager(Config{MemBudget: budget})
			defer m.Close()
			srv := httptest.NewServer(Handler(m))
			defer srv.Close()

			_, err := m.Submit(sh.spec(big))
			var busy *BusyError
			if !errors.As(err, &busy) {
				t.Fatalf("oversized workload submit: %v, want BusyError", err)
			}
			ws := sh.spec(big)
			body, _ := ws.Encode()
			resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Errorf("oversized workload over HTTP: %d, want 429", resp.StatusCode)
			}

			job, err := m.Submit(sh.spec(small))
			if err != nil {
				t.Fatalf("small workload rejected under the same budget: %v", err)
			}
			waitJobCSV(t, job)
		})
	}
}

// TestEstimateCountsWorkloadSteps: a workload's own steps= option is
// charged like a base step count, so every spelling of a 64-rank,
// 100000-step job is estimated at least at 16 bytes per rank-step.
func TestEstimateCountsWorkloadSteps(t *testing.T) {
	const ranks, steps = 64, 100000
	for _, tc := range []struct {
		name string
		c    spec.Sweep
	}{
		{"base steps", spec.Sweep{Base: spec.Scenario{Workload: "triad:64", Steps: steps}}},
		{"workload steps", spec.Sweep{Base: spec.Scenario{Workload: "triad:64:steps=100000"}}},
		{"gen steps", spec.Sweep{Base: spec.Scenario{Workload: "gen:64:steps=100000:phase=exp/1ms"}}},
		{"axis steps", spec.Sweep{Axes: []spec.Axis{{Kind: "workload", Values: []string{"triad:8", "triad:64:steps=100000"}}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got, floor := estimateJobBytes(tc.c, 1, 1, 4), int64(ranks*16*steps); got < floor {
				t.Errorf("estimate %d B, want >= %d B", got, floor)
			}
		})
	}
}

// TestJournalWriteFailuresAreSurvivable: injected journal I/O errors
// are counted but never fail the job — durability degrades, the
// answer does not.
func TestJournalWriteFailuresAreSurvivable(t *testing.T) {
	leaked := checkGoroutines(t)
	defer leaked()
	fail := func(seq int) error {
		if seq%2 == 0 {
			return errors.New("disk on fire")
		}
		return nil
	}
	jnl, recs, err := journal.Open(t.TempDir(), journal.Options{SyncPoints: true, FailWrite: fail})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	m := NewManager(Config{Journal: jnl, WorkersPerJob: 1})
	if err := m.Recover(recs); err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	job, err := m.Submit(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitJobCSV(t, job)
	if n := m.journalErrs.Load(); n == 0 {
		t.Error("no journal errors counted despite injected failures")
	}
	if m.Stats().JournalErrors == 0 {
		t.Error("journal errors not surfaced in stats")
	}
}

func mustCanonical(t *testing.T, ws spec.Sweep) spec.Sweep {
	t.Helper()
	c, err := ws.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return c
}
