package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	idlewave "repro"
	"repro/internal/chaos"
	"repro/internal/genload"
	"repro/internal/journal"
	"repro/internal/spec"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Config bounds the resources a Manager spends on behalf of its
// clients. The zero value selects the defaults noted per field.
type Config struct {
	// MaxJobs is the number of sweeps that run concurrently; further
	// submissions queue. Default 2.
	MaxJobs int
	// MaxPoints is the per-job point budget: a spec whose grid exceeds
	// it is rejected at submission. 0 means unlimited.
	MaxPoints int
	// WorkersPerJob caps the worker pool each job fans its points
	// across. A spec requesting fewer workers gets fewer; 0 means
	// GOMAXPROCS.
	WorkersPerJob int
	// SweepCache is the whole-sweep result cache capacity in entries.
	// Default 64.
	SweepCache int
	// PointCache is the per-point result cache capacity in entries.
	// Default 4096.
	PointCache int

	// Journal, when non-nil, makes jobs durable: submissions, completed
	// point rows and terminal states are appended to the write-ahead
	// log, and a restarted manager rebuilds from it via Recover. A
	// manager constructed with a Journal starts NOT ready — call
	// Recover (with the records journal.Open returned) to finish
	// startup; Submit rejects work until then.
	Journal *journal.Journal

	// MaxRetries bounds how many times a transiently failing point is
	// retried (so a point runs at most MaxRetries+1 times). Default 3.
	MaxRetries int
	// RetryBase is the first backoff delay; it doubles per attempt up
	// to RetryCap, each delay jittered deterministically from RetrySeed.
	// Defaults 10ms and 1s.
	RetryBase time.Duration
	RetryCap  time.Duration
	// RetrySeed seeds the backoff jitter. The jitter is a pure function
	// of (seed, spec hash, point, attempt), so tests get reproducible
	// schedules. Default 1.
	RetrySeed uint64

	// DefaultDeadline bounds each job's wall-clock run time when its
	// spec does not set one; 0 means unbounded. MaxDeadline, when set,
	// clamps spec-requested deadlines.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration

	// MemBudget caps the estimated bytes of all live (queued + running)
	// jobs; a submission that would exceed it is rejected with a
	// BusyError (HTTP 429 + Retry-After) instead of being allowed to
	// drive the process into the OOM killer. 0 means unlimited. The
	// estimate is the coarse model in estimateJobBytes — a backpressure
	// signal, not an accounting ledger.
	MemBudget int64

	// Chaos injects deterministic faults into point execution and is
	// consulted on every attempt; nil (the default) is a strict no-op.
	// Tests only.
	Chaos *chaos.Injector
}

// State is a job's lifecycle position.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Point is one completed grid point: its row-major index plus the axis
// labels and metric values that form its table row. Values uses the
// journal's NaN-safe encoding: non-finite metrics (legitimate outputs
// — a fit with too little signal is NaN) appear in JSON as the strings
// "NaN", "+Inf" and "-Inf", both on the wire and in the WAL, instead
// of killing the marshal.
type Point struct {
	Index  int            `json:"index"`
	Labels []string       `json:"labels"`
	Values journal.Floats `json:"values"`
}

type cachedSweep struct {
	header []string
	points []Point
}

type cachedPoint struct {
	labels []string
	values []float64
}

var errCanceled = errors.New("canceled")

// ErrNotReady rejects submissions while the manager is still replaying
// its journal; clients should retry shortly (HTTP 503 + Retry-After).
var ErrNotReady = errors.New("serve: replaying journal, not ready")

// Manager owns the jobs, the worker gate and both result caches. All
// methods are safe for concurrent use.
type Manager struct {
	cfg    Config
	sem    chan struct{}
	sweeps *cache[cachedSweep]
	points *cache[cachedPoint]

	mu        sync.Mutex
	jobs      map[string]*Job
	order     []string
	nextID    int
	closed    bool
	liveBytes int64

	ready   atomic.Bool
	closing atomic.Bool

	started        time.Time
	pointsDone     atomic.Int64
	pointsComputed atomic.Int64
	pointsReplayed atomic.Int64
	pointsRetried  atomic.Int64
	pointsFailed   atomic.Int64
	journalErrs    atomic.Int64
	wg             sync.WaitGroup
}

// NewManager builds a Manager with cfg's resource bounds. With a
// Journal configured the manager starts not-ready: call Recover (even
// with nil records) to finish startup.
func NewManager(cfg Config) *Manager {
	if cfg.MaxJobs < 1 {
		cfg.MaxJobs = 2
	}
	if cfg.SweepCache < 1 {
		cfg.SweepCache = 64
	}
	if cfg.PointCache < 1 {
		cfg.PointCache = 4096
	}
	if cfg.MaxRetries < 1 {
		cfg.MaxRetries = 3
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 10 * time.Millisecond
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = time.Second
	}
	if cfg.RetrySeed == 0 {
		cfg.RetrySeed = 1
	}
	m := &Manager{
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.MaxJobs),
		sweeps:  newCache[cachedSweep](cfg.SweepCache),
		points:  newCache[cachedPoint](cfg.PointCache),
		jobs:    make(map[string]*Job),
		started: time.Now(),
	}
	m.ready.Store(cfg.Journal == nil)
	return m
}

// Ready reports whether the manager accepts submissions — false only
// between construction with a Journal and the end of Recover.
func (m *Manager) Ready() bool { return m.ready.Load() }

// Submit validates the spec, registers a job for it and returns
// immediately. A whole-sweep cache hit completes the job before Submit
// returns, flagged Cached; otherwise the job runs in the background as
// the MaxJobs gate allows. Validation failures (bad component
// spellings, unknown axis kinds or metrics) and budget violations are
// reported here, so a job that exists will not fail on spec errors.
func (m *Manager) Submit(ws spec.Sweep) (*Job, error) {
	if !m.ready.Load() {
		return nil, ErrNotReady
	}
	c, err := ws.Canonical()
	if err != nil {
		return nil, err
	}
	hash, err := c.Hash()
	if err != nil {
		return nil, err
	}
	n, err := c.Points()
	if err != nil {
		return nil, err
	}
	if m.cfg.MaxPoints > 0 && n > m.cfg.MaxPoints {
		return nil, &BudgetError{Points: n, Budget: m.cfg.MaxPoints}
	}
	// Build the runnable sweep once up front: this rejects anything the
	// simulator would reject and yields the table header (axis names
	// then metric names, including the implicit seed axis of an axis-
	// free spec).
	ss, err := idlewave.SweepFromSpec(&c)
	if err != nil {
		return nil, err
	}
	header := make([]string, 0, len(ss.Axes)+len(ss.Metrics))
	for _, ax := range ss.Axes {
		header = append(header, ax.Name)
	}
	for _, mt := range ss.Metrics {
		header = append(header, mt.Name)
	}
	encoded, err := c.Encode()
	if err != nil {
		return nil, err
	}
	deadline, err := m.jobDeadline(c)
	if err != nil {
		return nil, err
	}

	// A whole-sweep cache hit costs nothing to serve, so it bypasses
	// the memory budget and the journal: cached jobs are derived state,
	// re-derivable from the original job's journal records.
	if cs, ok := m.sweeps.get(hash); ok {
		job, err := m.register(hash, encoded, header, n, 0, 0)
		if err != nil {
			return nil, err
		}
		job.completeCached(cs)
		return job, nil
	}

	est := estimateJobBytes(c, n, m.jobWorkers(c.Workers, n), len(header))
	job, err := m.register(hash, encoded, header, n, deadline, est)
	if err != nil {
		return nil, err
	}
	m.journalAppend(journal.Record{
		Kind: journal.KindSubmit, Job: job.ID, Hash: hash,
		Spec: encoded, Header: header, Total: n,
	})
	m.wg.Add(1)
	go m.run(job, c)
	return job, nil
}

// register allocates an ID, charges est bytes against the memory
// budget, and indexes the job. est 0 skips budget accounting (cached
// jobs).
func (m *Manager) register(hash string, encoded []byte, header []string, total int, deadline time.Duration, est int64) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errors.New("serve: manager is shut down")
	}
	if est > 0 && m.cfg.MemBudget > 0 && m.liveBytes+est > m.cfg.MemBudget {
		live := 0
		for _, j := range m.jobs {
			if !settledState(j.State()) {
				live++
			}
		}
		retry := time.Duration(live+1) * time.Second
		if retry > 30*time.Second {
			retry = 30 * time.Second
		}
		return nil, &BusyError{EstBytes: est, LiveBytes: m.liveBytes, Budget: m.cfg.MemBudget, RetryAfter: retry}
	}
	m.nextID++
	job := newJob(fmt.Sprintf("j%06d", m.nextID), hash, encoded, header, total)
	job.deadline = deadline
	job.estBytes = est
	m.liveBytes += est
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	return job, nil
}

// releaseJob returns the job's budget charge once it settles.
func (m *Manager) releaseJob(job *Job) {
	if job.estBytes == 0 {
		return
	}
	m.mu.Lock()
	m.liveBytes -= job.estBytes
	job.estBytes = 0
	m.mu.Unlock()
}

// jobDeadline resolves a spec's effective wall-clock deadline against
// the server defaults and clamp.
func (m *Manager) jobDeadline(c spec.Sweep) (time.Duration, error) {
	d := m.cfg.DefaultDeadline
	if c.Deadline != "" {
		parsed, err := time.ParseDuration(c.Deadline)
		if err != nil {
			return 0, fmt.Errorf("serve: deadline: %w", err)
		}
		d = parsed
	}
	if m.cfg.MaxDeadline > 0 && (d == 0 || d > m.cfg.MaxDeadline) {
		d = m.cfg.MaxDeadline
	}
	return d, nil
}

// jobWorkers resolves the effective worker count for a job.
func (m *Manager) jobWorkers(requested, points int) int {
	w := requested
	if w < 1 || (m.cfg.WorkersPerJob > 0 && w > m.cfg.WorkersPerJob) {
		w = m.cfg.WorkersPerJob
	}
	return sweep.Workers(w, points)
}

// BudgetError reports a spec whose grid exceeds the per-job point
// budget.
type BudgetError struct {
	Points int
	Budget int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("serve: sweep has %d points, budget is %d", e.Points, e.Budget)
}

// BusyError reports a submission rejected by the server-wide memory
// budget: the estimated footprint of live jobs plus this one exceeds
// Config.MemBudget. RetryAfter suggests when to try again (the HTTP
// layer forwards it as a Retry-After header with status 429).
type BusyError struct {
	EstBytes   int64
	LiveBytes  int64
	Budget     int64
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("serve: over memory budget (job ~%d B, live ~%d B, budget %d B); retry in %s",
		e.EstBytes, e.LiveBytes, e.Budget, e.RetryAfter)
}

// estimateJobBytes is the memory-budget cost model: a deliberately
// coarse upper-ish bound on a job's resident footprint. Each in-flight
// point simulates a scenario whose live state scales with its rank
// count (sparse engine state plus, for small default-traced runs, the
// rank x step trace), and the finished rows accumulate in the job.
// The model only has to be monotone in the right knobs to make
// backpressure meaningful — it is not an allocator.
func estimateJobBytes(c spec.Sweep, points, workers, cols int) int64 {
	ranks := c.Base.Ranks
	steps := c.Base.Steps
	if steps <= 0 {
		steps = 100
	}
	raise := func(r, s int) {
		ranks = max(ranks, r)
		steps = max(steps, s)
	}
	// A workload without steps= runs the base step count, as
	// ScenarioFromSpec parses it.
	def := workload.Defaults{Steps: c.Base.Steps}
	for _, a := range c.Axes {
		for _, v := range a.Values {
			switch a.Kind {
			case "ranks":
				if n, err := strconv.Atoi(v); err == nil {
					raise(n, 0)
				}
			case "topology":
				raise(topologyRanks(v), 0)
			case "workload":
				raise(workloadShape(v, def))
			}
		}
	}
	raise(topologyRanks(c.Base.Topology), 0)
	raise(workloadShape(c.Base.Workload, def))
	if ranks < 64 {
		ranks = 64
	}
	perPoint := int64(ranks) * (256 + 16*int64(steps))
	rows := int64(points) * int64(cols+1) * 32
	return int64(workers)*perPoint + rows
}

// topologyRanks is the rank count of a topology.Parse spelling, or 0
// when it does not parse (an empty spelling does not).
func topologyRanks(v string) int {
	t, err := topology.Parse(v)
	if err != nil {
		return 0
	}
	return t.Ranks()
}

// workloadShape is the rank count a workload.ParseWith spelling carries
// in its own topology (0 when it declares none) and its step count, or
// zeros when it does not parse.
func workloadShape(v string, def workload.Defaults) (ranks, steps int) {
	w, err := workload.ParseWith(v, def)
	if err != nil {
		return 0, 0
	}
	if t, err := w.Topology(); err == nil && t != nil {
		ranks = t.Ranks()
	}
	return ranks, workloadSteps(w)
}

// workloadSteps is a parsed workload's step count; a mix runs as many
// steps as its longest part.
func workloadSteps(w workload.Workload) int {
	switch w := w.(type) {
	case workload.BulkSync:
		return w.Steps
	case workload.StreamTriad:
		return w.Steps
	case workload.LBM:
		return w.Steps
	case workload.DivideKernel:
		return w.Steps
	case genload.GenWorkload:
		return w.Steps
	case genload.Replay:
		if w.Data != nil {
			return w.Data.Steps
		}
	case genload.JobMix:
		n := 0
		for _, p := range w.Parts {
			n = max(n, workloadSteps(p))
		}
		return n
	}
	return 0
}

// Get returns the job with the given id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List returns all jobs in submission order.
func (m *Manager) List() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Close stops accepting submissions, cancels queued and running jobs
// and waits for them to settle. Jobs interrupted here are NOT given
// terminal journal records — they stay open in the log so a restarted
// server resumes them; only client cancellations settle a job in the
// journal.
func (m *Manager) Close() {
	m.closing.Store(true)
	m.mu.Lock()
	m.closed = true
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
	m.wg.Wait()
}

// journalAppend writes a record if a journal is configured. Append
// failures are counted and swallowed: a lost record degrades
// durability (the work re-executes after a crash, byte-identically),
// never correctness, so a sick disk must not take down live jobs.
func (m *Manager) journalAppend(rec journal.Record) {
	if m.cfg.Journal == nil {
		return
	}
	if err := m.cfg.Journal.Append(rec); err != nil {
		m.journalErrs.Add(1)
	}
}

// pointOutcome is one grid point's result after fault isolation:
// either a row, or a structured permanent failure. replayed marks
// rows/failures answered from journal recovery, which must not be
// re-journaled.
type pointOutcome struct {
	point    Point
	failed   *PointError
	replayed bool
}

// run executes one job: gate on MaxJobs, fan the grid points across a
// worker pool via sweep.MapStream, and resolve every point through
// journal replay → point cache → simulation, with per-point fault
// isolation (recover + classify + retry with backoff). Completed
// points stream into the job in row-major order, so pollers and the
// NDJSON stream see a deterministic prefix of the final table at all
// times, and the journal records them in exactly that order.
func (m *Manager) run(job *Job, c spec.Sweep) {
	defer m.wg.Done()
	defer m.releaseJob(job)
	select {
	case m.sem <- struct{}{}:
	case <-job.cancelCh:
		m.settleStopped(job)
		return
	}
	defer func() { <-m.sem }()
	if job.Canceled() {
		m.settleStopped(job)
		return
	}
	job.start()

	dims := make([]int, len(c.Axes))
	for i, a := range c.Axes {
		dims[i] = len(a.Values)
	}
	grid, err := sweep.NewGrid(dims...)
	if err != nil {
		job.fail(err.Error())
		m.journalAppend(journal.Record{Kind: journal.KindFailed, Job: job.ID, Error: err.Error()})
		return
	}
	workers := c.Workers
	if workers < 1 || (m.cfg.WorkersPerJob > 0 && workers > m.cfg.WorkersPerJob) {
		workers = m.cfg.WorkersPerJob
	}
	_, err = sweep.MapStream(workers, grid.Size(), func(i int) (pointOutcome, error) {
		return m.executePoint(job, c, grid, i)
	}, func(i int, out pointOutcome, err error) {
		if err != nil {
			return // cancellation: the job settles below
		}
		if out.failed != nil {
			job.appendFailed(*out.failed)
			m.pointsFailed.Add(1)
			if !out.replayed {
				m.journalAppend(journal.Record{
					Kind: journal.KindPointFailed, Job: job.ID,
					Index: out.failed.Index, Error: out.failed.Error, Attempts: out.failed.Attempts,
				})
			}
			return
		}
		job.append(out.point)
		m.pointsDone.Add(1)
		if !out.replayed {
			m.journalAppend(journal.Record{
				Kind: journal.KindPoint, Job: job.ID,
				Index: out.point.Index, Labels: out.point.Labels, Values: out.point.Values,
			})
		}
	})
	if err != nil {
		m.settleStopped(job)
		return
	}
	failed := job.FailedPoints()
	job.finish()
	m.journalAppend(journal.Record{Kind: journal.KindDone, Job: job.ID, Failed: len(failed)})
	if len(failed) == 0 {
		// Degraded (partial) tables are never cached: a failed point may
		// have been environmental, and a resubmission deserves a fresh
		// attempt rather than a replay of the holes.
		m.sweeps.put(job.Hash, cachedSweep{header: job.Header(), points: job.PointsDone(0)})
	}
}

// settleStopped resolves a stop request into the job's terminal state:
// deadline expiry fails the job, a client cancel cancels it, and a
// manager shutdown cancels it in-memory but leaves the journal open so
// a restart resumes the job instead of abandoning it.
func (m *Manager) settleStopped(job *Job) {
	switch {
	case job.DeadlineExceeded():
		msg := fmt.Sprintf("deadline exceeded after %s", job.deadline)
		job.fail(msg)
		m.journalAppend(journal.Record{Kind: journal.KindFailed, Job: job.ID, Error: msg})
	case m.closing.Load():
		job.cancel("server shutting down")
	default:
		job.cancel(errCanceled.Error())
		m.journalAppend(journal.Record{Kind: journal.KindCancelled, Job: job.ID, Error: errCanceled.Error()})
	}
}

// transientTagged is the capability errors opt into to be retried.
type transientTagged interface{ Transient() bool }

// isTransient classifies an error for the retry loop. Anything tagged
// Transient() (chaos injections, panics) retries under the backoff
// budget; everything else — spec slicing, hashing, simulator
// validation — is deterministic in the point's identity and therefore
// permanent: retrying it would burn the budget to learn nothing.
func isTransient(err error) bool {
	var t transientTagged
	return errors.As(err, &t) && t.Transient()
}

// panicError wraps a recovered panic. Panics are classified transient:
// an environmental cause (chaos injection, resource exhaustion) is
// indistinguishable from a deterministic one at the recovery site, and
// the retry budget bounds the cost of guessing wrong — a deterministic
// panic re-fires on every retry and converges to a structured
// permanent per-point failure.
type panicError struct{ msg string }

func (e *panicError) Error() string   { return "panic: " + e.msg }
func (e *panicError) Transient() bool { return true }

// executePoint resolves one grid point with fault isolation: journal
// replay first, then up to 1+MaxRetries attempts of the cache/simulate
// path, transient failures backed off exponentially with deterministic
// jitter, permanent failures returned as structured PointErrors. Only
// cancellation surfaces as an error.
func (m *Manager) executePoint(job *Job, c spec.Sweep, grid sweep.Grid, i int) (pointOutcome, error) {
	if p, ok := job.replayPoint(i); ok {
		m.pointsReplayed.Add(1)
		return pointOutcome{point: p, replayed: true}, nil
	}
	if pe, ok := job.replayFailed[i]; ok {
		// The journal already recorded this point's permanent failure;
		// recovery reproduces the uninterrupted run's outcome, it does
		// not relitigate it.
		m.pointsReplayed.Add(1)
		return pointOutcome{failed: &pe, replayed: true}, nil
	}
	for attempt := 0; ; attempt++ {
		if job.Canceled() {
			return pointOutcome{}, errCanceled
		}
		p, err := m.tryPoint(job, c, grid, i, attempt)
		if err == nil {
			return pointOutcome{point: p}, nil
		}
		if errors.Is(err, errCanceled) {
			return pointOutcome{}, errCanceled
		}
		if !isTransient(err) {
			return pointOutcome{failed: &PointError{Index: i, Error: err.Error(), Attempts: attempt + 1}}, nil
		}
		if attempt >= m.cfg.MaxRetries {
			return pointOutcome{failed: &PointError{
				Index:    i,
				Error:    fmt.Sprintf("retries exhausted: %v", err),
				Attempts: attempt + 1,
			}}, nil
		}
		m.pointsRetried.Add(1)
		if !m.backoff(job, i, attempt) {
			return pointOutcome{}, errCanceled
		}
	}
}

// backoff sleeps the capped-exponential, jittered delay for the given
// attempt, returning false if the job was stopped mid-sleep. The delay
// is base·2^attempt capped at RetryCap, then jittered into
// [d/2, d): deterministic in (RetrySeed, spec hash, point, attempt) so
// test schedules reproduce exactly.
func (m *Manager) backoff(job *Job, i, attempt int) bool {
	d := m.cfg.RetryBase << uint(attempt)
	if d > m.cfg.RetryCap || d <= 0 {
		d = m.cfg.RetryCap
	}
	frac := jitterFrac(m.cfg.RetrySeed, job.Hash, i, attempt)
	d = d/2 + time.Duration(frac*float64(d/2))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-job.cancelCh:
		return false
	}
}

// jitterFrac maps (seed, hash, point, attempt) to a uniform [0,1)
// fraction — the same splitmix64 finalizer the chaos injector uses, so
// backoff schedules are scheduling-independent.
func jitterFrac(seed uint64, hash string, i, attempt int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d", hash, i, attempt)
	x := h.Sum64() ^ seed
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// tryPoint runs one attempt of one point under recover(): chaos faults
// first (tests only; nil injector is free), then the per-point cache,
// then the simulator. A panic anywhere inside — simulator, metric
// extraction, cache plumbing — becomes an error on this attempt
// instead of killing the worker pool.
func (m *Manager) tryPoint(job *Job, c spec.Sweep, grid sweep.Grid, i, attempt int) (p Point, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{msg: fmt.Sprint(r)}
		}
	}()
	if f := m.cfg.Chaos.Point(job.Hash, i, attempt); f.Delay > 0 || f.Panic || f.Err != nil {
		if f.Delay > 0 {
			timer := time.NewTimer(f.Delay)
			select {
			case <-timer.C:
			case <-job.cancelCh:
				timer.Stop()
				return Point{}, errCanceled
			}
		}
		if f.Panic {
			panic(f.Msg)
		}
		if f.Err != nil {
			return Point{}, f.Err
		}
	}
	sl, err := c.Slice(grid.Coords(i))
	if err != nil {
		return Point{}, err
	}
	key, err := sl.Hash()
	if err != nil {
		return Point{}, err
	}
	if cp, ok := m.points.get(key); ok {
		return Point{Index: i, Labels: cp.labels, Values: journal.Floats(cp.values)}, nil
	}
	ss, err := idlewave.SweepFromSpec(&sl)
	if err != nil {
		return Point{}, err
	}
	tbl, err := idlewave.Sweep(ss)
	if err != nil {
		return Point{}, err
	}
	if len(tbl.Points) != 1 {
		return Point{}, fmt.Errorf("serve: point slice produced %d rows", len(tbl.Points))
	}
	pt := tbl.Points[0]
	m.points.put(key, cachedPoint{labels: pt.Labels, values: pt.Values})
	m.pointsComputed.Add(1)
	return Point{Index: i, Labels: pt.Labels, Values: journal.Floats(pt.Values)}, nil
}

// Recover rebuilds the manager from a replayed journal record stream
// and then marks it ready. Jobs with a terminal record re-materialize
// fully settled (done jobs re-seed the whole-sweep cache, so the cache
// is durable across restarts); jobs without one resume: they re-enter
// the run queue with their logged point rows preloaded, the run loop
// answers those indexes from the log without re-executing, and the
// simulator's determinism contract makes the completed table
// byte-identical to an uninterrupted run. Recover is idempotent in the
// journal: replaying a log twice (or a log with duplicate rows from a
// prior resume) reduces to the same state.
func (m *Manager) Recover(recs []journal.Record) error {
	defer m.ready.Store(true)
	states, err := journal.Reduce(recs)
	if err != nil {
		return err
	}
	var resume []*Job
	var resumeSpecs []spec.Sweep
	maxID := 0
	for _, js := range states {
		rec := js.Submit
		ws, err := spec.Decode(rec.Spec)
		if err != nil {
			return fmt.Errorf("serve: recovering job %s: %w", rec.Job, err)
		}
		if n := idNumber(rec.Job); n > maxID {
			maxID = n
		}
		job := newJob(rec.Job, rec.Hash, rec.Spec, rec.Header, rec.Total)
		job.recovered = true
		failed := make([]PointError, 0, len(js.FailedPoints))
		for _, fr := range js.FailedPoints {
			failed = append(failed, PointError{Index: fr.Index, Error: fr.Error, Attempts: fr.Attempts})
		}

		// A journal may hold specs an older build accepted that the
		// current rules reject: an unfinished one settles failed with
		// the rejection instead of keeping the service down.
		c, cerr := ws.Canonical()
		if js.Terminal == nil && cerr != nil {
			js.Terminal = &journal.Record{Kind: journal.KindFailed, Job: rec.Job, Error: cerr.Error()}
			m.journalAppend(*js.Terminal)
		}
		if js.Terminal != nil {
			points := sortedPoints(js.Points)
			var state State
			switch js.Terminal.Kind {
			case journal.KindDone:
				state = StateDone
			case journal.KindFailed:
				state = StateFailed
			default:
				state = StateCancelled
			}
			job.completeRecovered(state, js.Terminal.Error, points, failed)
			if state == StateDone && len(failed) == 0 && len(points) == rec.Total {
				m.sweeps.put(rec.Hash, cachedSweep{header: job.Header(), points: points})
			}
		} else {
			deadline, derr := m.jobDeadline(c)
			if derr != nil {
				deadline = m.cfg.DefaultDeadline
			}
			job.deadline = deadline
			job.replay = make(map[int]Point, len(js.Points))
			for idx, pr := range js.Points {
				job.replay[idx] = Point{Index: pr.Index, Labels: pr.Labels, Values: pr.Values}
			}
			job.replayFailed = make(map[int]PointError, len(failed))
			for _, pe := range failed {
				job.replayFailed[pe.Index] = pe
			}
			job.estBytes = estimateJobBytes(c, rec.Total, m.jobWorkers(c.Workers, rec.Total), len(rec.Header))
			resume = append(resume, job)
			resumeSpecs = append(resumeSpecs, c)
		}

		m.mu.Lock()
		m.jobs[job.ID] = job
		m.order = append(m.order, job.ID)
		m.liveBytes += job.estBytes
		m.mu.Unlock()
	}
	m.mu.Lock()
	if maxID > m.nextID {
		m.nextID = maxID
	}
	m.mu.Unlock()
	for i, job := range resume {
		m.wg.Add(1)
		go m.run(job, resumeSpecs[i])
	}
	return nil
}

// idNumber parses the numeric suffix of a jNNNNNN job id (0 when the
// id has another shape — foreign journals still recover, with fresh
// ids allocated past 0).
func idNumber(id string) int {
	s := strings.TrimPrefix(id, "j")
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0
	}
	return n
}

// sortedPoints flattens a recovered index→record map into index order.
func sortedPoints(points map[int]journal.Record) []Point {
	idxs := make([]int, 0, len(points))
	for i := range points {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	out := make([]Point, 0, len(idxs))
	for _, i := range idxs {
		pr := points[i]
		out = append(out, Point{Index: pr.Index, Labels: pr.Labels, Values: pr.Values})
	}
	return out
}

// Stats is the /v1/stats payload: job counts by state, both caches'
// counters, journal/recovery health, and point throughput since the
// manager started.
type Stats struct {
	UptimeSec  float64       `json:"uptime_sec"`
	Ready      bool          `json:"ready"`
	Jobs       map[State]int `json:"jobs"`
	SweepCache CacheStats    `json:"sweep_cache"`
	PointCache CacheStats    `json:"point_cache"`
	// PointsDone counts rows delivered to jobs; PointsComputed counts
	// fresh simulations; PointsReplayed counts rows (and recorded
	// failures) answered from the journal after a restart — the crash-
	// recovery e2e asserts replayed + computed covers the grid with
	// zero re-execution of logged points.
	PointsDone     int64   `json:"points_done"`
	PointsComputed int64   `json:"points_computed"`
	PointsReplayed int64   `json:"points_replayed"`
	PointsRetried  int64   `json:"points_retried"`
	PointsFailed   int64   `json:"points_failed"`
	JournalErrors  int64   `json:"journal_errors"`
	LiveBytes      int64   `json:"live_bytes,omitempty"`
	MemBudget      int64   `json:"mem_budget,omitempty"`
	PointsPerSec   float64 `json:"points_per_sec"`
}

// Stats snapshots the manager's counters.
func (m *Manager) Stats() Stats {
	s := Stats{
		Ready: m.ready.Load(),
		Jobs: map[State]int{
			StateQueued: 0, StateRunning: 0, StateDone: 0, StateFailed: 0, StateCancelled: 0,
		},
		SweepCache:     m.sweeps.stats(),
		PointCache:     m.points.stats(),
		PointsDone:     m.pointsDone.Load(),
		PointsComputed: m.pointsComputed.Load(),
		PointsReplayed: m.pointsReplayed.Load(),
		PointsRetried:  m.pointsRetried.Load(),
		PointsFailed:   m.pointsFailed.Load(),
		JournalErrors:  m.journalErrs.Load(),
		MemBudget:      m.cfg.MemBudget,
	}
	m.mu.Lock()
	for _, j := range m.jobs {
		s.Jobs[j.State()]++
	}
	s.LiveBytes = m.liveBytes
	m.mu.Unlock()
	s.UptimeSec = time.Since(m.started).Seconds()
	if s.UptimeSec > 0 {
		s.PointsPerSec = float64(s.PointsDone) / s.UptimeSec
	}
	return s
}
