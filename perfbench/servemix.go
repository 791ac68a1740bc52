package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	idlewave "repro"
	"repro/internal/journal"
	"repro/internal/serve"
	"repro/internal/spec"
)

// The serve-mix request sequence. Each request is a 2x2 sweep of a
// 48-rank, 60-step scenario. A fixed share of the requests submit a
// spec never seen before; the rest resubmit a past spec chosen
// uniformly, from a pool that outgrows the service's 64-entry sweep
// cache. A new spec reuses a past spec of the same family with one axis
// value replaced, so it shares two of its four points with earlier
// grids and computes exactly two fresh ones: the compute load depends
// on the request count, not on the seed.
const (
	mixRequests    = 2000
	mixNewPercent  = 30
	mixGenPercent  = 25 // of the new specs, those with a gen: workload
	mixFamilies    = 16 // every fourth one is a gen: family
	mixRanks       = 48
	mixSteps       = 60
	mixSampleCheck = 6 // specs re-run directly through idlewave.Sweep
)

// axis1 is every family's first axis: the injected-noise level E.
var mixNoise = []string{"0", "0.005", "0.01", "0.015", "0.02", "0.025", "0.03", "0.035",
	"0.04", "0.045", "0.05", "0.055", "0.06", "0.065", "0.07", "0.075"}

// mixAxis2 is the second axis per family kind.
var mixAxis2 = []spec.Axis{
	{Kind: "seed", Values: []string{"1", "2", "3", "4", "5", "6", "7", "8"}},
	{Kind: "bytes", Values: []string{"1024", "2048", "4096", "8192", "16384", "32768", "65536", "131072"}},
}

type mixFamily struct {
	gen   bool
	base  spec.Scenario
	axis2 spec.Axis
}

func mixFamilyOf(f int) mixFamily {
	// The delay length differs per family, so no two families share a
	// point.
	delay := []spec.Delay{{Rank: mixRanks / 2, Step: 2, Duration: fmt.Sprintf("%dms", 6+f)}}
	if f%4 == 3 {
		return mixFamily{gen: true, axis2: mixAxis2[0], base: spec.Scenario{
			Workload: fmt.Sprintf("gen:%d:steps=%d:phase=exp/3ms:seed=%d", mixRanks, mixSteps, f),
			Delay:    delay,
		}}
	}
	dir := "bi"
	if f%2 == 1 {
		dir = "uni"
	}
	return mixFamily{axis2: mixAxis2[(f/2)%2], base: spec.Scenario{
		Ranks: mixRanks, Steps: mixSteps, Direction: dir, Delay: delay,
	}}
}

// mixSpec is one distinct spec: its family and the chosen value
// indices on both axes.
type mixSpec struct {
	family int
	v1, v2 [2]int
	body   []byte
}

type mixPlan struct {
	specs          []mixSpec
	requests       []int // spec index per request
	distinctPoints int
}

type pointKey struct{ family, a, b int }

// newMixPlan draws the request sequence from the seed.
func newMixPlan(seed uint64) (*mixPlan, error) {
	r := rand.New(rand.NewPCG(seed, 0x5e7e))
	nNew := mixRequests * mixNewPercent / 100
	nGen := nNew * mixGenPercent / 100
	// The first request is always new; the other new ones are spread
	// over the sequence at random.
	isNew := make([]bool, mixRequests)
	for i := 0; i < nNew; i++ {
		isNew[i] = true
	}
	r.Shuffle(mixRequests-1, func(i, j int) { isNew[i+1], isNew[j+1] = isNew[j+1], isNew[i+1] })
	genNew := make([]bool, nNew)
	for i := 0; i < nGen; i++ {
		genNew[i] = true
	}
	r.Shuffle(nNew, func(i, j int) { genNew[i], genNew[j] = genNew[j], genNew[i] })

	p := &mixPlan{}
	seenSpec := map[[5]int]bool{}
	seenPoint := map[pointKey]bool{}
	byFamily := make([][]int, mixFamilies)
	newIdx := 0
	for i := 0; i < mixRequests; i++ {
		if !isNew[i] {
			p.requests = append(p.requests, r.IntN(len(p.specs)))
			continue
		}
		s, ok := p.drawNew(r, genNew[newIdx], byFamily, seenSpec, seenPoint)
		newIdx++
		if !ok {
			return nil, fmt.Errorf("serve-mix: spec space exhausted at request %d", i)
		}
		fam := mixFamilyOf(s.family)
		ws := spec.Sweep{Base: fam.base, Axes: []spec.Axis{
			{Kind: "noise", Values: []string{mixNoise[s.v1[0]], mixNoise[s.v1[1]]}},
			{Kind: fam.axis2.Kind, Values: []string{fam.axis2.Values[s.v2[0]], fam.axis2.Values[s.v2[1]]}},
		}}
		body, err := ws.Encode()
		if err != nil {
			return nil, err
		}
		s.body = body
		seenSpec[[5]int{s.family, s.v1[0], s.v1[1], s.v2[0], s.v2[1]}] = true
		for _, a := range s.v1 {
			for _, b := range s.v2 {
				seenPoint[pointKey{s.family, a, b}] = true
			}
		}
		byFamily[s.family] = append(byFamily[s.family], len(p.specs))
		p.requests = append(p.requests, len(p.specs))
		p.specs = append(p.specs, s)
	}
	p.distinctPoints = len(seenPoint)
	return p, nil
}

// drawNew picks a never-submitted spec: a fresh grid in an unused
// family, or a past spec of a family with one value on one axis
// replaced so that exactly two of its points are new.
func (p *mixPlan) drawNew(r *rand.Rand, gen bool, byFamily [][]int, seenSpec map[[5]int]bool, seenPoint map[pointKey]bool) (mixSpec, bool) {
	var fams []int
	for f := 0; f < mixFamilies; f++ {
		if mixFamilyOf(f).gen == gen {
			fams = append(fams, f)
		}
	}
	r.Shuffle(len(fams), func(i, j int) { fams[i], fams[j] = fams[j], fams[i] })
	for _, f := range fams {
		if len(byFamily[f]) == 0 {
			a := r.Perm(len(mixNoise))
			b := r.Perm(len(mixAxis2[0].Values))
			return mixSpec{family: f, v1: sorted2(a[0], a[1]), v2: sorted2(b[0], b[1])}, true
		}
		for try := 0; try < 32; try++ {
			old := p.specs[byFamily[f][r.IntN(len(byFamily[f]))]]
			s := mixSpec{family: f, v1: old.v1, v2: old.v2}
			axis, slot := r.IntN(2), r.IntN(2)
			if axis == 0 {
				s.v1[slot] = r.IntN(len(mixNoise))
				if s.v1[0] == s.v1[1] {
					continue
				}
				s.v1 = sorted2(s.v1[0], s.v1[1])
			} else {
				s.v2[slot] = r.IntN(len(mixAxis2[0].Values))
				if s.v2[0] == s.v2[1] {
					continue
				}
				s.v2 = sorted2(s.v2[0], s.v2[1])
			}
			if seenSpec[[5]int{f, s.v1[0], s.v1[1], s.v2[0], s.v2[1]}] {
				continue
			}
			fresh := 0
			for _, a := range s.v1 {
				for _, b := range s.v2 {
					if !seenPoint[pointKey{f, a, b}] {
						fresh++
					}
				}
			}
			if fresh == 2 {
				return s, true
			}
		}
	}
	return mixSpec{}, false
}

func sorted2(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// mixRecord is one completed request as the client saw it.
type mixRecord struct {
	job       string
	cached    bool
	latMS     float64
	queueMS   float64 // POST answered → first streamed point
	computeMS float64 // first → last streamed point
	canonUS   float64
	ok        bool
}

// runServeMix serves the plan from an in-process manager with a
// journal, behind serve.Handler on a loopback listener, to two
// closed-loop clients.
func runServeMix(e *childEnv) error {
	plan, err := newMixPlan(e.seed)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.workDir, "serve-mix-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	jnl, recs, err := journal.Open(dir, journal.Options{})
	if err != nil {
		return err
	}
	m := serve.NewManager(serve.Config{MaxJobs: parallelism, WorkersPerJob: parallelism, Journal: jnl})
	if err := m.Recover(recs); err != nil {
		jnl.Close()
		return err
	}
	handlerNs := make([]atomic.Int64, len(plan.requests))
	handler := serve.Handler(m)
	if e.traced {
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t := time.Now()
			inner.ServeHTTP(w, r)
			if i, err := strconv.Atoi(r.Header.Get("X-Bench-Req")); err == nil && i >= 0 && i < len(handlerNs) {
				handlerNs[i].Add(int64(time.Since(t)))
			}
		})
	}
	srv := httptest.NewServer(handler)
	transport := &http.Transport{MaxIdleConnsPerHost: parallelism, DisableCompression: true}
	client := &http.Client{Transport: transport}
	shutdown := func() error {
		srv.Close()
		transport.CloseIdleConnections()
		m.Close()
		return jnl.Close()
	}

	records := make([]mixRecord, len(plan.requests))
	var csvMu sync.Mutex
	csvOf := make([]string, len(plan.specs)) // first CSV digest per spec
	var next atomic.Int64
	var wg sync.WaitGroup

	if err := e.begin(); err != nil {
		shutdown()
		return err
	}
	for c := 0; c < parallelism; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(plan.requests) {
					return
				}
				k := plan.requests[i]
				rec, csv := doRequest(client, srv.URL, i, plan.specs[k].body, e.traced)
				if rec.ok {
					sum := sha256.Sum256(csv)
					d := hex.EncodeToString(sum[:])
					csvMu.Lock()
					if csvOf[k] == "" {
						csvOf[k] = d
					} else if csvOf[k] != d {
						rec.ok = false
					}
					csvMu.Unlock()
				}
				records[i] = rec
			}
		}()
	}
	wg.Wait()
	endErr := e.end()
	stats := m.Stats()
	for i, rec := range records {
		e.res.Attempted++
		if !rec.ok {
			e.res.fail("request %d (spec %d): failed or returned a CSV unlike the first for its spec", i, plan.requests[i])
			continue
		}
		if job, ok := m.Get(rec.job); ok && len(job.Status().FailedPoints) > 0 {
			e.res.fail("request %d: job %s has failed points", i, rec.job)
			continue
		}
		e.res.LatMS = append(e.res.LatMS, rec.latMS)
	}
	if err := shutdown(); err != nil {
		return err
	}
	if endErr != nil {
		return endErr
	}

	// A seeded sample of specs must match a direct run of the library.
	sr := rand.New(rand.NewPCG(e.seed, 0xc5c))
	for _, k := range sr.Perm(len(plan.specs))[:mixSampleCheck] {
		e.res.Attempted++
		if err := checkDirect(plan.specs[k].body, csvOf[k]); err != nil {
			e.res.fail("spec %d: %v", k, err)
		}
	}

	h := sha256.New()
	for _, d := range csvOf {
		io.WriteString(h, d+"\n")
	}
	e.res.Digest = hex.EncodeToString(h.Sum(nil))

	if e.traced {
		traceServeMix(e, plan, records, handlerNs, stats, dir)
	}
	return nil
}

// doRequest runs one client request: POST the spec, read its NDJSON
// stream to the end, GET the CSV.
func doRequest(client *http.Client, base string, i int, body []byte, traced bool) (mixRecord, []byte) {
	var rec mixRecord
	if traced {
		t := time.Now()
		ws, err := spec.Decode(body)
		if err == nil {
			var c spec.Sweep
			if c, err = ws.Canonical(); err == nil {
				_, err = c.Hash()
			}
		}
		rec.canonUS = float64(time.Since(t).Nanoseconds()) / 1e3
		if err != nil {
			return rec, nil
		}
	}
	id := strconv.Itoa(i)
	call := func(method, url string, body []byte) (*http.Response, error) {
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("X-Bench-Req", id)
		return client.Do(req)
	}
	t0 := time.Now()
	resp, err := call("POST", base+"/v1/sweeps", body)
	if err != nil {
		return rec, nil
	}
	var st serve.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		return rec, nil
	}
	rec.job, rec.cached = st.ID, st.Cached
	t1 := time.Now()

	resp, err = call("GET", base+"/v1/sweeps/"+st.ID+"/stream", nil)
	if err != nil {
		return rec, nil
	}
	var first, last time.Time
	done := false
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if bytes.HasPrefix(line, []byte(`{"done"`)) {
				var end struct{ State string }
				done = json.Unmarshal(line, &end) == nil && end.State == string(serve.StateDone)
			} else {
				last = time.Now()
				if first.IsZero() {
					first = last
				}
			}
		}
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	if !done || resp.StatusCode != http.StatusOK || first.IsZero() {
		return rec, nil
	}

	resp, err = call("GET", base+"/v1/sweeps/"+st.ID+"?format=csv", nil)
	if err != nil {
		return rec, nil
	}
	csv, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t2 := time.Now()
	if err != nil || resp.StatusCode != http.StatusOK {
		return rec, nil
	}
	rec.latMS = ms(t2.Sub(t0))
	rec.queueMS = ms(first.Sub(t1))
	rec.computeMS = ms(last.Sub(first))
	rec.ok = true
	return rec, csv
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// checkDirect runs the spec through idlewave.SweepFromSpec and
// idlewave.Sweep and compares the CSV with the served one's digest.
func checkDirect(body []byte, servedDigest string) error {
	ws, err := idlewave.ParseSpec(body)
	if err != nil {
		return err
	}
	ss, err := idlewave.SweepFromSpec(ws)
	if err != nil {
		return err
	}
	tbl, err := idlewave.Sweep(ss)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		return err
	}
	sum := sha256.Sum256(buf.Bytes())
	if d := hex.EncodeToString(sum[:]); d != servedDigest {
		return fmt.Errorf("direct idlewave.Sweep CSV %s differs from the served CSV %s", d[:12], servedDigest)
	}
	return nil
}

// traceServeMix derives the serve-mix layer metrics from the client
// records, the handler timings, the manager's counters and the journal.
func traceServeMix(e *childEnv, plan *mixPlan, records []mixRecord, handlerNs []atomic.Int64, stats serve.Stats, dir string) {
	var canon, overhead, hit, fresh []float64
	var queue, compute float64
	for i, rec := range records {
		canon = append(canon, rec.canonUS)
		overhead = append(overhead, rec.latMS-ms(time.Duration(handlerNs[i].Load())))
		queue += rec.queueMS
		compute += rec.computeMS
		if rec.cached {
			hit = append(hit, rec.latMS)
		} else {
			fresh = append(fresh, rec.latMS)
		}
	}
	n := float64(len(records))
	e.layer("spec.canonical_us", percentile(canon, 50))
	e.layer("http.overhead_ms", percentile(overhead, 50))
	e.layer("serve.queue_wait_ms", queue/n)
	e.layer("serve.compute_ms", compute/n)
	e.layer("serve.hit_p50_ms", percentile(hit, 50))
	e.layer("serve.fresh_p50_ms", percentile(fresh, 50))
	e.layer("cache.sweep_hit_ratio", ratio(stats.SweepCache.Hits, stats.SweepCache.Hits+stats.SweepCache.Misses))
	e.layer("cache.point_hit_ratio", ratio(stats.PointCache.Hits, stats.PointCache.Hits+stats.PointCache.Misses))
	e.layer("serve.dup_compute_ratio", float64(stats.PointsComputed)/float64(plan.distinctPoints))
	e.layer("serve.points_retried", float64(stats.PointsRetried))
	e.layer("serve.points_failed", float64(stats.PointsFailed))
	jnl, recs, err := journal.Open(dir, journal.Options{})
	if err != nil {
		e.res.fail("reopening the journal: %v", err)
		return
	}
	jnl.Close()
	e.layer("journal.records", float64(len(recs)))
	if fi, err := os.Stat(filepath.Join(dir, journal.FileName)); err == nil {
		e.layer("journal.bytes", float64(fi.Size()))
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
