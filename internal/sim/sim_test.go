package sim

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestClockAdvances(t *testing.T) {
	var e Engine
	var times []Time
	e.Schedule(2, func() { times = append(times, e.Now()) })
	e.Schedule(1, func() { times = append(times, e.Now()) })
	e.Schedule(3, func() { times = append(times, e.Now()) })
	end := e.Run()
	if end != 3 {
		t.Errorf("final time = %v, want 3", end)
	}
	want := []Time{1, 2, 3}
	for i, w := range want {
		if times[i] != w {
			t.Errorf("event %d at %v, want %v", i, times[i], w)
		}
	}
}

func TestFIFOTieBreaking(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events ran out of insertion order: %v", order)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	var e Engine
	var hit Time
	e.Schedule(10, func() {
		e.After(5, func() { hit = e.Now() })
	})
	e.Run()
	if hit != 15 {
		t.Errorf("After fired at %v, want 15", hit)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var e Engine
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	e.Run()
}

func TestScheduleNaNPanics(t *testing.T) {
	nan := Time(math.NaN())
	for name, schedule := range map[string]func(e *Engine){
		"Schedule":     func(e *Engine) { e.Schedule(nan, func() {}) },
		"ScheduleCall": func(e *Engine) { e.ScheduleCall(nan, nopCall, nil) },
		"After":        func(e *Engine) { e.After(nan, func() {}) },
		"AfterCall":    func(e *Engine) { e.AfterCall(nan, nopCall, nil) },
	} {
		var e Engine
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s at NaN did not panic", name)
				}
			}()
			schedule(&e)
		}()
		if e.Pending() != 0 || e.Now() != 0 {
			t.Errorf("%s at NaN left Pending=%d Now=%v, want 0, 0", name, e.Pending(), e.Now())
		}
	}
}

func TestScheduleNilPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Error("nil fn did not panic")
		}
	}()
	e.Schedule(1, nil)
}

func TestNegativeAfterPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestCancel(t *testing.T) {
	var e Engine
	ran := false
	ev := e.Schedule(1, func() { ran = true })
	e.Cancel(ev)
	e.Run()
	if ran {
		t.Error("cancelled event executed")
	}
	if !ev.Cancelled() {
		t.Error("event not marked cancelled")
	}
	// Double cancel and nil cancel are no-ops.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestCancelFromHandler(t *testing.T) {
	var e Engine
	ran := false
	victim := e.Schedule(2, func() { ran = true })
	e.Schedule(1, func() { e.Cancel(victim) })
	e.Run()
	if ran {
		t.Error("event cancelled by earlier handler still executed")
	}
}

func TestRunUntil(t *testing.T) {
	var e Engine
	var ran []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		e.Schedule(at, func() { ran = append(ran, at) })
	}
	e.RunUntil(3)
	if len(ran) != 3 {
		t.Fatalf("RunUntil(3) executed %d events, want 3", len(ran))
	}
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if len(ran) != 5 {
		t.Errorf("after Run, executed %d events total, want 5", len(ran))
	}
}

func TestStep(t *testing.T) {
	var e Engine
	count := 0
	e.Schedule(1, func() { count++ })
	e.Schedule(2, func() { count++ })
	if !e.Step() {
		t.Fatal("Step returned false with events pending")
	}
	if count != 1 {
		t.Fatalf("after one Step, count = %d", count)
	}
	if !e.Step() {
		t.Fatal("second Step returned false")
	}
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestExecutedCounter(t *testing.T) {
	var e Engine
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Executed() != 7 {
		t.Errorf("Executed = %d, want 7", e.Executed())
	}
}

func TestHandlersCanSchedule(t *testing.T) {
	var e Engine
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.After(1, recurse)
		}
	}
	e.Schedule(0, recurse)
	end := e.Run()
	if depth != 100 {
		t.Errorf("chain depth = %d, want 100", depth)
	}
	if end != 99 {
		t.Errorf("end time = %v, want 99", end)
	}
}

func TestReentrantRunPanics(t *testing.T) {
	var e Engine
	e.Schedule(1, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Run did not panic")
			}
		}()
		e.Run()
	})
	e.Run()
}

func TestTimeConversions(t *testing.T) {
	if Micro(3).Micros() != 3 {
		t.Errorf("Micro/Micros roundtrip: %v", Micro(3).Micros())
	}
	if Milli(3).Millis() != 3 {
		t.Errorf("Milli/Millis roundtrip: %v", Milli(3).Millis())
	}
	if Seconds(1) != 1 {
		t.Errorf("Seconds(1) = %v", Seconds(1))
	}
	if Milli(1) != Micro(1000) {
		t.Errorf("1ms != 1000us")
	}
}

// Property: with random schedule times, events always execute in
// non-decreasing time order and every live event executes exactly once.
func TestExecutionOrderProperty(t *testing.T) {
	r := rng.New(17)
	f := func(n uint8) bool {
		var e Engine
		total := int(n%100) + 1
		var executed []Time
		scheduled := make([]Time, total)
		for i := 0; i < total; i++ {
			at := Time(r.Float64() * 100)
			scheduled[i] = at
			e.Schedule(at, func() { executed = append(executed, e.Now()) })
		}
		e.Run()
		if len(executed) != total {
			return false
		}
		sort.Slice(scheduled, func(i, j int) bool { return scheduled[i] < scheduled[j] })
		for i := range executed {
			if executed[i] != scheduled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: cancelling a random subset executes exactly the complement.
func TestCancellationProperty(t *testing.T) {
	r := rng.New(18)
	f := func(n uint8) bool {
		var e Engine
		total := int(n%60) + 2
		events := make([]*Event, total)
		ran := make([]bool, total)
		for i := 0; i < total; i++ {
			i := i
			events[i] = e.Schedule(Time(r.Float64()*50), func() { ran[i] = true })
		}
		cancelled := make([]bool, total)
		for i := 0; i < total/2; i++ {
			k := r.Intn(total)
			e.Cancel(events[k])
			cancelled[k] = true
		}
		e.Run()
		for i := range ran {
			if ran[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		var e Engine
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(r.Float64()), func() {})
		}
		e.Run()
	}
}

// orderRef is one event of the reference queue checkEngineOrder runs
// beside the engine: a plain list popped by linear scan for the least
// (at, seq), with the engine's lazy-cancel and pop rules.
type orderRef struct {
	id     int
	at     Time
	seq    uint64
	dead   bool
	spawn  bool // the handler schedules a child spawnD later
	spawnD Time
}

// orderProbe is the engine-side action of one event: it records its id
// and schedules its child, if any, the way the reference does.
type orderProbe struct {
	c      *orderCheck
	id     int
	spawn  bool
	spawnD Time
}

// childID names the child an event schedules from its handler; children
// never spawn, so ids stay unique.
const childID = 1 << 20

type orderCheck struct {
	e       Engine
	handles map[int]*Event
	ran     []int // ids in engine execution order

	queue []*orderRef // reference: queued events, live or cancelled
	all   []*orderRef // reference: every event ever scheduled
	now   Time
	seq   uint64
	want  []int // ids in reference execution order
}

func orderCall(arg any) {
	p := arg.(*orderProbe)
	c := p.c
	c.ran = append(c.ran, p.id)
	if p.spawn {
		child := &orderProbe{c: c, id: p.id + childID}
		c.handles[child.id] = c.e.ScheduleCall(c.e.Now()+p.spawnD, orderCall, child)
	}
}

// schedule enqueues one event on both sides.
func (c *orderCheck) schedule(id int, at Time, spawn bool, spawnD Time) {
	c.handles[id] = c.e.ScheduleCall(at, orderCall, &orderProbe{c: c, id: id, spawn: spawn, spawnD: spawnD})
	c.push(id, at, spawn, spawnD)
}

func (c *orderCheck) push(id int, at Time, spawn bool, spawnD Time) {
	r := &orderRef{id: id, at: at, seq: c.seq, spawn: spawn, spawnD: spawnD}
	c.seq++
	c.queue = append(c.queue, r)
	c.all = append(c.all, r)
}

// head returns the index of the least queued (at, seq), or -1.
func (c *orderCheck) head() int {
	best := -1
	for i, r := range c.queue {
		if best < 0 || r.at < c.queue[best].at || (r.at == c.queue[best].at && r.seq < c.queue[best].seq) {
			best = i
		}
	}
	return best
}

func (c *orderCheck) pop(i int) *orderRef {
	r := c.queue[i]
	c.queue = append(c.queue[:i], c.queue[i+1:]...)
	return r
}

// runUntil is the reference RunUntil: pop every event at or before
// limit, executing the live ones.
func (c *orderCheck) runUntil(limit Time) {
	for c.runOne(limit) {
	}
}

// runOne pops the least queued event if it is due by limit, and
// executes it unless it was cancelled.
func (c *orderCheck) runOne(limit Time) bool {
	i := c.head()
	if i < 0 || c.queue[i].at > limit {
		return false
	}
	r := c.pop(i)
	if !r.dead {
		c.now = r.at
		c.want = append(c.want, r.id)
		if r.spawn {
			c.push(r.id+childID, c.now+r.spawnD, false, 0)
		}
	}
	return true
}

// step is the reference Step: execute the first live event.
func (c *orderCheck) step() bool {
	at, ok := c.nextEventTime()
	if ok {
		c.runOne(at) // the head is live after nextEventTime
	}
	return ok
}

// nextEventTime is the reference NextEventTime: discard cancelled heads.
func (c *orderCheck) nextEventTime() (Time, bool) {
	for {
		i := c.head()
		if i < 0 {
			return 0, false
		}
		if !c.queue[i].dead {
			return c.queue[i].at, true
		}
		c.pop(i)
	}
}

// checkEngineOrder decodes ops into a sequence of schedules (at the
// clock, at a queued time, binades apart, one ULP ahead, or between the
// clock and a head the engine already looked at), cancels, RunUntil,
// NextEventTime and Step calls. It applies each to an Engine and to the
// reference queue and requires the same executed ids, clock, Pending
// and NextEventTime after every op, and finally that the executed order
// is the live events stably sorted by (at, seq).
func checkEngineOrder(t testing.TB, ops []byte) {
	if len(ops) > 4096 {
		ops = ops[:4096]
	}
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	// binade spans 2^-40 .. 2^23 seconds.
	binade := func(b int) Time { return Time(math.Ldexp(1+float64(next())/256, b%64-40)) }
	c := &orderCheck{handles: map[int]*Event{}}
	peeked := Time(-1) // a head the engine looked at beyond the clock
	for id := 0; len(ops) > 0; {
		now := c.e.Now()
		switch next() % 6 {
		case 0, 1: // schedule
			at := now
			m := next()
			switch m % 5 {
			case 1:
				if len(c.queue) > 0 {
					at = c.queue[next()%len(c.queue)].at
				}
			case 2:
				at = now + binade(next())
			case 3:
				if peeked > now {
					at = now + (peeked-now)*Time(next())/256
				}
			case 4:
				if now == 0 && m&8 != 0 {
					at = Time(math.Copysign(0, -1))
				} else {
					at = Time(math.Nextafter(float64(now), math.Inf(1)))
				}
			}
			// A burst of equal times spans several queue chunks.
			n := 1
			if m&0x80 != 0 {
				n += next()
			}
			for ; n > 0; n-- {
				s := next()
				spawnD := Time(0)
				if s&2 != 0 {
					spawnD = binade(s >> 2)
				}
				c.schedule(id, at, s&1 != 0, spawnD)
				id++
			}
		case 2: // cancel any queued event, possibly a cancelled one
			if len(c.queue) > 0 {
				r := c.queue[next()%len(c.queue)]
				r.dead = true
				c.e.Cancel(c.handles[r.id])
			}
		case 3: // RunUntil
			limit := Infinity
			switch next() % 4 {
			case 0:
				limit = now + binade(next())
			case 1:
				if len(c.queue) > 0 {
					limit = c.queue[next()%len(c.queue)].at
				}
			case 2:
				limit = now
			}
			c.e.RunUntil(limit)
			c.runUntil(limit)
			if i := c.head(); i >= 0 {
				peeked = c.queue[i].at
			}
		case 4: // NextEventTime
			got, gok := c.e.NextEventTime()
			want, wok := c.nextEventTime()
			if got != want || gok != wok {
				t.Fatalf("NextEventTime = %v, %v; reference %v, %v", got, gok, want, wok)
			}
			if wok {
				peeked = want
			}
		case 5: // Step
			if got, want := c.e.Step(), c.step(); got != want {
				t.Fatalf("Step = %v, reference %v", got, want)
			}
		}
		if !slices.Equal(c.ran, c.want) {
			t.Fatalf("executed %v, reference %v", c.ran, c.want)
		}
		if c.e.Now() != c.now || c.e.Pending() != len(c.queue) {
			t.Fatalf("Now=%v Pending=%d, reference Now=%v Pending=%d", c.e.Now(), c.e.Pending(), c.now, len(c.queue))
		}
	}
	c.e.Run()
	c.runUntil(Infinity)
	if !slices.Equal(c.ran, c.want) || c.e.Pending() != 0 {
		t.Fatalf("drained %v (Pending %d), reference %v", c.ran, c.e.Pending(), c.want)
	}
	var live []*orderRef
	for _, r := range c.all {
		if !r.dead {
			live = append(live, r)
		}
	}
	sort.SliceStable(live, func(i, j int) bool {
		if live[i].at != live[j].at {
			return live[i].at < live[j].at
		}
		return live[i].seq < live[j].seq
	})
	for i, r := range live {
		if c.ran[i] != r.id {
			t.Fatalf("executed order %v is not the (at, seq) order of the live events", c.ran)
		}
	}
}

// Property: random interleavings of schedules, cancels, RunUntil,
// NextEventTime and Step execute exactly the live events, in (at, seq)
// order, including schedules behind a head the engine already peeked.
func TestEngineOrderMatchesReference(t *testing.T) {
	r := rng.New(19)
	for i := 0; i < 400; i++ {
		ops := make([]byte, 1+r.Intn(600))
		for j := range ops {
			ops[j] = byte(r.Uint64())
		}
		checkEngineOrder(t, ops)
	}
}

func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 5, 7, 3, 3, 4, 0, 3, 0, 9, 4, 5})
	f.Add([]byte{0, 2, 30, 128, 3, 0, 0, 2, 20, 0, 1, 4, 0, 3, 200, 0, 3, 2})
	f.Fuzz(func(t *testing.T, ops []byte) { checkEngineOrder(t, ops) })
}

// hold is the state of BenchmarkHoldDeepQueue: each executed event
// schedules its successor a seeded random offset later.
type hold struct {
	e *Engine
	r *rng.Rand
}

func holdCall(arg any) {
	h := arg.(*hold)
	h.e.ScheduleCall(h.e.Now()+Time(h.r.Exp(1)), holdCall, h)
}

// BenchmarkHoldDeepQueue is the classic hold model at the depth of a
// 30000-rank chain: 30000 pending events, and every op pops one and
// schedules its successor at an exponential offset (mean 1 s).
func BenchmarkHoldDeepQueue(b *testing.B) {
	b.ReportAllocs()
	h := &hold{e: &Engine{}, r: rng.New(1)}
	for i := 0; i < 30000; i++ {
		h.e.ScheduleCall(Time(h.r.Exp(1)), holdCall, h)
	}
	// Warm up: cycle the queue so every free list is at steady state.
	for i := 0; i < 3*30000; i++ {
		h.e.Step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.e.Step()
	}
}
