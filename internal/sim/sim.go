// Package sim implements the discrete-event simulation engine that drives
// the message-passing simulator. It provides a virtual clock, a monotone
// radix event queue with deterministic tie-breaking, and an Engine loop.
//
// Determinism matters here: two events scheduled for the same virtual time
// must always execute in the same order, or otherwise identical runs could
// produce different message-matching orders and different timelines. Ties
// are broken by insertion order (FIFO among equal-time events).
//
// # Event queue
//
// Simulated time never runs backwards, so the queue is a radix heap
// (Ahuja, Mehlhorn, Orlin & Tarjan, JACM 37(2), 1990) keyed by the bit
// pattern of the event time: for non-negative floats that pattern orders
// exactly like the value. Bucket i holds the events whose key first
// differs from the last popped key at bit i-1, so bucket 0 holds the
// events due at exactly that key. Popping takes the head of bucket 0;
// when it is empty, the smallest non-empty bucket is emptied into lower
// ones around its minimum. Each bucket is a FIFO of fixed-size chunks, so
// every bucket stays in insertion order and equal times pop FIFO.
//
// # Allocation discipline
//
// The engine is the innermost loop of every simulation, so it recycles
// Event objects and queue chunks on per-engine free lists: in steady
// state, scheduling and executing an event performs no heap allocation.
// The typed-callback form ScheduleCall(at, fn, arg) passes a
// pointer-shaped argument to a plain function, which lets hot callers
// avoid allocating a capture closure per event; Schedule(at, func())
// remains as a thin wrapper for call sites where a closure is idiomatic
// and cold.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Time is virtual simulation time in seconds.
type Time float64

// Infinity is a time later than any event the engine will ever execute.
const Infinity Time = Time(math.MaxFloat64)

// Seconds converts a plain float64 of seconds to a Time.
func Seconds(s float64) Time { return Time(s) }

// Micro converts microseconds to Time.
func Micro(us float64) Time { return Time(us * 1e-6) }

// Milli converts milliseconds to Time.
func Milli(ms float64) Time { return Time(ms * 1e-3) }

// FormatDuration renders a Time in time.Duration syntax rounded to
// nanoseconds ("2.4µs", "10ms") — the spelling the flag parsers accept
// back, shared by every layer that renders re-parseable specs.
func FormatDuration(t Time) string {
	return time.Duration(math.Round(float64(t) * 1e9)).String()
}

// Micros reports t in microseconds.
func (t Time) Micros() float64 { return float64(t) * 1e6 }

// Millis reports t in milliseconds.
func (t Time) Millis() float64 { return float64(t) * 1e3 }

// Event is a scheduled action, owned by the engine's free list.
//
// An *Event returned by Schedule/ScheduleCall is valid for Cancel until
// the event executes. Once it has run, the engine recycles the object
// for a later scheduling call, so handles must not be retained past the
// event's execution time (cancelling a stale handle could cancel an
// unrelated, later event). Completion paths that may race — like a
// resource cancelling its own pending timer — must therefore drop their
// handle when the event fires, which is the natural shape anyway.
type Event struct {
	at     Time
	fn     func()    // closure form (Schedule)
	callFn func(any) // typed-callback form (ScheduleCall)
	arg    any
	dead   bool
}

// Cancelled reports whether the event has been cancelled.
func (e *Event) Cancelled() bool { return e.dead }

// run invokes the event's action in whichever form it was scheduled.
func (e *Event) run() {
	if e.callFn != nil {
		e.callFn(e.arg)
		return
	}
	e.fn()
}

// keyOf maps a non-negative time to its queue key. The IEEE-754 bit
// pattern of a non-negative float orders like its value; -0 is mapped
// onto +0, the only pair of equal times with different patterns.
func keyOf(at Time) uint64 {
	if at == 0 {
		return 0
	}
	return math.Float64bits(float64(at))
}

// chunkLen is the number of events one queue chunk holds.
const chunkLen = 64

// chunk is one fixed-size segment of a bucket's FIFO; spare chunks are
// linked through next on the engine's chunk free list.
type chunk struct {
	evs  [chunkLen]slot
	next *chunk
}

// slot is one queued event with its key beside it, so refilling a
// bucket reads only the chunks, not the events.
type slot struct {
	key uint64
	ev  *Event
}

// bucket is a FIFO of events held in a list of chunks: it is read at
// head.evs[lo] and appended at tail.evs[hi]. The zero value is empty.
type bucket struct {
	head, tail *chunk
	lo, hi     int
}

// Engine owns the virtual clock, the pending-event queue and the event
// and chunk free lists. The zero value is ready to use.
type Engine struct {
	now Time
	// last is the key that buckets are relative to: the key of the last
	// event taken to the head of the queue, never above any queued key.
	last    uint64
	buckets [65]bucket
	// full has bit i-1 set when bucket i (1..64) is non-empty.
	full     uint64
	pending  int
	spare    *chunk   // chunk free list
	free     []*Event // event free list
	executed uint64
	running  bool
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Executed returns the number of events executed so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending returns the number of events still scheduled (including
// cancelled events not yet popped).
func (e *Engine) Pending() int { return e.pending }

// alloc takes an Event from the free list, or allocates a fresh one.
func (e *Engine) alloc() *Event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free = e.free[:n-1]
		ev.dead = false
		return ev
	}
	return &Event{}
}

// recycle returns an executed or discarded event to the free list,
// clearing the action references so the pool does not retain garbage.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	ev.callFn = nil
	ev.arg = nil
	e.free = append(e.free, ev)
}

// Schedule registers fn to run at virtual time at. Scheduling an event in
// the past (before Now) or at NaN panics: it would mean causality
// violation in the simulation logic, which is always a programming error
// worth failing loudly for.
func (e *Engine) Schedule(at Time, fn func()) *Event {
	if fn == nil {
		panic("sim: scheduling nil event function")
	}
	ev := e.schedule(at)
	ev.fn = fn
	return ev
}

// ScheduleCall registers fn(arg) to run at virtual time at. It is the
// allocation-free form of Schedule: with a pooled Event, a package-level
// fn and a pointer-shaped arg, scheduling performs no heap allocation,
// where a capturing closure passed to Schedule would allocate once per
// event. The same past-time rule as Schedule applies.
func (e *Engine) ScheduleCall(at Time, fn func(any), arg any) *Event {
	if fn == nil {
		panic("sim: scheduling nil event function")
	}
	ev := e.schedule(at)
	ev.callFn = fn
	ev.arg = arg
	return ev
}

// schedule allocates and enqueues a bare event at the given time.
func (e *Engine) schedule(at Time) *Event {
	if !(at >= e.now) {
		if at != at {
			panic(fmt.Sprintf("sim: scheduling event at %v (now %v)", at, e.now))
		}
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	ev := e.alloc()
	ev.at = at
	key := keyOf(at)
	if key < e.last {
		e.rebase()
	}
	e.put(slot{key, ev})
	e.pending++
	return ev
}

// After schedules fn to run delay after the current time.
func (e *Engine) After(delay Time, fn func()) *Event {
	if !(delay >= 0) {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.Schedule(e.now+delay, fn)
}

// AfterCall schedules fn(arg) to run delay after the current time — the
// typed-callback counterpart of After.
func (e *Engine) AfterCall(delay Time, fn func(any), arg any) *Event {
	if !(delay >= 0) {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.ScheduleCall(e.now+delay, fn, arg)
}

// Cancel removes a scheduled event. Cancelling an already-cancelled
// event (or nil) is a harmless no-op, which keeps caller logic simple
// when races between completion paths occur. See the Event documentation
// for the handle-validity rule: cancel only events that have not yet
// executed.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.dead {
		return
	}
	// Leave it queued; the run loop discards dead events when popped
	// and recycles them.
	ev.dead = true
}

// Run executes events in (time, insertion) order until the queue drains.
// It returns the final virtual time.
func (e *Engine) Run() Time {
	return e.RunUntil(Infinity)
}

// RunUntil executes events with time <= limit, then stops. Events beyond
// the limit stay queued. It returns the virtual time of the last executed
// event (or the starting time if nothing ran).
func (e *Engine) RunUntil(limit Time) Time {
	if e.running {
		panic("sim: Run re-entered; event handlers must not call Run")
	}
	e.running = true
	defer func() { e.running = false }()
	for {
		top := e.head()
		if top == nil || top.at > limit {
			break
		}
		e.pop()
		if top.dead {
			e.recycle(top)
			continue
		}
		if top.at < e.now {
			panic(fmt.Sprintf("sim: event time %v before clock %v", top.at, e.now))
		}
		e.now = top.at
		e.executed++
		top.run()
		// Recycle only after the action ran: the action may schedule new
		// events, which must not reuse this object mid-flight.
		e.recycle(top)
	}
	return e.now
}

// NextEventTime returns the scheduled time of the earliest live pending
// event, or false when no live event is queued. Cancelled events at the
// head of the queue are discarded on the way — the run loop would skip
// them anyway. The parallel shard driver polls this between execution
// windows to compute safe lookahead horizons.
func (e *Engine) NextEventTime() (Time, bool) {
	for {
		top := e.head()
		if top == nil {
			return 0, false
		}
		if !top.dead {
			return top.at, true
		}
		e.pop()
		e.recycle(top)
	}
}

// Step executes exactly one live event, if any, and reports whether an
// event ran. Useful for fine-grained testing.
func (e *Engine) Step() bool {
	for {
		top := e.head()
		if top == nil {
			return false
		}
		e.pop()
		if top.dead {
			e.recycle(top)
			continue
		}
		e.now = top.at
		e.executed++
		top.run()
		e.recycle(top)
		return true
	}
}

// head returns the earliest queued event without removing it, or nil
// when the queue is empty. It refills bucket 0 if needed, which moves
// last up to the head's key.
func (e *Engine) head() *Event {
	b := &e.buckets[0]
	if b.head == nil {
		if e.full == 0 {
			return nil
		}
		e.refill()
	}
	return b.head.evs[b.lo].ev
}

// pop removes the event head returned; bucket 0 must be non-empty.
func (e *Engine) pop() {
	b := &e.buckets[0]
	b.lo++
	if b.head == b.tail && b.lo == b.hi {
		e.release(b.head)
		*b = bucket{}
	} else if b.lo == chunkLen {
		c := b.head
		b.head, b.lo = c.next, 0
		e.release(c)
	}
	e.pending--
}

// refill empties the smallest non-empty bucket into the lower ones
// around its minimum key, which becomes the new last. Bucket 0 is empty
// on entry and holds every event at that key on return.
func (e *Engine) refill() {
	i := bits.TrailingZeros64(e.full) + 1
	src := e.buckets[i]
	e.buckets[i] = bucket{}
	e.full &^= 1 << (i - 1)
	least := ^uint64(0)
	for c, lo := src.head, src.lo; c != nil; c, lo = c.next, 0 {
		for _, s := range c.evs[lo:src.end(c)] {
			if s.key < least {
				least = s.key
			}
		}
	}
	e.last = least
	e.move(src)
}

// rebase re-buckets every queued event relative to the clock. It runs
// when an event is scheduled below last, which happens only after head
// looked past the clock (RunUntil stopping at its limit, or
// NextEventTime) and a caller then scheduled between Now and that head,
// as the shard coordinator does when it delivers cross-shard messages.
func (e *Engine) rebase() {
	old := e.buckets
	e.buckets = [len(old)]bucket{}
	e.full = 0
	e.last = keyOf(e.now)
	for _, b := range old {
		e.move(b)
	}
}

// move re-inserts the events of a detached bucket in its FIFO order and
// frees its chunks. Equal keys always share a bucket, so moving buckets
// whole and in order keeps equal times in insertion order.
func (e *Engine) move(src bucket) {
	for c, lo := src.head, src.lo; c != nil; lo = 0 {
		for _, s := range c.evs[lo:src.end(c)] {
			e.put(s)
		}
		next := c.next
		e.release(c)
		c = next
	}
}

// end is the end of c's queued slots: hi in the tail chunk, chunkLen in
// the full chunks before it.
func (b *bucket) end(c *chunk) int {
	if c == b.tail {
		return b.hi
	}
	return chunkLen
}

// put appends s to the bucket its key selects relative to last.
func (e *Engine) put(s slot) {
	i := bits.Len64(s.key ^ e.last)
	b := &e.buckets[i]
	if b.tail == nil {
		c := e.chunk()
		b.head, b.tail, b.lo, b.hi = c, c, 0, 0
		if i > 0 {
			e.full |= 1 << (i - 1)
		}
	} else if b.hi == chunkLen {
		c := e.chunk()
		b.tail.next = c
		b.tail, b.hi = c, 0
	}
	b.tail.evs[b.hi] = s
	b.hi++
}

// chunk takes a chunk from the free list, or allocates a fresh one.
func (e *Engine) chunk() *chunk {
	c := e.spare
	if c == nil {
		return new(chunk)
	}
	e.spare, c.next = c.next, nil
	return c
}

// release returns a drained chunk to the free list.
func (e *Engine) release(c *chunk) {
	c.next = e.spare
	e.spare = c
}
