package sim

// This file keeps the engine as it was before the typed heap and event
// recycling: a container/heap binary heap of freshly allocated events. It
// is copied verbatim apart from the ref* names, and serves only as the
// reference model FuzzEngine compares Engine against.

import (
	"container/heap"
	"fmt"
)

// refEvent is a scheduled callback in simulated time. Events are created via
// Engine.Schedule / Engine.At and may be cancelled before they fire.
type refEvent struct {
	when     Time
	seq      uint64 // FIFO tiebreak among events at the same instant
	index    int    // heap index, -1 when not queued
	fn       func()
	canceled bool
	name     string // optional label for debugging/tracing
}

// When returns the instant the event is scheduled to fire.
func (e *refEvent) When() Time { return e.when }

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. Cancel is O(log n).
func (e *refEvent) Cancel() { e.canceled = true }

// Canceled reports whether Cancel has been called on the event.
func (e *refEvent) Canceled() bool { return e.canceled }

// Name returns the optional debug label attached to the event.
func (e *refEvent) Name() string { return e.name }

// refQueue is a binary min-heap ordered by (when, seq).
type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].when != q[j].when {
		return q[i].when < q[j].when
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// refEngine is a deterministic discrete-event simulator. It is not safe for
// concurrent use; all simulated components run on the goroutine that calls
// Run.
type refEngine struct {
	now     Time
	seq     uint64
	queue   refQueue
	fired   uint64
	stopped bool
	// prof, when non-nil, collects self-observation counters (see
	// Profile). Nil is the fault-free fast path: one pointer test per
	// dispatch, no allocation, no behavioural difference.
	prof *Profile
}

// newRefEngine returns an engine with the clock at zero.
func newRefEngine() *refEngine {
	return &refEngine{}
}

// Now returns the current simulated time.
func (e *refEngine) Now() Time { return e.now }

// Fired returns the number of events executed so far, useful for
// instrumentation and runaway detection in tests.
func (e *refEngine) Fired() uint64 { return e.fired }

// Pending returns the number of events currently queued (including
// cancelled events that have not yet been popped).
func (e *refEngine) Pending() int { return len(e.queue) }

// Schedule queues fn to run after delay. A negative delay panics: the past
// is immutable in a discrete-event simulation.
func (e *refEngine) Schedule(delay Duration, fn func()) *refEvent {
	return e.schedule(e.now.Add(delay), "", fn)
}

// ScheduleNamed is Schedule with a debug label attached to the event.
func (e *refEngine) ScheduleNamed(delay Duration, name string, fn func()) *refEvent {
	return e.schedule(e.now.Add(delay), name, fn)
}

// At queues fn to run at the absolute instant t, which must not precede the
// current time.
func (e *refEngine) At(t Time, fn func()) *refEvent {
	return e.schedule(t, "", fn)
}

func (e *refEngine) schedule(t Time, name string, fn func()) *refEvent {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	ev := &refEvent{when: t, seq: e.seq, fn: fn, name: name}
	e.seq++
	heap.Push(&e.queue, ev)
	if e.prof != nil {
		e.prof.noteSchedule(len(e.queue))
	}
	return ev
}

// Stop makes the current Run call return after the in-flight event
// completes. Queued events remain queued and a subsequent Run resumes.
func (e *refEngine) Stop() { e.stopped = true }

// Step executes the single earliest pending event and returns true, or
// returns false if the queue is empty. Cancelled events are discarded
// without executing and without counting as a step.
func (e *refEngine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*refEvent)
		if ev.canceled {
			continue
		}
		if ev.when < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.when
		e.fired++
		if p := e.prof; p != nil {
			var wall int64
			if p.Clock != nil {
				start := p.Clock()
				ev.fn()
				wall = p.Clock() - start
			} else {
				ev.fn()
			}
			p.noteDispatch(ev.name, wall)
			return true
		}
		ev.fn()
		return true
	}
	return false
}

// Run executes events until no events remain, Stop is called, or the clock
// would pass `until` (events at exactly `until` do fire). It returns the
// number of events executed by this call. The clock ends at `until`
// unless Stop ended the run or `until` is in the past.
func (e *refEngine) Run(until Time) uint64 {
	e.stopped = false
	start := e.fired
	for !e.stopped {
		// Peek to honor the horizon without consuming the event.
		// Unless Stop ends the run, advance the clock to the horizon so
		// callers observe a full interval elapsed even when the system
		// went idle early.
		next := e.peek()
		if next == nil || next.when > until {
			if e.now < until {
				e.now = until
			}
			break
		}
		e.Step()
	}
	return e.fired - start
}

// RunUntilIdle executes events until the queue drains or Stop is called.
func (e *refEngine) RunUntilIdle() uint64 {
	e.stopped = false
	start := e.fired
	for !e.stopped && e.Step() {
	}
	return e.fired - start
}

// peek returns the earliest non-cancelled event without executing it,
// discarding cancelled events as it goes.
func (e *refEngine) peek() *refEvent {
	for len(e.queue) > 0 {
		if e.queue[0].canceled {
			heap.Pop(&e.queue)
			continue
		}
		return e.queue[0]
	}
	return nil
}
