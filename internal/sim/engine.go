package sim

import "fmt"

// event is a scheduled callback in simulated time. Its ordering key lives
// in the queue slot that holds it, not here, so the heap sifts without
// dereferencing events. An event is recycled once it has fired or, if
// cancelled, once it reaches the front of the queue. gen counts its lives
// in steps of two; its low bit marks the current life cancelled. A Handle
// carries the even gen of the life it was issued for and acts only on it.
// timer is set while the event is a Timer's heap slot (see Timer).
type event struct {
	fn    func()
	name  string // optional label for debugging/tracing
	gen   uint64
	timer *Timer
}

func (ev *event) canceled() bool { return ev.gen&1 != 0 }

// Handle refers to one scheduled event. The zero Handle refers to none;
// Cancel on it is a no-op. A Handle outlives its event: once the event has
// fired or been discarded the engine may reuse it for a later Schedule,
// and the handle goes stale (its generation no longer matches), so Cancel
// on it is a no-op that can never touch the newer event.
type Handle struct {
	ev  *event
	gen uint64
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (h Handle) Cancel() {
	if h.ev != nil && h.ev.gen == h.gen {
		h.ev.gen |= 1
	}
}

// slot is one queue entry: the (when, seq) ordering key inline, plus the
// event it orders.
type slot struct {
	when Time
	seq  uint64 // FIFO tiebreak among events at the same instant
	ev   *event
}

func (s *slot) before(o *slot) bool {
	return s.when < o.when || (s.when == o.when && s.seq < o.seq)
}

// Engine is a deterministic discrete-event simulator. It is not safe for
// concurrent use; all simulated components run on the goroutine that calls
// Run.
type Engine struct {
	now Time
	seq uint64
	// queue is a 4-ary min-heap ordered by (when, seq). The key is a
	// total order, so any correct heap pops the same sequence.
	queue []slot
	// lanes hold the events of constant-delay sources (see Lane). Each is
	// already sorted by (when, seq), so only its head competes with the
	// heap top. busy holds the non-empty lanes in no particular order:
	// (when, seq) is a total order, so the scan order cannot matter, and
	// an idle lane costs a dispatch nothing.
	lanes []*Lane
	busy  []*Lane
	// free holds fired and discarded events for reuse.
	free    []*event
	fired   uint64
	stopped bool
	// prof, when non-nil, collects self-observation counters (see
	// Profile). Nil is the fault-free fast path: one pointer test per
	// dispatch, no allocation, no behavioural difference.
	prof *Profile
	// The engine is written on every event, and the nodes of a fleet are
	// built one after another on one goroutine, so their engines sit side
	// by side in one size class. Padding the struct to whole cache lines
	// keeps two workers from contending on a line two engines share;
	// TestEngineFillsWholeCacheLines holds the size to a multiple of 64.
	_ [56]byte
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far, useful for
// instrumentation and runaway detection in tests.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of slots currently queued, on the heap and
// in lanes: cancelled events that have not yet been discarded count, and
// each timer counts its one slot, armed or not, until it surfaces.
func (e *Engine) Pending() int {
	n := len(e.queue)
	for _, l := range e.lanes {
		n += l.slots.Len()
	}
	return n
}

// Schedule queues fn to run after delay. A negative delay panics: the past
// is immutable in a discrete-event simulation.
func (e *Engine) Schedule(delay Duration, fn func()) Handle {
	return e.schedule(e.now.Add(delay), "", fn)
}

// ScheduleNamed is Schedule with a debug label attached to the event.
func (e *Engine) ScheduleNamed(delay Duration, name string, fn func()) Handle {
	return e.schedule(e.now.Add(delay), name, fn)
}

// At queues fn to run at the absolute instant t, which must not precede the
// current time.
func (e *Engine) At(t Time, fn func()) Handle {
	return e.schedule(t, "", fn)
}

func (e *Engine) schedule(t Time, name string, fn func()) Handle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.newEvent(name, fn)
	e.push(slot{when: t, seq: e.seq, ev: ev})
	e.seq++
	if e.prof != nil {
		e.prof.noteSchedule(e.Pending())
	}
	return Handle{ev: ev, gen: ev.gen}
}

// newEvent takes an event from the free list, or allocates one.
func (e *Engine) newEvent(name string, fn func()) *event {
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.fn, ev.name = fn, name
	return ev
}

// recycle ends ev's current life, staling every handle to it, and puts it
// on the free list.
func (e *Engine) recycle(ev *event) {
	ev.fn, ev.name, ev.timer = nil, "", nil
	ev.gen = (ev.gen | 1) + 1
	e.free = append(e.free, ev)
}

// push sifts s up from the end of the heap.
func (e *Engine) push(s slot) {
	q := append(e.queue, s)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !s.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = s
	e.queue = q
}

// pop removes the earliest slot and returns its event; the queue must be
// non-empty.
func (e *Engine) pop() *event {
	q := e.queue
	top := q[0].ev
	n := len(q) - 1
	last := q[n]
	q[n] = slot{}
	e.queue = q[:n]
	if n > 0 {
		e.down(0, last)
	}
	return top
}

// down places s at heap index i, whose parent s must not precede, and
// sifts it down to its place.
func (e *Engine) down(i int, s slot) {
	q := e.queue
	n := len(q)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&s) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = s
}

// next returns the earliest live slot and the lane holding it (nil for the
// heap), or a nil slot when nothing is pending. Cancelled events that come
// first are discarded on the way, exactly when the one heap they replace
// would have popped them. A timer slot that comes first is judged by its
// timer: a disarmed timer's slot is popped, and a slot whose key the
// timer has since moved later is re-keyed in place and sifted down. The
// slot pointer is valid until the queue next changes; take(src) then
// removes that very slot.
func (e *Engine) next() (*slot, *Lane) {
	for {
		var s *slot
		if len(e.queue) > 0 {
			s = &e.queue[0]
		}
		var src *Lane
		for _, l := range e.busy {
			if h := l.slots.Front(); s == nil || h.before(s) {
				s, src = h, l
			}
		}
		if s == nil {
			return nil, nil
		}
		ev := s.ev
		if t := ev.timer; t != nil { // a timer's slot, on the heap

			switch {
			case t.state != timerArmed:
				e.pop()
				t.ev = nil
				e.recycle(ev)
			case s.seq != t.seq:
				t.at = t.when
				e.down(0, slot{when: t.when, seq: t.seq, ev: ev})
			default:
				return s, src
			}
			continue
		}
		if !ev.canceled() {
			return s, src
		}
		e.recycle(e.take(src))
	}
}

// take removes the head of src, the heap when src is nil, and returns its
// event.
func (e *Engine) take(src *Lane) *event {
	if src == nil {
		return e.pop()
	}
	ev := src.slots.Pop().ev
	if src.slots.Len() == 0 {
		// Swap src out of busy.
		last := e.busy[len(e.busy)-1]
		e.busy[src.busyAt] = last
		last.busyAt = src.busyAt
		e.busy = e.busy[:len(e.busy)-1]
	}
	return ev
}

// Stop makes the current Run call return after the in-flight event
// completes. Queued events remain queued and a subsequent Run resumes.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single earliest pending event and returns true, or
// returns false if the queue is empty. Cancelled events, and the slots of
// timers that were stopped or moved later, are discarded or re-queued
// without executing and without counting as a step.
func (e *Engine) Step() bool {
	s, src := e.next()
	if s == nil {
		return false
	}
	e.dispatch(s, src)
	return true
}

// dispatch advances the clock to s's instant and runs s, the head of src,
// which next has just selected. A timer's slot stays at the top of the heap
// while its callback runs: every key pushed meanwhile is later, and next
// then re-keys or pops the slot as the timer's state asks.
func (e *Engine) dispatch(s *slot, src *Lane) {
	if s.when < e.now {
		panic("sim: time went backwards")
	}
	e.now = s.when
	e.fired++
	ev := s.ev
	fn, name := ev.fn, ev.name
	if ev.timer == nil {
		// Recycle before the callback runs: a callback that reschedules
		// itself reuses this very event, and any handle to it is stale.
		e.take(src)
		e.recycle(ev)
	}
	if p := e.prof; p != nil {
		var wall int64
		if p.Clock != nil {
			start := p.Clock()
			fn()
			wall = p.Clock() - start
		} else {
			fn()
		}
		p.noteDispatch(name, wall)
		return
	}
	fn()
}

// Run executes events until no events remain, Stop is called, or the clock
// would pass `until` (events at exactly `until` do fire). It returns the
// number of events executed by this call. If Stop ended the run, the
// clock stays at the stopping event's instant, whether or not events are
// still pending; otherwise, when `until` is not in the past, it ends at
// `until`. The clock never moves back.
func (e *Engine) Run(until Time) uint64 {
	e.stopped = false
	start := e.fired
	for !e.stopped {
		// Select once, then either honor the horizon without consuming
		// the event or dispatch the selected one.
		s, src := e.next()
		if s == nil || s.when > until {
			// Advance the clock to the horizon so callers observe a full
			// interval elapsed even when the system went idle early.
			if e.now < until {
				e.now = until
			}
			break
		}
		e.dispatch(s, src)
	}
	return e.fired - start
}

// RunUntilIdle executes events until the queue drains or Stop is called.
func (e *Engine) RunUntilIdle() uint64 {
	e.stopped = false
	start := e.fired
	for !e.stopped && e.Step() {
	}
	return e.fired - start
}

// Lane is a FIFO for events that all fire the same fixed delay after they
// are scheduled, such as those of a pipeline with a constant latency.
// Because the clock never runs backwards and each slot takes the engine's
// global sequence number, a lane is already sorted by (when, seq): it
// skips the heap, and the engine dispatches exactly the order one heap of
// every event would. It is the one-bucket case of a calendar queue.
type Lane struct {
	e     *Engine
	delay Duration
	name  string
	slots FIFO[slot]
	// busyAt is the lane's index in e.busy while it holds events.
	busyAt int
}

// Lane returns the lane whose events fire delay after they are scheduled
// and carry name as their debug label. Sources asking for the same delay
// and name share one lane: each event carries its own callback, so the
// lane stays sorted whoever feeds it. Lanes live as long as the engine; a
// source asks for its lane once, at construction.
func (e *Engine) Lane(delay Duration, name string) *Lane {
	if delay < 0 {
		panic(fmt.Sprintf("sim: lane delay %v is negative", delay))
	}
	for _, l := range e.lanes {
		if l.delay == delay && l.name == name {
			return l
		}
	}
	l := &Lane{e: e, delay: delay, name: name}
	e.lanes = append(e.lanes, l)
	return l
}

// Schedule queues fn to run the lane's delay from now. It is
// ScheduleNamed(delay, name, fn) without the heap.
func (l *Lane) Schedule(fn func()) Handle {
	e := l.e
	ev := e.newEvent(l.name, fn)
	if l.slots.Len() == 0 {
		l.busyAt = len(e.busy)
		e.busy = append(e.busy, l)
	}
	l.slots.Push(slot{when: e.now.Add(l.delay), seq: e.seq, ev: ev})
	e.seq++
	if e.prof != nil {
		e.prof.noteSchedule(e.Pending())
	}
	return Handle{ev: ev, gen: ev.gen}
}

// Joinable reports whether an event scheduled on l now would be
// dispatched right after h's event, with nothing between them: h is l's
// newest event and still pending, it is due when the new event would be,
// and the engine has scheduled nothing since. The new event would take the
// next sequence number at the same instant, so no key can fall between the
// two. A source may then run the new event's work at the end of h's
// callback instead of scheduling it, and every other event fires exactly
// as before: one scheduled from that callback takes a later sequence
// number and still fires after the whole group. Only the counts of
// scheduled and fired events (Fired, Pending, the profile) tell the two
// apart, and Stop: called inside h's callback, it no longer ends Run
// before the joined work, which runs as part of the same dispatch.
func (l *Lane) Joinable(h Handle) bool {
	e := l.e
	if h.ev == nil || h.ev.gen != h.gen || l.slots.Len() == 0 {
		return false
	}
	t := l.slots.Back()
	return t.ev == h.ev && t.seq+1 == e.seq && t.when == e.now.Add(l.delay)
}

// Timer is an event that is armed and re-armed: its callback and label
// are bound once, at construction, so arming it allocates nothing.
//
// A timer owns at most one heap slot, and moves it instead of cancelling
// it. Reset(d) takes the next sequence number just as Schedule does and
// records the live key (now+d, seq). A queued slot due no later than that
// stays where it is, and when it surfaces the engine re-keys it in place;
// an earlier deadline pushes a fresh slot and detaches the old one as a
// cancelled event. Stop only disarms: the slot is dropped when it
// surfaces, unless a Reset reuses it first. Dispatch order is thus the
// (when, seq) order of live arms, that of a Cancel plus a ScheduleNamed
// per Reset, while Pending and the profile's high-water mark count one
// slot per timer.
//
// A timer fires in place: its slot stays at the top of the heap while the
// callback runs, so a re-arm costs one sift-down. A one-shot timer
// (period 0) is disarmed before its callback runs. A periodic timer stays
// armed through its callback and re-arms one period after the callback
// returns, unless the callback stopped or reset it.
type Timer struct {
	e      *Engine
	period Duration
	name   string
	fn     func()
	fire   func() // t.run, bound once
	state  uint8
	ev     *event // the event of the timer's heap slot; nil when it has none
	at     Time   // the slot's instant
	when   Time   // the live key, while armed
	seq    uint64
}

// Timer states. A periodic timer is firing while its callback runs
// without having stopped or reset it.
const (
	timerIdle uint8 = iota
	timerArmed
	timerFiring
)

// NewTimer returns a disarmed timer that runs fn, labelled name. A
// positive period makes it periodic; 0 makes it one-shot.
func (e *Engine) NewTimer(period Duration, name string, fn func()) *Timer {
	if period < 0 {
		panic(fmt.Sprintf("sim: timer period %v is negative", period))
	}
	if fn == nil {
		panic("sim: nil timer callback")
	}
	t := &Timer{e: e, period: period, name: name, fn: fn}
	t.fire = t.run
	return t
}

// Reset arms the timer d from now, replacing any pending firing.
func (t *Timer) Reset(d Duration) {
	e := t.e
	when := e.now.Add(d)
	if when < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", when, e.now))
	}
	t.state, t.when, t.seq = timerArmed, when, e.seq
	e.seq++
	if t.ev != nil {
		if t.at <= when {
			return
		}
		// Detach the later slot: a plain cancelled event from now on.
		t.ev.timer = nil
		t.ev.gen |= 1
	}
	ev := e.newEvent(t.name, t.fire)
	ev.timer = t
	t.ev, t.at = ev, when
	e.push(slot{when: when, seq: t.seq, ev: ev})
	if e.prof != nil {
		e.prof.noteSchedule(e.Pending())
	}
}

// Stop disarms the timer. Stopping a disarmed timer is a no-op.
func (t *Timer) Stop() { t.state = timerIdle }

// Armed reports whether a firing is pending, or a periodic timer's
// callback is running without having stopped it.
func (t *Timer) Armed() bool { return t.state != timerIdle }

// run is the timer's event. A Stop or Reset inside a periodic callback
// moves the timer out of timerFiring, which cancels the re-arm.
func (t *Timer) run() {
	if t.period == 0 {
		t.state = timerIdle
		t.fn()
		return
	}
	t.state = timerFiring
	t.fn()
	if t.state == timerFiring {
		t.Reset(t.period)
	}
}
