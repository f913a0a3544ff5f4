package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// cancelable is what both engines' Schedule results offer: Handle for
// Engine, *refEvent for the reference model.
type cancelable interface{ Cancel() }

// fuzzEngine is the engine surface a fuzz script drives. Lanes are
// numbered in the order they were asked for; asking twice for one delay
// and name may return one lane twice.
type fuzzEngine interface {
	schedule(kind byte, d Duration, fn func()) cancelable
	newLane(d Duration, name string)
	nLanes() int
	laneSchedule(i int, fn func()) cancelable
	newTimer(period Duration, fn func()) fuzzTimer
	Stop()
	Step() bool
	Run(until Time) uint64
	RunUntilIdle() uint64
	Now() Time
	Fired() uint64
	Pending() int
}

// fuzzTimer is what both engines' timers offer: *Timer for Engine,
// *refTimer for the reference model.
type fuzzTimer interface {
	Reset(d Duration)
	Stop()
	Armed() bool
}

type engineUnderTest struct {
	*Engine
	lanes []*Lane
	// laneErr records the first Lane call that broke sharing: a repeated
	// (delay, name) must return the same lane, any other pair a new one.
	laneErr string
}

func (e *engineUnderTest) schedule(kind byte, d Duration, fn func()) cancelable {
	switch kind {
	case 0:
		return e.Schedule(d, fn)
	case 1:
		return e.ScheduleNamed(d, heapName, fn)
	default:
		return e.At(e.Now().Add(d), fn)
	}
}

func (e *engineUnderTest) newLane(d Duration, name string) {
	l := e.Lane(d, name)
	for _, old := range e.lanes {
		if same := old.delay == d && old.name == name; same != (old == l) && e.laneErr == "" {
			e.laneErr = fmt.Sprintf("Lane(%v, %q) returned %p; an earlier Lane(%v, %q) returned %p",
				d, name, l, old.delay, old.name, old)
		}
	}
	e.lanes = append(e.lanes, l)
}
func (e *engineUnderTest) nLanes() int { return len(e.lanes) }
func (e *engineUnderTest) laneSchedule(i int, fn func()) cancelable {
	return e.lanes[i].Schedule(fn)
}
func (e *engineUnderTest) newTimer(period Duration, fn func()) fuzzTimer {
	return e.NewTimer(period, timerName, fn)
}

// referenceEngine models lane i as its delay and name alone: a lane send
// is ScheduleNamed(delay, name) on the one heap. Timer firings decide
// dispatch order as Cancel plus ScheduleNamed; beside them the reference
// models the heap slots a Timer owns, for Pending and the high-water mark
// alone (see modelSlot).
type referenceEngine struct {
	*refEngine
	delays []Duration
	names  []string
	// slots are the modelled timer slots, attached and detached; arms
	// are the timer firings that may still be queued on refEngine, which
	// Pending counts as slots instead.
	slots []*modelSlot
	arms  []*refEvent
	hwm   int // high-water mark of Pending, noted at every schedule
}

// modelSlot is a timer's heap slot as Engine keeps it. Reset keeps the
// slot when it is due no later than the new firing and otherwise detaches
// it (t nil) and attaches a fresh one; Stop leaves it. Engine.next meets
// every slot keyed before the next live event: a detached slot, or the
// slot of a disarmed timer, is dropped, and the slot of an armed timer
// takes the firing's key. A firing leaves its slot in place.
type modelSlot struct {
	key slot // when and seq only
	t   *refTimer
}

func keyOf(ev *refEvent) slot { return slot{when: ev.when, seq: ev.seq} }

// never is after every key: an engine that finds nothing live meets
// every slot.
var never = slot{when: 1<<63 - 1, seq: 1<<64 - 1}

// surface meets every modelled slot keyed before k, the key of the next
// live event.
func (e *referenceEngine) surface(k slot) {
	kept := e.slots[:0]
	for _, s := range e.slots {
		switch {
		case !s.key.before(&k):
		case s.t != nil && s.t.ev != nil:
			s.key = keyOf(s.t.ev)
		default:
			if s.t != nil {
				s.t.slot = nil
			}
			continue
		}
		kept = append(kept, s)
	}
	clear(e.slots[len(kept):])
	e.slots = kept
}

// track schedules fn through schedule so that the model first meets the
// slots keyed before its event, and notes the queue depth.
func (e *referenceEngine) track(schedule func(func()) *refEvent, fn func()) *refEvent {
	var ev *refEvent
	ev = schedule(func() {
		e.surface(keyOf(ev))
		fn()
	})
	e.hwm = max(e.hwm, e.Pending())
	return ev
}

func (e *referenceEngine) schedule(kind byte, d Duration, fn func()) cancelable {
	return e.track(func(fn func()) *refEvent {
		switch kind {
		case 0:
			return e.Schedule(d, fn)
		case 1:
			return e.ScheduleNamed(d, heapName, fn)
		default:
			return e.At(e.Now().Add(d), fn)
		}
	}, fn)
}

func (e *referenceEngine) newLane(d Duration, name string) {
	e.delays = append(e.delays, d)
	e.names = append(e.names, name)
}
func (e *referenceEngine) nLanes() int { return len(e.delays) }
func (e *referenceEngine) laneSchedule(i int, fn func()) cancelable {
	return e.track(func(fn func()) *refEvent { return e.ScheduleNamed(e.delays[i], e.names[i], fn) }, fn)
}
func (e *referenceEngine) newTimer(period Duration, fn func()) fuzzTimer {
	return &refTimer{e: e, period: period, fn: fn}
}

// Step, Run and RunUntilIdle meet the slots that Engine.next meets after
// the last dispatch: all of them when nothing live is left, those before
// the next live event when Run stops at its horizon, none after a Stop.
func (e *referenceEngine) Step() bool {
	if e.refEngine.Step() {
		return true
	}
	e.surface(never)
	return false
}

func (e *referenceEngine) Run(until Time) uint64 {
	n := e.refEngine.Run(until)
	switch {
	case e.stopped:
	case len(e.queue) > 0:
		e.surface(keyOf(e.queue[0]))
	default:
		e.surface(never)
	}
	return n
}

func (e *referenceEngine) RunUntilIdle() uint64 {
	n := e.refEngine.RunUntilIdle()
	if !e.stopped {
		e.surface(never)
	}
	return n
}

// Pending counts the modelled slots in place of the timer firings.
func (e *referenceEngine) Pending() int {
	arms := e.arms[:0]
	for _, ev := range e.arms {
		if ev.index >= 0 {
			arms = append(arms, ev)
		}
	}
	clear(e.arms[len(arms):])
	e.arms = arms
	return e.refEngine.Pending() - len(arms) + len(e.slots)
}

// profile is the reference's profile with the modelled high-water mark.
func (e *referenceEngine) profile() *Profile {
	return &Profile{dispatch: e.prof.dispatch, wall: e.prof.wall, heapHWM: e.hwm}
}

// refTimer models Timer on the reference engine: Reset is Cancel plus
// ScheduleNamed, and a periodic firing re-arms after its callback unless
// the callback stopped or reset the timer. slot is the timer's modelled
// heap slot.
type refTimer struct {
	e      *referenceEngine
	period Duration
	fn     func()
	ev     *refEvent // the pending firing, nil when disarmed
	slot   *modelSlot
}

func (t *refTimer) Reset(d Duration) {
	if t.ev != nil {
		t.ev.Cancel()
	}
	e := t.e
	t.ev = e.refEngine.ScheduleNamed(d, timerName, t.fire)
	e.arms = append(e.arms, t.ev)
	if t.slot == nil || t.slot.key.when > t.ev.when {
		if t.slot != nil {
			t.slot.t = nil
		}
		t.slot = &modelSlot{key: keyOf(t.ev), t: t}
		e.slots = append(e.slots, t.slot)
	}
	e.hwm = max(e.hwm, e.Pending())
}

func (t *refTimer) Stop() {
	if t.ev != nil {
		t.ev.Cancel()
		t.ev = nil
	}
}

func (t *refTimer) Armed() bool { return t.ev != nil }

func (t *refTimer) fire() {
	ev := t.ev
	t.e.surface(keyOf(ev))
	if t.slot == nil || t.slot.key != keyOf(ev) {
		panic(fmt.Sprintf("slot model: timer fires at %v with slot %+v", keyOf(ev), t.slot))
	}
	if t.period == 0 {
		t.ev = nil
	}
	t.fn()
	if t.period > 0 && t.ev == ev {
		t.Reset(t.period)
	}
}

// heapName labels the ScheduleNamed heap kind. laneNames are the names a
// script may give a lane; the second is heapName, so lane and heap events
// can share a dispatch class.
const heapName = "fuzz"

var laneNames = [2]string{"fuzz.lane", heapName}

// laneTarget+i names lane i as where an event goes; targets below it are
// the heap kinds 0 Schedule, 1 ScheduleNamed and 2 At.
const laneTarget = 3

// maxLanes bounds the lanes a script may ask for.
const maxLanes = 3

// Timer ops take codes timerOps and up, so the heap and lane ops keep
// theirs. A script may make maxTimers timers, at most one periodic. A
// timer that has fired timerBudget times stops itself at each further
// firing, so RunUntilIdle ends however the timers re-arm.
const (
	timerOps    = 200
	maxTimers   = 3
	timerBudget = 16
	timerName   = "fuzz.timer"
)

// firing is one dispatched event: its script id (-1-i for timer i), the
// clock it saw and, for a timer, whether it was armed in its callback.
type firing struct {
	id    int
	at    Time
	armed bool
}

// scriptRun is one engine executing a fuzz script. Event ids are issued
// in schedule order, so both engines name the same event by the same id.
type scriptRun struct {
	eng       fuzzEngine
	handles   []cancelable
	fired     []bool
	behaves   []byte
	lastFired int // id of the most recent firing, -1 before any
	log       []firing
	// newest maps a lane number to the id of the newest event scheduled
	// on it under that number.
	newest map[int]int
	// riders maps an event id to the callbacks joined to it (engine under
	// test only); they run, in join order, at the end of its callback.
	riders map[int][]func()
	book   *joinBook
	// timers are the script's timers in creation order; fires counts
	// each one's firings.
	timers   []fuzzTimer
	fires    []int
	periodic bool // a periodic timer exists
}

// joinBook records the joins the engine under test has made. Both runs
// share it: neither cancels a member of a joined group, since a joined
// callback has no event of its own to cancel.
type joinBook struct {
	grouped map[int]bool // host and joined event ids
	queued  int          // joined callbacks whose host has not fired
	ran     int          // joined callbacks run
}

func newScriptRun(eng fuzzEngine, book *joinBook) *scriptRun {
	return &scriptRun{eng: eng, lastFired: -1, newest: map[int]int{}, riders: map[int][]func(){}, book: book}
}

// noHandle is a joined callback's handle: there is no event to cancel.
type noHandle struct{}

func (noHandle) Cancel() {}

// add schedules event len(handles) on target, after d when target is a
// heap kind.
func (r *scriptRun) add(target byte, d Duration, behave byte) {
	id, fn := r.callback(target, behave)
	var h cancelable
	if target >= laneTarget {
		i := int(target - laneTarget)
		h = r.eng.laneSchedule(i, fn)
		r.newest[i] = id
	} else {
		h = r.eng.schedule(target, d, fn)
	}
	r.handles = append(r.handles, h)
}

// join makes event len(handles), bound for lane laneTarget+i, a rider on
// event host: it runs at the end of host's callback instead of being
// scheduled.
func (r *scriptRun) join(host, i int, behave byte) {
	id, fn := r.callback(laneTarget+byte(i), behave)
	r.riders[host] = append(r.riders[host], fn)
	r.handles = append(r.handles, noHandle{})
	r.book.grouped[host], r.book.grouped[id] = true, true
	r.book.queued++
}

// callback issues the next event id and returns it with its callback,
// which logs the firing and then acts on behave: 1 stops the engine, 2
// schedules a child that does nothing (childTarget says where), 3 cancels
// some handle, which may be live, fired or its own. Then it runs the
// callbacks joined to it.
func (r *scriptRun) callback(target, behave byte) (int, func()) {
	id := len(r.handles)
	r.fired = append(r.fired, false)
	r.behaves = append(r.behaves, behave)
	return id, func() {
		r.fired[id] = true
		r.lastFired = id
		r.log = append(r.log, firing{id: id, at: r.eng.Now()})
		switch behave % 4 {
		case 1:
			r.eng.Stop()
		case 2:
			r.add(r.childTarget(target, behave/4%4), Duration(behave/16), 0)
		case 3:
			r.cancel(int(behave/4) % len(r.handles))
		}
		for _, ride := range r.riders[id] {
			r.book.queued--
			r.book.ran++
			ride()
		}
	}
}

// newTimer makes the next timer. Its callback logs the firing and then
// acts on act%8 with d = act/8%8: 1 resets it to d, 2 stops it, 3 stops
// and then resets it to d, 4 resets it to d+1 unless it is armed (the
// kernel tick's arm-unless-running), 5 stops the engine, 6 schedules a
// plain child d from now, which the re-arm of a periodic timer must
// follow in sequence.
func (r *scriptRun) newTimer(period Duration, act byte) {
	i := len(r.timers)
	r.fires = append(r.fires, 0)
	r.timers = append(r.timers, r.eng.newTimer(period, func() {
		t := r.timers[i]
		r.fires[i]++
		r.log = append(r.log, firing{id: -1 - i, at: r.eng.Now(), armed: t.Armed()})
		if r.fires[i] > timerBudget {
			t.Stop()
			return
		}
		d := Duration(act / 8 % 8)
		switch act % 8 {
		case 1:
			t.Reset(d)
		case 2:
			t.Stop()
		case 3:
			t.Stop()
			t.Reset(d)
		case 4:
			if !t.Armed() {
				t.Reset(d + 1)
			}
		case 5:
			r.eng.Stop()
		case 6:
			r.add(0, d, 0)
		}
	}))
}

// timerOp applies timer op code-timerOps: 0 makes a timer, periodic with
// period 1+a/2%16 when a is odd and none is yet, whose callback acts on
// b; 1 resets timer b to a%32; 2 stops timer b.
func (r *scriptRun) timerOp(code, a, b byte) {
	n := len(r.timers)
	switch (code - timerOps) % 3 {
	case 0:
		if n == maxTimers {
			return
		}
		var period Duration
		if a&1 == 1 && !r.periodic {
			r.periodic = true
			period = Duration(1 + a/2%16)
		}
		r.newTimer(period, b)
	case 1:
		if n > 0 {
			r.timers[int(b)%n].Reset(Duration(a % 32))
		}
	case 2:
		if n > 0 {
			r.timers[int(b)%n].Stop()
		}
	}
}

// cancel cancels event id unless it belongs to a joined group.
func (r *scriptRun) cancel(id int) {
	if !r.book.grouped[id] {
		r.handles[id].Cancel()
	}
}

// childTarget is where a callback on parent schedules its child, given
// k in 0..3. A heap event's child takes heap kind k, except that k 3
// feeds lane 0 once it exists. A lane event's child goes back on its own
// lane (k 0), on the next lane (k 1), or to heap kind 1 or 2 (k 2, 3).
func (r *scriptRun) childTarget(parent, k byte) byte {
	if parent < laneTarget {
		switch {
		case k < 3:
			return k
		case r.eng.nLanes() > 0:
			return laneTarget
		}
		return 0
	}
	switch k {
	case 0:
		return parent
	case 1:
		return laneTarget + byte((int(parent-laneTarget)+1)%r.eng.nLanes())
	}
	return k - 1
}

// op applies script op (code, a, b) and returns what the engine call
// returned, for comparison.
func (r *scriptRun) op(code, a, b byte) uint64 {
	if code >= timerOps {
		r.timerOp(code, a, b)
		return 0
	}
	switch code % 10 {
	case 0, 1, 2: // Schedule, ScheduleNamed, At
		r.add(code%10, Duration(a%32), b)
	case 3: // cancel any handle: live, already cancelled, or fired
		if len(r.handles) > 0 {
			r.cancel(int(a) % len(r.handles))
		}
	case 4: // b's low bit sets a past horizon
		d := Duration(a % 64)
		if b&1 == 1 {
			d = -d
		}
		return r.eng.Run(r.eng.Now().Add(d))
	case 5:
		if r.eng.Step() {
			return 1
		}
	case 6:
		return r.eng.RunUntilIdle()
	case 7: // cancel the stale handle of the latest firing, whose event a
		// later schedule may already have recycled
		if r.lastFired >= 0 {
			r.handles[r.lastFired].Cancel()
		}
	case 8: // ask for a lane; a zero or repeated delay or name is allowed
		if r.eng.nLanes() < maxLanes {
			r.eng.newLane(Duration(a%8), laneNames[a/8%2])
		}
	case 9: // schedule on a lane (a >= 128 asks to join; see FuzzEngine)
		if n := r.eng.nLanes(); n > 0 {
			r.add(laneTarget+a%byte(n), 0, b)
		}
	}
	return 0
}

// FuzzEngine holds Engine to the reference model (the container/heap
// engine it replaced) over random scripts of heap and lane schedules,
// cancels of live and stale handles, Stop from inside callbacks,
// Run(until) to a future or past horizon, Step and RunUntilIdle. Lanes asked for twice with one delay
// and name must be one lane, and lane and heap events may share a name.
// Timers are reset and stopped from outside callbacks and from inside
// their own; the reference models Reset as Cancel plus ScheduleNamed and
// a periodic firing as a re-arm after the callback, unless the callback
// stopped or reset the timer. For Pending and the high-water mark it
// models the slots the timers own (modelSlot).
//
// A lane send with a >= 128 asks to join the newest event the script has
// scheduled on that lane number. When Lane.Joinable allows it, the engine
// under test runs the new callback at the end of that event's instead of
// scheduling it, while the reference schedules it as usual. The group then
// fires within one Step, so after each op the reference steps until it has
// caught up; the steps must fire exactly the joined callbacks. Neither run
// cancels a member of a group, and no member stops the engine: a Stop
// inside a group lets the rest of it run, by design, which the reference
// cannot model.
//
// After every op the firing sequence, Now, Fired and Pending (both
// counting joined callbacks as events), each timer's Armed, the profile
// (dispatch classes and high-water mark; compared until the first join)
// and the op's return value must agree, and no op may move Now back. The seed corpus is
// testdata/fuzz/FuzzEngine.
func FuzzEngine(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*200 {
			script = script[:3*200]
		}
		under := &engineUnderTest{Engine: NewEngine()}
		under.EnableProfile(NewProfile())
		ref := &referenceEngine{refEngine: newRefEngine()}
		ref.prof = NewProfile()
		book := &joinBook{grouped: map[int]bool{}}
		got := newScriptRun(under, book)
		want := newScriptRun(ref, book)
		for i := 0; i+2 < len(script); i += 3 {
			code, a, b := script[i], script[i+1], script[i+2]
			ran, before := book.ran, got.eng.Now()
			var gr, wr uint64
			if host, lane, ok := joinTarget(under, got, code, a, b); ok {
				got.join(host, lane, b)
				want.add(laneTarget+byte(lane), 0, b)
			} else {
				gr, wr = got.op(code, a, b), want.op(code, a, b)
			}
			var caughtUp uint64
			for len(want.log) < len(got.log) && want.eng.Step() {
				caughtUp++
			}
			step := i / 3
			if now := got.eng.Now(); now < before {
				t.Fatalf("op %d (%d %d %d) moved the clock back from %v to %v", step, code%10, a, b, before, now)
			}
			if gr+uint64(book.ran-ran) != wr+caughtUp {
				t.Fatalf("op %d (%d %d %d) returned %d with %d joined callbacks run, reference %d and %d catch-up steps",
					step, code%10, a, b, gr, book.ran-ran, wr, caughtUp)
			}
			if !reflect.DeepEqual(got.log, want.log) {
				t.Fatalf("op %d: firings %v, reference %v", step, got.log, want.log)
			}
			gf, gp := got.eng.Fired()+uint64(book.ran), got.eng.Pending()+book.queued
			if got.eng.Now() != want.eng.Now() || gf != want.eng.Fired() || gp != want.eng.Pending() {
				t.Fatalf("op %d: now/fired/pending %v/%d/%d, reference %v/%d/%d", step,
					got.eng.Now(), gf, gp, want.eng.Now(), want.eng.Fired(), want.eng.Pending())
			}
			for k, tm := range got.timers {
				if g, w := tm.Armed(), want.timers[k].Armed(); g != w {
					t.Fatalf("op %d: timer %d armed %v, reference %v", step, k, g, w)
				}
			}
			if under.laneErr != "" {
				t.Fatalf("op %d: %s", step, under.laneErr)
			}
			if len(book.grouped) > 0 {
				continue
			}
			if g, w := under.Profile().Describe(), ref.profile().Describe(); g != w {
				t.Fatalf("op %d: profile\n%s\nreference\n%s", step, g, w)
			}
		}
	})
}

// joinTarget reports whether op (code, a, b) asks to join a lane event and
// Lane.Joinable allows it, with the host event's id and the lane number.
// Callbacks that stop the engine are never joined.
func joinTarget(under *engineUnderTest, got *scriptRun, code, a, b byte) (host, lane int, ok bool) {
	n := under.nLanes()
	if code%10 != 9 || a < 128 || n == 0 || b%4 == 1 {
		return 0, 0, false
	}
	lane = int(a % byte(n))
	host, ok = got.newest[lane]
	if !ok || got.behaves[host]%4 == 1 || !under.lanes[lane].Joinable(got.handles[host].(Handle)) {
		return 0, 0, false
	}
	return host, lane, true
}
