package sim

import (
	"reflect"
	"testing"
)

// cancelable is what both engines' Schedule results offer: Handle for
// Engine, *refEvent for the reference model.
type cancelable interface {
	Cancel()
	Canceled() bool
}

// fuzzEngine is the engine surface a fuzz script drives.
type fuzzEngine interface {
	schedule(kind byte, d Duration, fn func()) cancelable
	Stop()
	Step() bool
	Run(until Time) uint64
	RunUntilIdle() uint64
	Now() Time
	Fired() uint64
	Pending() int
}

type engineUnderTest struct{ *Engine }

func (e engineUnderTest) schedule(kind byte, d Duration, fn func()) cancelable {
	switch kind {
	case 0:
		return e.Schedule(d, fn)
	case 1:
		return e.ScheduleNamed(d, "fuzz", fn)
	default:
		return e.At(e.Now().Add(d), fn)
	}
}

type referenceEngine struct{ *refEngine }

func (e referenceEngine) schedule(kind byte, d Duration, fn func()) cancelable {
	switch kind {
	case 0:
		return e.Schedule(d, fn)
	case 1:
		return e.ScheduleNamed(d, "fuzz", fn)
	default:
		return e.At(e.Now().Add(d), fn)
	}
}

// firing is one dispatched event: its script id and the clock it saw.
type firing struct {
	id int
	at Time
}

// scriptRun is one engine executing a fuzz script. Event ids are issued
// in schedule order, so both engines name the same event by the same id.
type scriptRun struct {
	eng       fuzzEngine
	handles   []cancelable
	fired     []bool
	lastFired int // id of the most recent firing, -1 before any
	log       []firing
}

// add schedules event len(handles). Its callback logs the firing and then
// acts on behave: 1 stops the engine, 2 schedules a child that does
// nothing, 3 cancels some handle, which may be live, fired or its own.
func (r *scriptRun) add(kind byte, d Duration, behave byte) {
	id := len(r.handles)
	r.fired = append(r.fired, false)
	r.handles = append(r.handles, r.eng.schedule(kind, d, func() {
		r.fired[id] = true
		r.lastFired = id
		r.log = append(r.log, firing{id, r.eng.Now()})
		switch behave % 4 {
		case 1:
			r.eng.Stop()
		case 2:
			r.add(behave/4%3, Duration(behave/16), 0)
		case 3:
			r.handles[int(behave/4)%len(r.handles)].Cancel()
		}
	}))
}

// op applies script op (code, a, b) and returns what the engine call
// returned, for comparison.
func (r *scriptRun) op(code, a, b byte) uint64 {
	switch code % 8 {
	case 0, 1, 2: // Schedule, ScheduleNamed, At
		r.add(code%8, Duration(a%32), b)
	case 3: // cancel any handle: live, already cancelled, or fired
		if len(r.handles) > 0 {
			r.handles[int(a)%len(r.handles)].Cancel()
		}
	case 4:
		return r.eng.Run(r.eng.Now().Add(Duration(a % 64)))
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
	}
	return 0
}

// FuzzEngine holds Engine to the reference model (the container/heap
// engine it replaced) over random scripts of schedules, cancels of live
// and stale handles, Stop from inside callbacks, Run(until), Step and
// RunUntilIdle. After every op the firing sequence, Now, Fired, Pending,
// the op's return value and Canceled of every unfired event must agree.
// The seed corpus is testdata/fuzz/FuzzEngine.
func FuzzEngine(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*200 {
			script = script[:3*200]
		}
		got := &scriptRun{eng: engineUnderTest{NewEngine()}, lastFired: -1}
		want := &scriptRun{eng: referenceEngine{newRefEngine()}, lastFired: -1}
		for i := 0; i+2 < len(script); i += 3 {
			code, a, b := script[i], script[i+1], script[i+2]
			gr, wr := got.op(code, a, b), want.op(code, a, b)
			step := i / 3
			if gr != wr {
				t.Fatalf("op %d (%d %d %d) returned %d, reference %d", step, code%8, a, b, gr, wr)
			}
			if !reflect.DeepEqual(got.log, want.log) {
				t.Fatalf("op %d: firings %v, reference %v", step, got.log, want.log)
			}
			if got.eng.Now() != want.eng.Now() || got.eng.Fired() != want.eng.Fired() || got.eng.Pending() != want.eng.Pending() {
				t.Fatalf("op %d: now/fired/pending %v/%d/%d, reference %v/%d/%d", step,
					got.eng.Now(), got.eng.Fired(), got.eng.Pending(),
					want.eng.Now(), want.eng.Fired(), want.eng.Pending())
			}
			// The reference marks a fired event cancelled when Cancel
			// comes late; a stale Handle stays uncancelled. Before
			// firing, the two must agree.
			for id := range got.handles {
				if !want.fired[id] && got.handles[id].Canceled() != want.handles[id].Canceled() {
					t.Fatalf("op %d: event %d Canceled %v, reference %v", step, id,
						got.handles[id].Canceled(), want.handles[id].Canceled())
				}
			}
		}
	})
}
