package sim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestScheduleFiresInOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.Schedule(30, func() { got = append(got, e.Now()) })
	e.Schedule(10, func() { got = append(got, e.Now()) })
	e.Schedule(20, func() { got = append(got, e.Now()) })
	e.RunUntilIdle()
	want := []Time{10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestFIFOAmongEqualTimestamps(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.RunUntilIdle()
	for i, v := range got {
		if v != i {
			t.Fatalf("equal-timestamp events fired out of order: got[%d]=%d", i, v)
		}
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	ev.Cancel()
	e.RunUntilIdle()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Pending() != 0 || e.Fired() != 0 {
		t.Fatalf("pending %d, fired %d after discarding the cancelled event; want 0, 0", e.Pending(), e.Fired())
	}
}

// A cancelled event is recycled once it is discarded, and its handle goes
// stale: cancelling it again must leave the event's next life alone.
func TestCancelledEventRecycled(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(1, func() { t.Fatal("cancelled event fired") })
	a.Cancel()
	e.RunUntilIdle()
	bFired := false
	b := e.Schedule(1, func() { bFired = true })
	if a.ev != b.ev {
		t.Fatal("B did not reuse A's discarded event")
	}
	a.Cancel()
	e.RunUntilIdle()
	if !bFired {
		t.Fatal("cancelling A's stale handle cancelled B")
	}
}

func TestRunHorizonAdvancesClock(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {})
	e.Run(50)
	if e.Now() != 50 {
		t.Fatalf("Now = %v after Run(50), want 50", e.Now())
	}
	e.Run(200)
	if e.Now() != 200 {
		t.Fatalf("Now = %v after Run(200), want 200", e.Now())
	}
	if e.Fired() != 1 {
		t.Fatalf("Fired = %d, want 1", e.Fired())
	}
}

func TestRunFiresEventAtExactHorizon(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(50, func() { fired = true })
	e.Run(50)
	if !fired {
		t.Fatal("event at exactly the horizon did not fire")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.RunUntilIdle()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	e.Schedule(1, nil)
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	n := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Duration(i+1), func() {
			n++
			if n == 3 {
				e.Stop()
			}
		})
	}
	e.RunUntilIdle()
	if n != 3 {
		t.Fatalf("ran %d events after Stop, want 3", n)
	}
	// Resume drains the rest.
	e.RunUntilIdle()
	if n != 10 {
		t.Fatalf("resume ran to %d, want 10", n)
	}
}

// TestStopLeavesClockAtStop requires Run to leave the clock at the
// stopping event's instant whether or not another event is pending: a
// stop used to advance the clock to the horizon only when the queue
// happened to be empty.
func TestStopLeavesClockAtStop(t *testing.T) {
	for _, pending := range []bool{false, true} {
		e := NewEngine()
		e.Schedule(10, e.Stop)
		if pending {
			e.Schedule(50, func() {})
		}
		e.Run(100)
		if e.Now() != 10 {
			t.Errorf("pending=%v: Now() = %v after a stop at 10, want 10", pending, e.Now())
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recur func()
	recur = func() {
		depth++
		if depth < 100 {
			e.Schedule(1, recur)
		}
	}
	e.Schedule(1, recur)
	e.RunUntilIdle()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
}

// A periodic timer fires every period, first one period after Reset,
// and stays armed through its callback until the callback stops it.
func TestPeriodicTimer(t *testing.T) {
	e := NewEngine()
	var at []Time
	var tm *Timer
	tm = e.NewTimer(10, "tick", func() {
		if !tm.Armed() {
			t.Errorf("periodic timer disarmed inside its callback at %v", e.Now())
		}
		at = append(at, e.Now())
		if len(at) == 5 {
			tm.Stop()
		}
	})
	tm.Reset(10)
	e.Run(1000)
	if want := []Time{10, 20, 30, 40, 50}; !reflect.DeepEqual(at, want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
	if tm.Armed() {
		t.Fatal("stopped timer still armed")
	}
	if s, _ := e.next(); s != nil {
		t.Fatalf("timer left live events queued")
	}
}

// A one-shot timer is disarmed inside its callback, Reset moves a pending
// firing, and a Reset inside the callback re-arms it.
func TestOneShotTimer(t *testing.T) {
	e := NewEngine()
	var at []Time
	var tm *Timer
	tm = e.NewTimer(0, "once", func() {
		if tm.Armed() {
			t.Errorf("one-shot timer armed inside its callback at %v", e.Now())
		}
		at = append(at, e.Now())
		if len(at) == 1 {
			tm.Reset(7)
		}
	})
	tm.Reset(5)
	tm.Reset(3) // moves the pending firing from 5 to 3
	if !tm.Armed() {
		t.Fatal("reset timer not armed")
	}
	e.Run(100)
	if want := []Time{3, 10}; !reflect.DeepEqual(at, want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
	if tm.Armed() {
		t.Fatal("fired one-shot timer still armed")
	}
	tm.Stop() // stopping a disarmed timer is a no-op
}

// profiled returns an engine with a profile installed, and the profile.
func profiled() (*Engine, *Profile) {
	e, p := NewEngine(), NewProfile()
	e.EnableProfile(p)
	return e, p
}

// firings returns a callback that logs the instants it runs at.
func firings(e *Engine, at *[]Time) func() {
	return func() { *at = append(*at, e.Now()) }
}

// Resets to later deadlines move the timer's one slot instead of queueing
// a slot each; the stale slot is re-keyed when it surfaces, without
// counting as a step.
func TestTimerResetKeepsOneSlot(t *testing.T) {
	const n = 8
	e, p := profiled()
	var at []Time
	tm := e.NewTimer(0, "t", firings(e, &at))
	for i := 1; i <= n; i++ {
		tm.Reset(Duration(i))
	}
	if e.Pending() != 1 || p.HeapHighWater() != 1 {
		t.Fatalf("%d later resets: pending %d, high-water %d; want 1, 1", n, e.Pending(), p.HeapHighWater())
	}
	if !e.Step() || e.Now() != n || e.Fired() != 1 {
		t.Fatalf("one step: now %v, fired %d; want %v, 1", e.Now(), e.Fired(), Time(n))
	}
	if e.Step() || e.Pending() != 0 || !reflect.DeepEqual(at, []Time{n}) {
		t.Fatalf("fired at %v with %d pending, want [%d] and 0", at, e.Pending(), n)
	}
}

// A Reset to an earlier deadline cannot reuse the slot: it pushes a fresh
// one, which a later Reset then keeps, and the timer fires once, at the
// last deadline.
func TestTimerResetEarlierPushesSlot(t *testing.T) {
	e, p := profiled()
	var at []Time
	tm := e.NewTimer(0, "t", firings(e, &at))
	tm.Reset(10)
	tm.Reset(3)
	if e.Pending() != 2 {
		t.Fatalf("pending %d after an earlier reset, want 2", e.Pending())
	}
	tm.Reset(6)
	if e.Pending() != 2 || p.HeapHighWater() != 2 {
		t.Fatalf("pending %d, high-water %d after a later reset; want 2, 2", e.Pending(), p.HeapHighWater())
	}
	e.RunUntilIdle()
	if !reflect.DeepEqual(at, []Time{6}) || e.Fired() != 1 || e.Pending() != 0 {
		t.Fatalf("fired at %v (%d events), %d pending; want [6], 1, 0", at, e.Fired(), e.Pending())
	}
}

// Stop leaves the slot queued until it surfaces; a Reset before then
// reuses it, and a stopped timer's slot is dropped without a step.
func TestTimerStopThenResetReusesSlot(t *testing.T) {
	e, p := profiled()
	var at []Time
	tm := e.NewTimer(0, "t", firings(e, &at))
	tm.Reset(10)
	tm.Stop()
	if e.Pending() != 1 {
		t.Fatalf("pending %d after Stop, want the slot still queued", e.Pending())
	}
	tm.Reset(15)
	if e.Pending() != 1 || p.HeapHighWater() != 1 {
		t.Fatalf("pending %d, high-water %d after Stop and Reset; want 1, 1", e.Pending(), p.HeapHighWater())
	}
	e.Run(20)
	if !reflect.DeepEqual(at, []Time{15}) {
		t.Fatalf("fired at %v, want [15]", at)
	}
	tm.Reset(5)
	tm.Stop()
	if e.Step() || e.Fired() != 1 || e.Pending() != 0 {
		t.Fatalf("stopped timer: fired %d, pending %d; want 1, 0", e.Fired(), e.Pending())
	}
}

// A timer fires in place: its slot stays queued while the callback runs,
// and a periodic re-arm re-keys that slot instead of pushing another.
func TestTimerPeriodicRearmInPlace(t *testing.T) {
	e, p := profiled()
	var at []Time
	tm := e.NewTimer(10, "tick", func() {
		at = append(at, e.Now())
		if e.Pending() != 1 {
			t.Errorf("pending %d inside the callback at %v, want its slot", e.Pending(), e.Now())
		}
	})
	tm.Reset(10)
	e.Run(50)
	if want := []Time{10, 20, 30, 40, 50}; !reflect.DeepEqual(at, want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
	if e.Pending() != 1 || p.HeapHighWater() != 1 {
		t.Fatalf("pending %d, high-water %d; want 1, 1", e.Pending(), p.HeapHighWater())
	}
}

// Property: for any set of delays, events fire in non-decreasing time order
// and every non-cancelled event fires exactly once.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16, cancelMask []bool) bool {
		e := NewEngine()
		type rec struct {
			at    Time
			fired bool
		}
		recs := make([]rec, len(delays))
		events := make([]Handle, len(delays))
		var order []Time
		for i, d := range delays {
			i := i
			events[i] = e.Schedule(Duration(d), func() {
				recs[i].fired = true
				recs[i].at = e.Now()
				order = append(order, e.Now())
			})
		}
		for i := range delays {
			if i < len(cancelMask) && cancelMask[i] {
				events[i].Cancel()
			}
		}
		e.RunUntilIdle()
		if !sort.SliceIsSorted(order, func(a, b int) bool { return order[a] < order[b] }) {
			return false
		}
		for i := range delays {
			cancelled := i < len(cancelMask) && cancelMask[i]
			if cancelled && recs[i].fired {
				return false
			}
			if !cancelled {
				if !recs[i].fired || recs[i].at != Time(delays[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// A fires and B reuses A's event; A's handle is then stale, so
// cancelling it must leave B alone.
func TestStaleHandleCancelIsNoop(t *testing.T) {
	e := NewEngine()
	a := e.Schedule(1, func() {})
	e.RunUntilIdle()
	bFired := false
	b := e.Schedule(1, func() { bFired = true })
	if a.ev != b.ev {
		t.Fatal("B did not reuse A's fired event")
	}
	a.Cancel()
	e.RunUntilIdle()
	if !bFired {
		t.Fatal("cancelling A's stale handle cancelled B")
	}
}

type counter struct{ n int }

func (c *counter) inc() { c.n++ }

// Once the heap and free list have grown, scheduling and dispatching a
// method-value callback allocates nothing, and neither does a timer.
func TestScheduleDispatchAllocFree(t *testing.T) {
	e := NewEngine()
	var c counter
	fn := c.inc
	e.Schedule(1, fn)
	e.Step()
	if allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(1, fn)
		e.Step()
	}); allocs != 0 {
		t.Fatalf("schedule+dispatch allocates %v per event, want 0", allocs)
	}
	once := e.NewTimer(0, "once", c.inc)
	if allocs := testing.AllocsPerRun(1000, func() {
		once.Reset(1)
		e.Step()
	}); allocs != 0 {
		t.Fatalf("one-shot timer allocates %v per reset and firing, want 0", allocs)
	}
	tick := e.NewTimer(1, "tick", c.inc)
	tick.Reset(1)
	e.Step()
	if allocs := testing.AllocsPerRun(1000, func() { e.Step() }); allocs != 0 {
		t.Fatalf("periodic timer allocates %v per tick, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		tick.Reset(2)
		e.Step()
	}); allocs != 0 {
		t.Fatalf("periodic timer allocates %v per reset and firing, want 0", allocs)
	}
	tick.Stop()
}

// A cancelled event is recycled once it is discarded, so a cycle that
// cancels as often as it fires allocates nothing either.
func TestCancelDiscardAllocFree(t *testing.T) {
	e := NewEngine()
	var c counter
	fn := c.inc
	cycle := func() {
		e.Schedule(1, fn).Cancel()
		e.Schedule(2, fn)
		e.RunUntilIdle()
	}
	cycle()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("schedule+cancel+discard allocates %v per cycle, want 0", allocs)
	}
	if c.n != 1002 { // warm-up, AllocsPerRun's own warm-up, 1000 runs
		t.Fatalf("%d events fired, want 1002", c.n)
	}
}

// Property: identical seeds yield identical streams; distinct names yield
// distinct streams.
func TestPropertyRNGDeterminism(t *testing.T) {
	f := func(seed int64, name string) bool {
		a := NewRNG(seed).Stream(name)
		b := NewRNG(seed).Stream(name)
		for i := 0; i < 16; i++ {
			if a.Int63() != b.Int63() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	r := NewRNG(42)
	a, b := r.Stream("alpha"), r.Stream("beta")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams alpha/beta collide on %d of 64 draws", same)
	}
}

func TestExponentialMean(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var sum Duration
	const n = 200000
	const mean = 10 * Microsecond
	for i := 0; i < n; i++ {
		sum += Exponential(r, mean)
	}
	got := float64(sum) / n
	if got < 0.97*float64(mean) || got > 1.03*float64(mean) {
		t.Fatalf("empirical mean %.0f ns, want ~%d ns", got, mean)
	}
}

func TestUniformBounds(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		d := Uniform(r, 5, 15)
		if d < 5 || d > 15 {
			t.Fatalf("Uniform out of bounds: %d", d)
		}
	}
	if Uniform(r, 20, 10) != 20 {
		t.Fatal("degenerate Uniform should return lo")
	}
}

func TestJitterBounds(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 10000; i++ {
		d := Jitter(r, 1000, 0.1)
		if d < 900 || d > 1100 {
			t.Fatalf("Jitter out of ±10%%: %d", d)
		}
	}
	if Jitter(r, 0, 0.5) != 0 {
		t.Fatal("Jitter(0) should be 0")
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2µs"},
		{2700, "2.7µs"},
		{3 * Millisecond, "3ms"},
		{1500 * Millisecond, "1.5s"},
		{-2 * Microsecond, "-2µs"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	var tm Time = 1000
	if tm.Add(500) != 1500 {
		t.Fatal("Add")
	}
	if tm.Sub(400) != 600 {
		t.Fatal("Sub")
	}
	if !tm.Before(2000) || tm.After(2000) {
		t.Fatal("Before/After")
	}
	if Time(3200).Microseconds() != 3.2 {
		t.Fatal("Microseconds")
	}
}

// Two engines never share a cache line: sized to whole lines, each
// engine in its size class's span starts and ends on a line boundary.
func TestEngineFillsWholeCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(Engine{}); n%64 != 0 {
		t.Fatalf("Engine is %d bytes; resize its padding to reach a multiple of 64", n)
	}
}
