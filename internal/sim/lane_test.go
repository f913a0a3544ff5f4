package sim

import "testing"

func TestLaneNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative lane delay did not panic")
		}
	}()
	NewEngine().Lane(-1, "lane")
}

func TestLaneNilCallbackPanics(t *testing.T) {
	l := NewEngine().Lane(1, "lane")
	defer func() {
		if recover() == nil {
			t.Fatal("nil lane callback did not panic")
		}
	}()
	l.Schedule(nil)
}

// Lane events interleave with heap events by (when, seq), carry the
// lane's name, and can be cancelled like heap events.
func TestLaneInterleavesWithHeap(t *testing.T) {
	e := NewEngine()
	p := NewProfile()
	e.EnableProfile(p)
	l := e.Lane(5, "lane")
	var got []string
	note := func(s string) func() { return func() { got = append(got, s) } }
	e.Schedule(5, note("heap@5 first"))
	l.Schedule(note("lane@5"))
	e.Schedule(5, note("heap@5 last"))
	e.Schedule(2, func() {
		got = append(got, "heap@2")
		l.Schedule(note("lane@7"))
		e.Schedule(5, note("heap@7"))
	})
	l.Schedule(note("cancelled")).Cancel()
	e.RunUntilIdle()
	want := []string{"heap@2", "heap@5 first", "lane@5", "heap@5 last", "lane@7", "heap@7"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if n := p.Dispatch()[1]; n.Name != "lane" || n.Count != 2 {
		t.Fatalf("lane class %+v, want lane=2", n)
	}
}

// Pending and the profile's high-water mark count lane slots as well as
// heap slots: the figures equal those of one heap holding every event.
func TestLanePendingAndHighWater(t *testing.T) {
	e := NewEngine()
	p := NewProfile()
	e.EnableProfile(p)
	a, b := e.Lane(3, "a"), e.Lane(0, "b")
	e.Schedule(1, func() {})
	a.Schedule(func() {})
	a.Schedule(func() {})
	b.Schedule(func() {}).Cancel()
	if e.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", e.Pending())
	}
	if p.HeapHighWater() != 4 {
		t.Fatalf("heap high-water = %d, want 4", p.HeapHighWater())
	}
	e.Run(1)
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d after Run(1), want 2", e.Pending())
	}
	e.RunUntilIdle()
	if e.Pending() != 0 || e.Fired() != 3 || p.HeapHighWater() != 4 {
		t.Fatalf("pending %d, fired %d, high-water %d; want 0, 3, 4", e.Pending(), e.Fired(), p.HeapHighWater())
	}
}

// Joinable holds only for the lane's newest event, still pending, due
// when an event scheduled now would be, with nothing scheduled since.
func TestLaneJoinable(t *testing.T) {
	e := NewEngine()
	l, other := e.Lane(3, "lane"), e.Lane(3, "other")
	nop := func() {}
	if l.Joinable(Handle{}) {
		t.Fatal("the zero handle is joinable")
	}
	h := l.Schedule(nop)
	if !l.Joinable(h) {
		t.Fatal("the newest event is not joinable")
	}
	if other.Joinable(h) {
		t.Fatal("another lane's event is joinable")
	}
	o := other.Schedule(nop)
	if l.Joinable(h) {
		t.Fatal("joinable after another lane scheduled")
	}
	if !other.Joinable(o) {
		t.Fatal("the other lane's newest event is not joinable")
	}
	h = l.Schedule(nop)
	e.Schedule(3, nop)
	if l.Joinable(h) {
		t.Fatal("joinable after a heap event due at the same instant")
	}
	h = l.Schedule(nop)
	e.Run(1)
	if l.Joinable(h) {
		t.Fatal("joinable after the clock moved")
	}
	h = l.Schedule(nop)
	h.Cancel()
	if l.Joinable(h) {
		t.Fatal("a cancelled event is joinable")
	}
	h = l.Schedule(nop)
	e.RunUntilIdle()
	l.Schedule(nop) // reuses h's event
	if l.Joinable(h) {
		t.Fatal("a fired event is joinable")
	}
}

// Once the lane's ring and the free list have grown, scheduling and
// dispatching a method-value callback on a lane allocates nothing.
func TestLaneScheduleAllocFree(t *testing.T) {
	e := NewEngine()
	l := e.Lane(1, "lane")
	var c counter
	fn := c.inc
	l.Schedule(fn)
	e.Step()
	if allocs := testing.AllocsPerRun(1000, func() {
		l.Schedule(fn)
		e.Step()
	}); allocs != 0 {
		t.Fatalf("lane schedule+dispatch allocates %v per event, want 0", allocs)
	}
}

// benchPacketTrains injects one train of 12 packets per simulated
// microsecond, each completing a fixed 3.2 µs after injection, over a
// background of 200 self-rescheduling heap events with delays of up to
// 131 µs: the shape of the accelerator pipeline on a loaded node, where
// about four in five dispatches are packet completions. send schedules
// one completion.
func benchPacketTrains(b *testing.B, e *Engine, send func(fn func())) {
	const background, train = 200, 12
	var x uint64 = 1
	var tick func()
	tick = func() {
		x = x*6364136223846793005 + 1442695040888963407
		e.ScheduleNamed(Duration(1+x>>47), "bg", tick)
	}
	for i := 0; i < background; i++ {
		e.ScheduleNamed(Duration(i), "bg", tick)
	}
	var c counter
	complete := c.inc
	b.ReportAllocs()
	b.ResetTimer()
	start := e.Fired()
	for i := 0; i < b.N; i++ {
		for j := 0; j < train; j++ {
			send(complete)
		}
		e.Run(e.Now().Add(Microsecond))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(e.Fired()-start), "ns/event")
	b.ReportMetric(float64(c.n)/float64(e.Fired()-start), "packet-frac")
}

func BenchmarkPacketTrainHeap(b *testing.B) {
	e := NewEngine()
	benchPacketTrains(b, e, func(fn func()) { e.ScheduleNamed(3200, "accel.pipeline", fn) })
}

func BenchmarkPacketTrainLane(b *testing.B) {
	e := NewEngine()
	l := e.Lane(3200, "accel.pipeline")
	benchPacketTrains(b, e, func(fn func()) { l.Schedule(fn) })
}
