package accel

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/trace"
)

func TestPipelineTiming(t *testing.T) {
	e := sim.NewEngine()
	tr := trace.New(0)
	var deliveredAt sim.Time
	var deliveredCore int
	pl := NewPipeline(e, nil, tr, func(core int, p *Packet, _ int) {
		deliveredAt = e.Now()
		deliveredCore = core
	})
	e.At(sim.Time(10*sim.Microsecond), func() {
		pl.Inject(&Packet{Core: 3, Work: sim.Microsecond})
	})
	e.RunUntilIdle()
	want := sim.Time(10*sim.Microsecond) + sim.Time(3200)
	if deliveredAt != want {
		t.Fatalf("delivered at %v, want %v (arrival+3.2µs)", deliveredAt, want)
	}
	if deliveredCore != 3 {
		t.Fatalf("delivered to core %d", deliveredCore)
	}
	if pl.Window() != 3200 {
		t.Fatalf("Window = %v", pl.Window())
	}
}

func TestPipelineTraceBreakdown(t *testing.T) {
	e := sim.NewEngine()
	tr := trace.New(0)
	pl := NewPipeline(e, nil, tr, func(int, *Packet, int) {})
	for i := 0; i < 5; i++ {
		pl.Inject(&Packet{Core: 0})
	}
	e.RunUntilIdle()
	stages := tr.PacketBreakdown()
	if stages[0].Mean != 2700 || stages[1].Mean != 500 {
		t.Fatalf("breakdown %v/%v, want 2.7µs/500ns", stages[0].Mean, stages[1].Mean)
	}
	if pl.Injected != 5 {
		t.Fatalf("Injected = %d", pl.Injected)
	}
}

func TestProbeFiresOnVState(t *testing.T) {
	e := sim.NewEngine()
	tr := trace.New(0)
	probe := NewProbe(500 * sim.Nanosecond)
	var irqCore = -1
	var irqAt sim.Time
	probe.OnIRQ = func(core int) {
		irqCore = core
		irqAt = e.Now()
	}
	probe.SetState(2, VState)
	pl := NewPipeline(e, probe, tr, func(int, *Packet, int) {})
	e.At(sim.Time(sim.Microsecond), func() { pl.Inject(&Packet{Core: 2}) })
	e.RunUntilIdle()
	if irqCore != 2 {
		t.Fatalf("IRQ core = %d", irqCore)
	}
	// IRQ arrives 500ns after packet arrival — well before the 3.2µs
	// delivery, which is the whole point of the probe.
	if want := sim.Time(sim.Microsecond).Add(500 * sim.Nanosecond); irqAt != want {
		t.Fatalf("IRQ at %v, want %v", irqAt, want)
	}
	if probe.IRQs != 1 {
		t.Fatalf("IRQs = %d", probe.IRQs)
	}
}

func TestProbeSilentOnPState(t *testing.T) {
	e := sim.NewEngine()
	probe := NewProbe(500 * sim.Nanosecond)
	fired := false
	probe.OnIRQ = func(int) { fired = true }
	pl := NewPipeline(e, probe, trace.New(0), func(int, *Packet, int) {})
	pl.Inject(&Packet{Core: 0}) // default P-state
	e.RunUntilIdle()
	if fired {
		t.Fatal("probe fired for P-state core")
	}
}

func TestProbeDisabled(t *testing.T) {
	e := sim.NewEngine()
	probe := NewProbe(500 * sim.Nanosecond)
	probe.Enabled = false
	probe.SetState(0, VState)
	fired := false
	probe.OnIRQ = func(int) { fired = true }
	pl := NewPipeline(e, probe, trace.New(0), func(int, *Packet, int) {})
	pl.Inject(&Packet{Core: 0})
	e.RunUntilIdle()
	if fired {
		t.Fatal("disabled probe fired")
	}
}

func TestProbeStateTable(t *testing.T) {
	p := NewProbe(0)
	if p.State(7) != PState {
		t.Fatal("default state should be P")
	}
	p.SetState(7, VState)
	if p.State(7) != VState {
		t.Fatal("SetState")
	}
	if PState.String() != "P" || VState.String() != "V" {
		t.Fatal("state names")
	}
}

func TestPacketIDsAssigned(t *testing.T) {
	e := sim.NewEngine()
	pl := NewPipeline(e, nil, trace.New(0), func(int, *Packet, int) {})
	a, b := &Packet{Core: 0}, &Packet{Core: 0}
	pl.Inject(a)
	pl.Inject(b)
	if a.ID == 0 || b.ID == 0 || a.ID == b.ID {
		t.Fatalf("IDs %d/%d", a.ID, b.ID)
	}
}

// A train's packets take consecutive IDs from the pipeline's counter and
// leave with them; the caller's packet keeps the first.
func TestTrainIDsCountUp(t *testing.T) {
	e := sim.NewEngine()
	var ids []int64
	pl := NewPipeline(e, nil, nil, perPacket(func(_ int, p *Packet) { ids = append(ids, p.ID) }))
	pl.Inject(&Packet{Core: 0})
	train := &Packet{Core: 1}
	pl.InjectTrain(train, 4)
	pl.Inject(&Packet{ID: 77, Core: 0})
	pl.Inject(&Packet{Core: 0})
	e.RunUntilIdle()
	if want := []int64{1, 2, 3, 4, 5, 77, 7}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("delivered IDs %v, want %v", ids, want)
	}
	if train.ID != 2 || pl.Injected != 7 {
		t.Fatalf("train ID %d, Injected %d; want 2, 7", train.ID, pl.Injected)
	}
}

// A train of fewer than one packet, or a train whose first ID the caller
// chose, is malformed: the IDs of its later packets would collide with the
// pipeline's own.
func TestMalformedTrainPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Packet
		n    int
	}{
		{"empty", Packet{}, 0},
		{"negative", Packet{}, -3},
		{"chosen ID", Packet{ID: 9}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pl := NewPipeline(sim.NewEngine(), nil, nil, func(int, *Packet, int) {})
			defer func() {
				if recover() == nil {
					t.Fatalf("InjectTrain(%+v, %d) did not panic", tc.p, tc.n)
				}
			}()
			pl.InjectTrain(&tc.p, tc.n)
		})
	}
}

func TestNilSinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil sink did not panic")
		}
	}()
	NewPipeline(sim.NewEngine(), nil, nil, nil)
}

// closureInject is Inject as it was before the in-flight FIFO: one
// closure per packet carrying the packet and its arrival instant. It is
// the reference for TestPipelineDeliversInArrivalOrder.
func closureInject(e *sim.Engine, tr *trace.Tracer, nextID *int64, deliver func(int, *Packet), p *Packet) {
	now := e.Now()
	p.Arrival = now
	*nextID++
	if p.ID == 0 {
		p.ID = *nextID
	}
	tr.Emit(now, trace.KindPacketArrive, p.Core, p.ID, "")
	e.ScheduleNamed(preprocess+transfer, "accel.pipeline", func() {
		tr.Emit(now.Add(preprocess), trace.KindPacketPreprocessDone, p.Core, p.ID, "")
		tr.Emit(e.Now(), trace.KindPacketDelivered, p.Core, p.ID, "")
		deliver(p.Core, p)
	})
}

// perPacket adapts a per-packet sink to the pipeline's run sink: it
// hands the sink each packet of the run in turn, with its own ID.
func perPacket(deliver func(int, *Packet)) func(int, *Packet, int) {
	return func(core int, p *Packet, n int) {
		q := *p
		for range n {
			deliver(core, &q)
			q.ID++
		}
	}
}

// Packets injected at several instants (some landing on a delivery
// instant) and for several cores leave in arrival order, at arrival plus
// the window, with the trace records the per-packet closures produced.
func TestPipelineDeliversInArrivalOrder(t *testing.T) {
	type delivery struct {
		id   int64
		core int
		at   sim.Time
	}
	arrivals := []struct {
		at    sim.Time
		cores []int
	}{
		{0, []int{2, 0, 1}},
		{1000, []int{1}},
		{1000, []int{0, 2}},
		{3200, []int{3, 1}}, // lands with the first deliveries
		{4200, []int{0}},
		{9000, []int{2, 2, 2}},
	}
	run := func(inject func(e *sim.Engine, tr *trace.Tracer, deliver func(int, *Packet)) func(*Packet)) ([]delivery, []trace.Event) {
		e := sim.NewEngine()
		tr := trace.New(0)
		var got []delivery
		in := inject(e, tr, func(core int, p *Packet) {
			got = append(got, delivery{p.ID, core, e.Now()})
		})
		for _, a := range arrivals {
			cores := a.cores
			e.At(a.at, func() {
				for _, c := range cores {
					in(&Packet{Core: c})
				}
			})
		}
		e.RunUntilIdle()
		return got, tr.Events()
	}
	got, gotTrace := run(func(e *sim.Engine, tr *trace.Tracer, deliver func(int, *Packet)) func(*Packet) {
		return NewPipeline(e, nil, tr, perPacket(deliver)).Inject
	})
	want, wantTrace := run(func(e *sim.Engine, tr *trace.Tracer, deliver func(int, *Packet)) func(*Packet) {
		var nextID int64
		return func(p *Packet) { closureInject(e, tr, &nextID, deliver, p) }
	})
	if len(got) != 12 {
		t.Fatalf("delivered %d packets, want 12", len(got))
	}
	for i, d := range got {
		if d.id != int64(i+1) {
			t.Fatalf("delivery %d is packet %d, want arrival order", i, d.id)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("deliveries %v, reference %v", got, want)
	}
	if !reflect.DeepEqual(gotTrace, wantTrace) {
		t.Fatalf("trace differs from the reference:\n got %v\nwant %v", gotTrace, wantTrace)
	}
}

// Once the in-flight ring has grown, injecting a caller-owned packet or
// train and completing it allocates nothing.
func TestPipelineInjectAllocFree(t *testing.T) {
	e := sim.NewEngine()
	probe := NewProbe(500 * sim.Nanosecond)
	pl := NewPipeline(e, probe, nil, func(int, *Packet, int) {})
	pkts := make([]Packet, 4)
	cycle := func() {
		for i := range pkts {
			pkts[i] = Packet{Core: i}
			pl.Inject(&pkts[i])
		}
		pkts[0] = Packet{Core: 1}
		pl.InjectTrain(&pkts[0], 12)
		e.RunUntilIdle()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("inject+complete of %d packets and a train allocates %v, want 0", len(pkts), allocs)
	}
}

// Two pipelines never share a cache line (see sim.Engine's padding).
func TestPipelineFillsWholeCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(Pipeline{}); n%64 != 0 {
		t.Fatalf("Pipeline is %d bytes; resize its padding to reach a multiple of 64", n)
	}
}
