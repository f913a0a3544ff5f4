package accel

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// refPipeline is the pipeline before completions were folded: one lane
// event per packet, each delivering the oldest in-flight packet. It is the
// reference for TestFoldedCompletionsMatchPerPacketEvents.
type refPipeline struct {
	engine   *sim.Engine
	tracer   *trace.Tracer
	probe    *Probe
	deliver  func(core int, p *Packet)
	nextID   int64
	inFlight []int
	queue    sim.FIFO[Packet]
	cur      Packet
	lane     *sim.Lane
}

func newRefPipeline(engine *sim.Engine, probe *Probe, tracer *trace.Tracer, deliver func(int, *Packet)) *refPipeline {
	pl := &refPipeline{engine: engine, tracer: tracer, probe: probe, deliver: deliver}
	pl.lane = engine.Lane(preprocess+transfer, "accel.pipeline")
	if probe != nil {
		probe.inFlight = pl.InFlight
		probe.engine = engine
		probe.tracer = tracer
	}
	return pl
}

func (pl *refPipeline) InFlight(core int) int {
	if core < 0 || core >= len(pl.inFlight) {
		return 0
	}
	return pl.inFlight[core]
}

func (pl *refPipeline) Inject(p *Packet) {
	now := pl.engine.Now()
	p.Arrival = now
	pl.nextID++
	if p.ID == 0 {
		p.ID = pl.nextID
	}
	pl.inFlight = grow(pl.inFlight, p.Core)
	pl.inFlight[p.Core]++
	pl.queue.Push(*p)
	pl.tracer.Emit(now, trace.KindPacketArrive, p.Core, p.ID, "")
	if pl.probe != nil {
		pl.probe.inspect(p.Core)
	}
	pl.lane.Schedule(pl.completeOldest)
}

func (pl *refPipeline) completeOldest() {
	pl.cur = pl.queue.Pop()
	p := &pl.cur
	pl.tracer.Emit(p.Arrival.Add(preprocess), trace.KindPacketPreprocessDone, p.Core, p.ID, "")
	pl.tracer.Emit(pl.engine.Now(), trace.KindPacketDelivered, p.Core, p.ID, "")
	pl.inFlight[p.Core]--
	pl.deliver(p.Core, p)
}

// train injects n packets for core one by one, the way a train rides the
// pipeline when it is no run. It returns the last packet's ID.
func (pl *refPipeline) train(core, n int) int64 {
	var p Packet
	for range n {
		p = Packet{Core: core}
		pl.Inject(&p)
	}
	return p.ID
}

// refRuns adapts the reference's per-packet sink to a run sink: every
// packet is a run of 1.
func refRuns(deliver func(int, *Packet, int)) func(int, *Packet) {
	return func(core int, p *Packet) { deliver(core, p, 1) }
}

// runs drives the pipeline under test with whole trains.
type runs struct{ *Pipeline }

func (pl runs) train(core, n int) int64 {
	p := Packet{Core: core}
	pl.InjectTrain(&p, n)
	return p.ID + int64(n) - 1
}

// pipe is what the fold scenario drives: the pipeline or the reference.
type pipe interface {
	Inject(p *Packet)
	// train injects a train of n packets for core and returns its last ID.
	train(core, n int) int64
	InFlight(core int) int
}

// foldStep is one action of a burst: inject a train of n packets for core
// on pipeline pipe; or, when flip is set, flip core to V-state on pipeline
// pipe's probe; or, when mark is set, schedule a heap event due with the
// packets injected now.
type foldStep struct {
	pipe, core, n int
	flip, mark    bool
}

// foldBurst is a heap event at an instant running its steps back to back.
type foldBurst struct {
	at    sim.Time
	steps []foldStep
}

// foldScript draws random bursts on a 400 ns grid, so bursts share
// instants with each other and with the 3.2 µs delivery instants. Bursts
// mix both pipelines, inject trains of 1 to 40 packets, flip probe states
// between trains and schedule heap events due with the packets'
// completions.
func foldScript(seed int64) []foldBurst {
	r := rand.New(rand.NewSource(seed))
	bursts := make([]foldBurst, 10+r.Intn(30))
	for i := range bursts {
		b := &bursts[i]
		b.at = sim.Time(r.Intn(40)) * 400
		for n := 1 + r.Intn(14); n > 0; n-- {
			s := foldStep{core: r.Intn(4), n: 1}
			if r.Intn(3) == 0 {
				s.pipe = 1
			}
			if r.Intn(2) == 0 {
				s.n = 1 + r.Intn(40)
			}
			switch r.Intn(10) {
			case 0:
				s.flip = true
			case 1:
				s.mark = true
			}
			b.steps = append(b.steps, s)
		}
	}
	return bursts
}

// followUp offsets the IDs of the packets the sink injects, past any ID
// the pipelines assign themselves.
const followUp = 1 << 30

// foldRun is what one play of a script observed.
type foldRun struct {
	// log holds every callback in firing order: each packet's delivery
	// (core, ID, instant), probe IRQs, zero-delay events and marks.
	log []string
	// inFlight maps (pipe, ID) of the last packet of each delivered run to
	// the in-flight count the sink saw.
	inFlight map[[2]int64]int
	// split counts delivered runs that end before their train does.
	split int
	trace []trace.Event
	fired uint64
}

// runFold plays a script against two pipelines sharing one engine (and so
// one completion lane), each with its own probe. The sink logs each packet
// it is handed, for some packets schedules a zero-delay event, and for
// some packets that end a train injects a follow-up packet straight from
// the sink (a follow-up from mid-run would trace its arrival after the
// rest of the run, where the reference traces it between two packets).
// Probe IRQs flip the core back to P-state, and every third V-state check
// is swallowed by MissCheck, so a train in V-state can fire its IRQ from
// a packet after its first and be split there.
func runFold(bursts []foldBurst, build func(*sim.Engine, *Probe, *trace.Tracer, func(int, *Packet, int)) pipe) foldRun {
	e := sim.NewEngine()
	tr := trace.New(0)
	out := foldRun{inFlight: map[[2]int64]int{}}
	var pipes [2]pipe
	var probes [2]*Probe
	var last [2]map[int64]bool // IDs that end a train
	checks := 0
	for i := range pipes {
		probe := NewProbe(500 * sim.Nanosecond)
		probe.OnIRQ = func(core int) {
			out.log = append(out.log, fmt.Sprintf("%v irq pipe%d core%d", e.Now(), i, core))
			probe.SetState(core, PState)
		}
		probe.MissCheck = func(int) bool {
			checks++
			return checks%3 == 0
		}
		probes[i] = probe
		last[i] = map[int64]bool{}
		pipes[i] = build(e, probe, tr, func(core int, p *Packet, n int) {
			end := p.ID + int64(n) - 1
			out.inFlight[[2]int64{int64(i), end}] = pipes[i].InFlight(core)
			if end < followUp && !last[i][end] {
				out.split++
			}
			for id := p.ID; id <= end; id++ {
				out.log = append(out.log, fmt.Sprintf("%v deliver pipe%d core%d id%d", e.Now(), i, core, id))
				switch {
				case id >= followUp:
					// a follow-up: no further follow-ups
				case id%5 == 0:
					e.Schedule(0, func() { out.log = append(out.log, fmt.Sprintf("%v zero-delay after id%d", e.Now(), id)) })
				case id%3 == 0 && last[i][id]:
					pipes[i].Inject(&Packet{ID: followUp + id, Core: (core + 1) % 4})
				}
			}
		})
	}
	for _, b := range bursts {
		e.At(b.at, func() {
			for _, s := range b.steps {
				switch {
				case s.flip:
					probes[s.pipe].SetState(s.core, VState)
					continue
				case s.mark:
					e.Schedule(preprocess+transfer, func() { out.log = append(out.log, fmt.Sprintf("%v mark", e.Now())) })
					continue
				}
				last[s.pipe][pipes[s.pipe].train(s.core, s.n)] = true
			}
		})
	}
	e.RunUntilIdle()
	out.trace, out.fired = tr.Events(), e.Fired()
	return out
}

// Folding a train into one completion event, and carrying it as one run,
// changes nothing but the number of events and of sink calls: against the
// reference that injects a train packet by packet and gives every packet
// its own lane event and its own delivery, the log of deliveries (core,
// ID, instant), probe IRQs and zero-delay events, and the trace, packet
// kinds included, are identical. The in-flight count a run's sink call
// sees is the reference's at the run's last packet. Two pipelines share
// one engine and so one lane, bursts interleave them, probe states flip
// between trains, MissCheck swallows checks mid-train so IRQs split
// trains, heap events due at a train's completion instant are scheduled
// mid-burst, and the sink schedules zero-delay events and injects packets
// itself.
func TestFoldedCompletionsMatchPerPacketEvents(t *testing.T) {
	folded := func(e *sim.Engine, probe *Probe, tr *trace.Tracer, deliver func(int, *Packet, int)) pipe {
		return runs{NewPipeline(e, probe, tr, deliver)}
	}
	reference := func(e *sim.Engine, probe *Probe, tr *trace.Tracer, deliver func(int, *Packet, int)) pipe {
		return newRefPipeline(e, probe, tr, refRuns(deliver))
	}
	var joined uint64
	split := 0
	for seed := int64(1); seed <= 200; seed++ {
		bursts := foldScript(seed)
		got, want := runFold(bursts, folded), runFold(bursts, reference)
		if !reflect.DeepEqual(got.log, want.log) {
			t.Fatalf("seed %d: log\n%v\nreference\n%v", seed, got.log, want.log)
		}
		if !reflect.DeepEqual(got.trace, want.trace) {
			t.Fatalf("seed %d: trace differs from the reference", seed)
		}
		for k, n := range got.inFlight {
			if w, ok := want.inFlight[k]; !ok || w != n {
				t.Fatalf("seed %d: pipe%d saw %d in flight at id%d, reference %d", seed, k[0], n, k[1], w)
			}
		}
		if got.fired > want.fired {
			t.Fatalf("seed %d: fired %d events, reference %d", seed, got.fired, want.fired)
		}
		joined += want.fired - got.fired
		split += got.split
	}
	if joined == 0 {
		t.Fatal("no packet ever joined a completion event")
	}
	if split == 0 {
		t.Fatal("no train was ever split between completion events")
	}
}

// A train injected back to back rides one completion event; a packet for
// another pipeline on the shared lane, or a probe IRQ scheduled mid-train,
// starts a new one.
func TestTrainRidesOneEvent(t *testing.T) {
	e := sim.NewEngine()
	probe := NewProbe(500 * sim.Nanosecond)
	a := NewPipeline(e, probe, nil, func(int, *Packet, int) {})
	b := NewPipeline(e, nil, nil, func(int, *Packet, int) {})
	for i := 0; i < 6; i++ {
		a.Inject(&Packet{Core: 0})
	}
	a.InjectTrain(&Packet{Core: 0}, 6)
	if e.Pending() != 1 {
		t.Fatalf("a 12-packet train left %d events pending, want 1", e.Pending())
	}
	b.Inject(&Packet{Core: 0})
	a.Inject(&Packet{Core: 0})
	if e.Pending() != 3 {
		t.Fatalf("%d events pending after interleaving pipelines, want 3", e.Pending())
	}
	probe.SetState(1, VState)
	a.Inject(&Packet{Core: 1}) // fires the probe IRQ first
	a.Inject(&Packet{Core: 1})
	if e.Pending() != 5 {
		t.Fatalf("%d events pending after a probe IRQ, want 5", e.Pending())
	}
	if n := e.RunUntilIdle(); n != 5 {
		t.Fatalf("fired %d events, want 5", n)
	}
}
