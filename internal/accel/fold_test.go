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

// pipe is what the fold scenario drives: the pipeline or the reference.
type pipe interface {
	Inject(p *Packet)
	InFlight(core int) int
}

// foldStep is one action of a burst: inject a packet for core on pipeline
// pipe; or, when flip is set, flip core to V-state on pipeline pipe's
// probe; or, when mark is set, schedule a heap event due with the packets
// injected now.
type foldStep struct {
	pipe, core int
	flip, mark bool
}

// foldBurst is a heap event at an instant running its steps back to back.
type foldBurst struct {
	at    sim.Time
	steps []foldStep
}

// foldScript draws random bursts on a 400 ns grid, so bursts share
// instants with each other and with the 3.2 µs delivery instants. Bursts
// mix both pipelines, flip probe states between packets and schedule heap
// events due with the packets' completions.
func foldScript(seed int64) []foldBurst {
	r := rand.New(rand.NewSource(seed))
	bursts := make([]foldBurst, 10+r.Intn(30))
	for i := range bursts {
		b := &bursts[i]
		b.at = sim.Time(r.Intn(40)) * 400
		for n := 1 + r.Intn(14); n > 0; n-- {
			s := foldStep{core: r.Intn(4)}
			if r.Intn(3) == 0 {
				s.pipe = 1
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

// runFold plays a script against two pipelines sharing one engine (and so
// one completion lane), each with its own probe, and returns one log of
// every callback, in firing order, plus the trace and the events fired.
// The sink logs each delivery with the in-flight count it sees, and for
// some packets schedules a zero-delay event or injects a follow-up packet
// straight from the sink. Probe IRQs flip the core back to P-state, and
// every third V-state check is swallowed by MissCheck.
func runFold(bursts []foldBurst, build func(*sim.Engine, *Probe, *trace.Tracer, func(int, *Packet)) pipe) ([]string, []trace.Event, uint64) {
	e := sim.NewEngine()
	tr := trace.New(0)
	var log []string
	var pipes [2]pipe
	var probes [2]*Probe
	checks := 0
	for i := range pipes {
		probe := NewProbe(500 * sim.Nanosecond)
		probe.OnIRQ = func(core int) {
			log = append(log, fmt.Sprintf("%v irq pipe%d core%d", e.Now(), i, core))
			probe.SetState(core, PState)
		}
		probe.MissCheck = func(int) bool {
			checks++
			return checks%3 == 0
		}
		probes[i] = probe
		pipes[i] = build(e, probe, tr, func(core int, p *Packet) {
			log = append(log, fmt.Sprintf("%v deliver pipe%d core%d id%d inflight%d",
				e.Now(), i, core, p.ID, pipes[i].InFlight(core)))
			switch {
			case p.ID >= 1000:
				// a follow-up: no further follow-ups
			case p.ID%5 == 0:
				id := p.ID
				e.Schedule(0, func() { log = append(log, fmt.Sprintf("%v zero-delay after id%d", e.Now(), id)) })
			case p.ID%7 == 0:
				pipes[i].Inject(&Packet{ID: 1000 + p.ID, Core: (core + 1) % 4})
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
					e.Schedule(preprocess+transfer, func() { log = append(log, fmt.Sprintf("%v mark", e.Now())) })
					continue
				}
				pipes[s.pipe].Inject(&Packet{Core: s.core})
			}
		})
	}
	e.RunUntilIdle()
	return log, tr.Events(), e.Fired()
}

// Folding a train into one completion event changes nothing but the
// number of events: against the reference that gives every packet its own
// lane event, the log of deliveries (core, ID, instant, in-flight count),
// probe IRQs and zero-delay events, and the trace, are identical. Two
// pipelines share one engine and so one lane, bursts interleave them,
// probe states flip mid-train, heap events due at a train's completion
// instant are scheduled mid-train, MissCheck swallows checks, and the sink
// schedules zero-delay events and injects packets itself.
func TestFoldedCompletionsMatchPerPacketEvents(t *testing.T) {
	folded := func(e *sim.Engine, probe *Probe, tr *trace.Tracer, deliver func(int, *Packet)) pipe {
		return NewPipeline(e, probe, tr, deliver)
	}
	reference := func(e *sim.Engine, probe *Probe, tr *trace.Tracer, deliver func(int, *Packet)) pipe {
		return newRefPipeline(e, probe, tr, deliver)
	}
	var joined uint64
	for seed := int64(1); seed <= 200; seed++ {
		bursts := foldScript(seed)
		got, gotTrace, gotFired := runFold(bursts, folded)
		want, wantTrace, wantFired := runFold(bursts, reference)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: log\n%v\nreference\n%v", seed, got, want)
		}
		if !reflect.DeepEqual(gotTrace, wantTrace) {
			t.Fatalf("seed %d: trace differs from the reference", seed)
		}
		if gotFired > wantFired {
			t.Fatalf("seed %d: fired %d events, reference %d", seed, gotFired, wantFired)
		}
		joined += wantFired - gotFired
	}
	if joined == 0 {
		t.Fatal("no packet ever joined a completion event")
	}
}

// A train injected back to back rides one completion event; a packet for
// another pipeline on the shared lane, or a probe IRQ scheduled mid-train,
// starts a new one.
func TestTrainRidesOneEvent(t *testing.T) {
	e := sim.NewEngine()
	probe := NewProbe(500 * sim.Nanosecond)
	a := NewPipeline(e, probe, nil, func(int, *Packet) {})
	b := NewPipeline(e, nil, nil, func(int, *Packet) {})
	for i := 0; i < 12; i++ {
		a.Inject(&Packet{Core: 0})
	}
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
