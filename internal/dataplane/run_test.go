package dataplane

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/accel"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// refCore is the DP core before trains were queued as runs: every packet
// is its own queue entry, is popped on its own and pays its own costing.
// It is the reference for TestRunsMatchPerPacketCore.
type refCore struct {
	engine       *sim.Engine
	tracer       *trace.Tracer
	cfg          Config
	state        CoreState
	down         bool
	queue        sim.FIFO[accel.Packet]
	batch        []accel.Packet
	cost         sim.Duration
	finishFn     func()
	idle         *sim.Timer
	pollutedWork sim.Duration
	conns        *connTable
	// inTrain marks each packet that a later packet of its train
	// follows; windowEnds counts the pollution windows that ended on such
	// a packet with its successor in the same burst, so inside one run of
	// the run-queueing core.
	inTrain    map[int64]bool
	windowEnds int

	YieldThreshold func() int
	OnIdle         func()
	Gauge          *metrics.BusyGauge

	Processed   uint64
	WorkTime    sim.Duration
	Yields      uint64
	Resumes     uint64
	MaxQueueLen int
}

func newRefCore(e *sim.Engine, cfg Config, tr *trace.Tracer) *refCore {
	cfg.applyDefaults()
	c := &refCore{engine: e, tracer: tr, cfg: cfg, inTrain: map[int64]bool{}, Gauge: metrics.NewBusyGauge("ref", e.Now())}
	c.idle = e.NewTimer(0, "dp.idle-poll", c.idleExpired)
	c.finishFn = c.finish
	return c
}

func (c *refCore) Deliver(p *accel.Packet) {
	c.queue.Push(*p)
	if c.queue.Len() > c.MaxQueueLen {
		c.MaxQueueLen = c.queue.Len()
	}
	if c.state == Polling && !c.down {
		c.idle.Stop()
		c.processNext()
	}
}

func (c *refCore) processNext() {
	if c.down {
		c.state = Polling
		c.Gauge.SetBusy(c.engine.Now(), false)
		return
	}
	if c.queue.Len() == 0 {
		c.state = Polling
		c.Gauge.SetBusy(c.engine.Now(), false)
		c.armIdle()
		return
	}
	c.state = Processing
	n := min(c.cfg.Burst, c.queue.Len())
	c.batch = c.batch[:0]
	var cost sim.Duration
	for i := range n {
		c.batch = append(c.batch, c.queue.Pop())
		p := &c.batch[len(c.batch)-1]
		w := p.Work
		if c.conns != nil {
			w += c.conns.cost(p.Flow, p.SYN, p.FIN)
		}
		w = sim.Duration(float64(w) * c.cfg.TaxFactor)
		if c.pollutedWork > 0 {
			slowed := w
			if slowed > c.pollutedWork {
				slowed = c.pollutedWork
			}
			cost += sim.Duration(float64(slowed) * pollutionFactor)
			cost += w - slowed
			c.pollutedWork -= slowed
			if c.pollutedWork == 0 && c.inTrain[p.ID] && i < n-1 {
				c.windowEnds++
			}
		} else {
			cost += w
		}
	}
	c.Gauge.SetBusy(c.engine.Now(), true)
	c.cost = cost
	c.engine.ScheduleNamed(cost, "dp.batch", c.finishFn)
}

func (c *refCore) finish() {
	now := c.engine.Now()
	c.WorkTime += c.cost
	for i := range c.batch {
		p := &c.batch[i]
		c.Processed++
		c.tracer.Emit(now, trace.KindPacketProcessed, 0, p.ID, "")
		if p.Done != nil {
			p.Done(p, now)
		}
	}
	c.processNext()
}

func (c *refCore) armIdle() {
	if c.OnIdle == nil || c.YieldThreshold == nil || c.idle.Armed() || c.down {
		return
	}
	n := c.YieldThreshold()
	if n <= 0 {
		n = 1
	}
	c.idle.Reset(sim.Duration(n) * c.cfg.EmptyPollCost)
}

func (c *refCore) idleExpired() {
	if c.state == Polling && c.queue.Len() == 0 {
		c.tracer.Emit(c.engine.Now(), trace.KindYield, 0, 0, "idle-detected")
		c.OnIdle()
	}
}

func (c *refCore) Yield() {
	c.idle.Stop()
	c.state = Yielded
	c.Yields++
}

func (c *refCore) Resume() {
	c.state = Polling
	c.Resumes++
	c.pollutedWork = pollutionWork
	c.tracer.Emit(c.engine.Now(), trace.KindPreempt, 0, 0, "dp-resume")
	if c.down {
		return
	}
	if c.queue.Len() > 0 {
		c.processNext()
	} else {
		c.armIdle()
	}
}

func (c *refCore) SetDown(down bool) {
	if c.down == down {
		return
	}
	c.down = down
	if down {
		c.idle.Stop()
		return
	}
	if c.state == Polling {
		if c.queue.Len() > 0 {
			c.processNext()
		} else {
			c.armIdle()
		}
	}
}

// dpCore is what the run scenario drives: a core or the reference, with
// its idle hook and burst observer wired by the builder.
type dpCore interface {
	// train lands n packets that are p but for their IDs, which count up
	// from p.ID.
	train(p *accel.Packet, n int)
	State() CoreState
	Down() bool
	Yield()
	Resume()
	SetDown(down bool)
	stats() dpStats
}

// dpStats is a core's end state.
type dpStats struct {
	Processed, Yields, Resumes uint64
	WorkTime                   sim.Duration
	MaxQueueLen, QueueLen      int
	Utilization                float64
	State                      CoreState
}

type runCore struct{ *Core }

func (c runCore) train(p *accel.Packet, n int) { c.Deliver(p, n) }

func (c runCore) stats() dpStats {
	return dpStats{c.Processed, c.Yields, c.Resumes, c.WorkTime, c.MaxQueueLen, c.QueueLen(), c.Utilization(), c.state}
}

func (c *refCore) train(p *accel.Packet, n int) {
	q := *p
	for i := range n {
		c.inTrain[q.ID] = i < n-1
		c.Deliver(&q)
		q.ID++
	}
}

func (c *refCore) Down() bool { return c.down }

func (c *refCore) State() CoreState { return c.state }

func (c *refCore) stats() dpStats {
	return dpStats{c.Processed, c.Yields, c.Resumes, c.WorkTime, c.MaxQueueLen, c.queue.Len(),
		c.Gauge.Utilization(c.engine.Now()), c.state}
}

// dpAction is one scripted step at an instant: land a train, or (when
// op is set) try to yield, resume or toggle the core offline.
type dpAction struct {
	at    sim.Time
	op    byte // 0 train, 'y' yield, 'r' resume, 'd' toggle down
	p     accel.Packet
	n     int
	done  bool
	probe bool // Done of some packets toggles the core offline
}

// dpScript is a cost model and the actions a seed draws.
type dpScript struct {
	cfg       Config
	conntrack bool
	actions   []dpAction
}

// drawDP draws a script: a cost model with a small burst limit and a
// TaxFactor other than 1, or defaults, conntrack on or off, and trains of
// 1 to 40 packets landing on a 200 ns grid among yields, resumes and
// offline toggles.
func drawDP(seed int64) dpScript {
	r := rand.New(rand.NewSource(seed))
	s := dpScript{conntrack: r.Intn(2) == 0}
	s.cfg.EmptyPollCost = sim.Duration(50 + r.Intn(100))
	s.cfg.Burst = []int{1, 2, 3, 5, 8, 32}[r.Intn(6)]
	s.cfg.TaxFactor = []float64{1, 1.5, 0.7, 1.37}[r.Intn(4)]
	id := int64(1)
	for range 20 + r.Intn(60) {
		a := dpAction{at: sim.Time(r.Intn(1000)) * 200}
		switch r.Intn(8) {
		case 0:
			a.op = 'y'
		case 1:
			a.op = 'r'
		case 2:
			a.op = 'd'
		default:
			a.n = 1 + r.Intn(40)
			a.p = accel.Packet{ID: id, Work: sim.Duration(100 + r.Intn(3000)), Flow: r.Intn(6),
				SYN: r.Intn(4) == 0, FIN: r.Intn(6) == 0}
			a.done = r.Intn(2) == 0
			a.probe = r.Intn(4) == 0
			id += int64(a.n)
		}
		s.actions = append(s.actions, a)
	}
	return s
}

// dpRun is what one play of a script observed.
type dpRun struct {
	// log holds, in firing order, each Done callback (packet ID and
	// finish instant), each dp.batch (instant, packets, cost and
	// MaxQueueLen so far), idle reports and the scripted ops that applied.
	log   []string
	trace []trace.Event
	stats dpStats
	fired uint64
	// split reports a train whose packets finished at different instants.
	split bool
}

// playDP plays a script against one core. A yield is tried only on a
// polling core and a resume only on a yielded one; every other idle
// report yields the core. A Done callback of a probing train takes the
// core offline or back on mid-train.
func playDP(s dpScript, tr *trace.Tracer, build func(*sim.Engine, Config, *trace.Tracer, *[]string) (dpCore, func(func()))) dpRun {
	e := sim.NewEngine()
	var out dpRun
	c, onIdle := build(e, s.cfg, tr, &out.log)
	idles := 0
	onIdle(func() {
		idles++
		out.log = append(out.log, fmt.Sprintf("%v idle", e.Now()))
		if idles%2 == 1 {
			c.Yield()
		}
	})
	for _, a := range s.actions {
		e.At(a.at, func() {
			switch a.op {
			case 'y':
				if c.State() == Polling {
					out.log = append(out.log, fmt.Sprintf("%v yield", e.Now()))
					c.Yield()
				}
			case 'r':
				if c.State() == Yielded {
					out.log = append(out.log, fmt.Sprintf("%v resume", e.Now()))
					c.Resume()
				}
			case 'd':
				out.log = append(out.log, fmt.Sprintf("%v down=%v", e.Now(), !c.Down()))
				c.SetDown(!c.Down())
			default:
				p := a.p
				if a.done {
					first := sim.Time(-1)
					p.Done = func(p *accel.Packet, at sim.Time) {
						if first < 0 {
							first = at
						}
						out.split = out.split || at != first
						out.log = append(out.log, fmt.Sprintf("%v done id%d", at, p.ID))
						if a.probe && p.ID%3 == 0 {
							c.SetDown(!c.Down())
						}
					}
				}
				c.train(&p, a.n)
			}
		})
	}
	e.RunUntilIdle()
	out.stats, out.fired = c.stats(), e.Fired()
	if tr != nil {
		out.trace = tr.Events()
	}
	return out
}

// buildRun builds the run-queueing core, observing its bursts.
func buildRun(conntrack bool) func(*sim.Engine, Config, *trace.Tracer, *[]string) (dpCore, func(func())) {
	return func(e *sim.Engine, cfg Config, tr *trace.Tracer, log *[]string) (dpCore, func(func())) {
		s := NewService(e, "net", []int{0}, cfg, tr)
		if conntrack {
			s.EnableConnTrack(4)
		}
		c := s.Core(0)
		c.done = e.NewTimer(0, "dp.batch", func() {
			n := 0
			for _, r := range c.batch {
				n += r.N
			}
			*log = append(*log, fmt.Sprintf("%v batch n=%d cost=%v maxq=%d", e.Now(), n, c.cost, c.MaxQueueLen))
			c.finish()
		})
		c.YieldThreshold = func() int { return 8 }
		return runCore{c}, func(f func()) { c.OnIdle = func(*Core) { f() } }
	}
}

// buildRef builds the per-packet reference, observing its bursts.
func buildRef(conntrack bool) func(*sim.Engine, Config, *trace.Tracer, *[]string) (dpCore, func(func())) {
	return func(e *sim.Engine, cfg Config, tr *trace.Tracer, log *[]string) (dpCore, func(func())) {
		c := newRefCore(e, cfg, tr)
		if conntrack {
			c.conns = newConnTable(4)
		}
		c.finishFn = func() {
			*log = append(*log, fmt.Sprintf("%v batch n=%d cost=%v maxq=%d", e.Now(), len(c.batch), c.cost, c.MaxQueueLen))
			c.finish()
		}
		c.YieldThreshold = func() int { return 8 }
		return c, func(f func()) { c.OnIdle = f }
	}
}

// Queueing a train as one run, splitting it where the burst limit falls
// and costing its taxed work once, changes nothing: against the reference
// that queues and costs every packet on its own, each packet's Done (ID,
// finish instant), every dp.batch (instant, size, cost, MaxQueueLen so
// far), the idle reports,
// the trace and the core's end state and counters are identical. Scripts
// land trains of 1 to 40 packets among yields, resumes and offline
// toggles, some from a Done callback mid-train, under burst limits that
// split runs, pollution windows that end mid-run, taxed work, and
// conntrack on and off. Each script runs traced and untraced, so both
// finish paths are covered.
func TestRunsMatchPerPacketCore(t *testing.T) {
	var splits, windowEnds int
	for seed := int64(1); seed <= 300; seed++ {
		s := drawDP(seed)
		for _, traced := range []bool{true, false} {
			var gotTr, wantTr *trace.Tracer
			if traced {
				gotTr, wantTr = trace.New(0), trace.New(0)
			}
			var ref *refCore
			got := playDP(s, gotTr, buildRun(s.conntrack))
			want := playDP(s, wantTr, func(e *sim.Engine, cfg Config, tr *trace.Tracer, log *[]string) (dpCore, func(func())) {
				c, onIdle := buildRef(s.conntrack)(e, cfg, tr, log)
				ref = c.(*refCore)
				return c, onIdle
			})
			if !reflect.DeepEqual(got.log, want.log) {
				t.Fatalf("seed %d traced=%v cfg %+v conntrack=%v: log\n%v\nreference\n%v", seed, traced, s.cfg, s.conntrack, got.log, want.log)
			}
			if !reflect.DeepEqual(got.trace, want.trace) {
				t.Fatalf("seed %d: trace differs from the reference", seed)
			}
			if got.stats != want.stats || got.fired != want.fired {
				t.Fatalf("seed %d traced=%v: end state %+v fired %d, reference %+v fired %d", seed, traced, got.stats, got.fired, want.stats, want.fired)
			}
			// Without conntrack a run is costed at once, so a window
			// that ends inside it takes charge's mid-run exit.
			if traced && !s.conntrack && ref.windowEnds > 0 {
				windowEnds++
			}
		}
		if playDP(s, nil, buildRun(s.conntrack)).split {
			splits++
		}
	}
	if splits == 0 || windowEnds == 0 {
		t.Fatalf("%d scripts split runs, %d end a pollution window inside a run; want both", splits, windowEnds)
	}
}

// A run of fewer than one packet is malformed.
func TestEmptyRunPanics(t *testing.T) {
	c := newService(sim.NewEngine(), 1, Config{}).Core(0)
	defer func() {
		if recover() == nil {
			t.Fatal("Deliver of 0 packets did not panic")
		}
	}()
	c.Deliver(&accel.Packet{}, 0)
}
