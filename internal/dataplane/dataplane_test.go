package dataplane

import (
	"testing"
	"unsafe"

	"repro/internal/accel"
	"repro/internal/sim"
	"repro/internal/trace"
)

func newService(e *sim.Engine, cores int, cfg Config) *Service {
	ids := make([]int, cores)
	for i := range ids {
		ids[i] = i
	}
	return NewService(e, "net", ids, cfg, trace.New(0))
}

func TestProcessesPacketAndReportsDone(t *testing.T) {
	e := sim.NewEngine()
	s := newService(e, 1, Config{})
	var doneAt sim.Time
	p := &accel.Packet{ID: 1, Core: 0, Work: 2 * sim.Microsecond,
		Done: func(_ *accel.Packet, at sim.Time) { doneAt = at }}
	e.At(sim.Time(10*sim.Microsecond), func() { s.Deliver(0, p, 1) })
	e.RunUntilIdle()
	if want := sim.Time(12 * sim.Microsecond); doneAt != want {
		t.Fatalf("done at %v, want %v", doneAt, want)
	}
	if s.TotalProcessed() != 1 {
		t.Fatalf("processed = %d", s.TotalProcessed())
	}
}

func TestBurstLimit(t *testing.T) {
	e := sim.NewEngine()
	s := newService(e, 1, Config{Burst: 4})
	c := s.Core(0)
	var order []int64
	for i := int64(1); i <= 10; i++ {
		p := &accel.Packet{ID: i, Core: 0, Work: sim.Microsecond,
			Done: func(p *accel.Packet, _ sim.Time) { order = append(order, p.ID) }}
		c.Deliver(p, 1)
	}
	e.RunUntilIdle()
	if len(order) != 10 {
		t.Fatalf("processed %d packets", len(order))
	}
	for i, id := range order {
		if id != int64(i+1) {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
	if c.MaxQueueLen < 5 {
		t.Fatalf("MaxQueueLen = %d; burst limit not applied", c.MaxQueueLen)
	}
}

func TestIdleDetectionFiresAfterThreshold(t *testing.T) {
	e := sim.NewEngine()
	s := newService(e, 1, Config{EmptyPollCost: 100})
	c := s.Core(0)
	var idleAt sim.Time = -1
	c.YieldThreshold = func() int { return 50 }
	c.OnIdle = func(*Core) { idleAt = e.Now() }
	s.Start()
	e.Run(sim.Time(sim.Millisecond))
	if idleAt != sim.Time(5000) { // 50 polls × 100ns
		t.Fatalf("idle at %v, want 5µs", idleAt)
	}
}

func TestPacketArrivalCancelsIdleCountdown(t *testing.T) {
	e := sim.NewEngine()
	s := newService(e, 1, Config{EmptyPollCost: 100})
	c := s.Core(0)
	idles := 0
	c.YieldThreshold = func() int { return 100 } // 10µs countdown
	c.OnIdle = func(*Core) { idles++ }
	s.Start()
	// Packet lands at 5µs, inside the countdown: the empty-poll counter
	// resets (Figure 9 line 9).
	e.At(sim.Time(5*sim.Microsecond), func() {
		c.Deliver(&accel.Packet{ID: 1, Core: 0, Work: sim.Microsecond}, 1)
	})
	e.Run(sim.Time(14 * sim.Microsecond))
	if idles != 0 {
		t.Fatalf("idle fired %d times before a full threshold of empty polls", idles)
	}
	e.Run(sim.Time(30 * sim.Microsecond))
	if idles != 1 {
		t.Fatalf("idle did not re-arm after processing; fired %d", idles)
	}
}

func TestYieldResumeLifecycle(t *testing.T) {
	e := sim.NewEngine()
	s := newService(e, 1, Config{})
	c := s.Core(0)
	c.YieldThreshold = func() int { return 10 }
	c.OnIdle = func(c *Core) { c.Yield() }
	s.Start()
	e.Run(sim.Time(10 * sim.Microsecond))
	if c.State() != Yielded {
		t.Fatalf("state %v, want yielded", c.State())
	}
	// Packet arrives while yielded: it queues, no processing.
	var done bool
	c.Deliver(&accel.Packet{ID: 1, Core: 0, Work: sim.Microsecond,
		Done: func(*accel.Packet, sim.Time) { done = true }}, 1)
	e.Run(sim.Time(20 * sim.Microsecond))
	if done {
		t.Fatal("yielded core processed a packet")
	}
	c.Resume()
	e.Run(sim.Time(40 * sim.Microsecond))
	if !done {
		t.Fatal("resumed core did not drain its queue")
	}
	// The core legitimately re-yields after draining (idle re-detected).
	if c.Yields < 1 || c.Resumes != 1 {
		t.Fatalf("yields/resumes = %d/%d", c.Yields, c.Resumes)
	}
}

func TestPollutionPenaltySlowsFirstWork(t *testing.T) {
	e := sim.NewEngine()
	s := newService(e, 1, Config{})
	c := s.Core(0)
	yieldOnce := true
	c.YieldThreshold = func() int { return 10 }
	c.OnIdle = func(c *Core) {
		if yieldOnce {
			yieldOnce = false
			c.Yield()
		}
	}
	s.Start()
	e.Run(sim.Time(5 * sim.Microsecond))
	c.Resume() // polluted now
	var doneAt sim.Time
	start := e.Now()
	c.Deliver(&accel.Packet{ID: 1, Core: 0, Work: pollutionWork,
		Done: func(_ *accel.Packet, at sim.Time) { doneAt = at }}, 1)
	e.RunUntilIdle()
	// The whole 40µs window at 1.35× = 54µs.
	if got := doneAt.Sub(start); got != 54*sim.Microsecond {
		t.Fatalf("polluted work took %v, want 54µs", got)
	}
	// Second packet runs at native speed.
	start = e.Now()
	c.Deliver(&accel.Packet{ID: 2, Core: 0, Work: 10 * sim.Microsecond,
		Done: func(_ *accel.Packet, at sim.Time) { doneAt = at }}, 1)
	e.RunUntilIdle()
	if got := doneAt.Sub(start); got != 10*sim.Microsecond {
		t.Fatalf("post-pollution work took %v, want 10µs", got)
	}
}

func TestTaxFactorInflatesWork(t *testing.T) {
	e := sim.NewEngine()
	s := newService(e, 1, Config{TaxFactor: 1.5})
	var doneAt sim.Time
	s.Deliver(0, &accel.Packet{ID: 1, Core: 0, Work: 10 * sim.Microsecond,
		Done: func(_ *accel.Packet, at sim.Time) { doneAt = at }}, 1)
	e.RunUntilIdle()
	if doneAt != sim.Time(15*sim.Microsecond) {
		t.Fatalf("taxed work finished at %v, want 15µs", doneAt)
	}
}

func TestUtilizationCountsOnlyUsefulWork(t *testing.T) {
	e := sim.NewEngine()
	s := newService(e, 1, Config{})
	c := s.Core(0)
	// 10µs of work across 100µs of wall time → 10%.
	c.Deliver(&accel.Packet{ID: 1, Core: 0, Work: 10 * sim.Microsecond}, 1)
	e.Run(sim.Time(100 * sim.Microsecond))
	got := c.Utilization()
	if got < 0.09 || got > 0.11 {
		t.Fatalf("utilization = %v, want ~0.10", got)
	}
	if mu := s.MeanUtilization(); mu != got {
		t.Fatalf("MeanUtilization = %v", mu)
	}
}

func TestFlowHashing(t *testing.T) {
	e := sim.NewEngine()
	s := newService(e, 4, Config{})
	seen := map[int]bool{}
	for f := 0; f < 16; f++ {
		seen[s.CoreForFlow(f).ID] = true
	}
	if len(seen) != 4 {
		t.Fatalf("flows spread over %d cores, want 4", len(seen))
	}
	if s.CoreForFlow(-3) == nil {
		t.Fatal("negative flow hash")
	}
}

func TestDeliverToUnknownCorePanics(t *testing.T) {
	e := sim.NewEngine()
	s := newService(e, 1, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	s.Deliver(99, &accel.Packet{}, 1)
}

func TestYieldWhileProcessingPanics(t *testing.T) {
	e := sim.NewEngine()
	s := newService(e, 1, Config{})
	c := s.Core(0)
	c.Deliver(&accel.Packet{ID: 1, Core: 0, Work: 10 * sim.Microsecond}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Yield()
}

func TestResetWindows(t *testing.T) {
	e := sim.NewEngine()
	s := newService(e, 2, Config{})
	s.Deliver(0, &accel.Packet{ID: 1, Core: 0, Work: 50 * sim.Microsecond}, 1)
	e.Run(sim.Time(100 * sim.Microsecond))
	s.ResetWindows()
	e.Run(sim.Time(200 * sim.Microsecond))
	if u := s.MeanUtilization(); u != 0 {
		t.Fatalf("utilization after reset = %v, want 0", u)
	}
}

// Two DP cores never share a cache line (see sim.Engine's padding).
func TestCoreFillsWholeCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(Core{}); n%64 != 0 {
		t.Fatalf("Core is %d bytes; resize its padding to reach a multiple of 64", n)
	}
}
