// Package dataplane models the poll-mode data-plane services (the DPDK
// and SPDK analogues) that own the SmartNIC's DP cores: busy-poll receive
// loops, burst processing with a calibrated per-packet cost, the
// consecutive-empty-poll idle detection of Figure 9, the NotifyIdle hook
// Tai Chi's software workload probe consumes, and the cache/TLB pollution
// penalty paid after a vCPU borrows a DP core (§6.5).
package dataplane

import (
	"fmt"
	"math"

	"repro/internal/accel"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// CoreState is the DP core's poll-loop state.
type CoreState uint8

// Core states.
const (
	// Polling: busy-polling an empty queue.
	Polling CoreState = iota
	// Processing: crunching a burst of packets.
	Processing
	// Yielded: the core is lent to a vCPU; the poll loop is paused.
	Yielded
)

// String names the state.
func (s CoreState) String() string {
	switch s {
	case Polling:
		return "polling"
	case Processing:
		return "processing"
	case Yielded:
		return "yielded"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Config is the DP service cost model.
type Config struct {
	// EmptyPollCost is one empty rx_burst iteration (Figure 9 line 5).
	EmptyPollCost sim.Duration
	// Burst is the maximum packets consumed per poll.
	Burst int
	// TaxFactor multiplies all processing work; 1.0 for native execution,
	// >1 models the nested-page-table/VM-exit tax of running the DP in a
	// vCPU context (the Tai Chi-vDP / type-1 baseline, §6.3).
	TaxFactor float64
}

// The cold-cache penalty every DP core pays after a vCPU vacates it
// (cold caches and TLBs, §6.5): the first pollutionWork of work runs
// pollutionFactor slower.
const (
	pollutionWork   = 40 * sim.Microsecond
	pollutionFactor = 1.35
)

// DefaultConfig returns the network-DP cost model.
func DefaultConfig() Config {
	return Config{
		EmptyPollCost: 100 * sim.Nanosecond,
		Burst:         32,
		TaxFactor:     1.0,
	}
}

// Validate rejects a negative or NaN field, naming it. Zero means the
// default.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"EmptyPollCost", float64(c.EmptyPollCost)},
		{"Burst", float64(c.Burst)},
		{"TaxFactor", c.TaxFactor},
	} {
		if f.v < 0 || math.IsNaN(f.v) {
			return fmt.Errorf("%s = %v: negative or NaN", f.name, f.v)
		}
	}
	return nil
}

func (c *Config) applyDefaults() {
	d := DefaultConfig()
	if c.EmptyPollCost == 0 {
		c.EmptyPollCost = d.EmptyPollCost
	}
	if c.Burst == 0 {
		c.Burst = d.Burst
	}
	if c.TaxFactor == 0 {
		c.TaxFactor = d.TaxFactor
	}
}

// Core is one data-plane core's poll loop.
type Core struct {
	ID      int
	service *Service
	engine  *sim.Engine
	tracer  *trace.Tracer
	cfg     *Config

	state CoreState
	down  bool // hardware offline (fault injection); queue accrues
	// queue holds the received packets, by value, oldest first, one run
	// per train; queued counts the packets in it.
	queue  sim.FIFO[accel.Run]
	queued int
	// batch is the burst being processed and cost its total work; one
	// burst per core is in flight at a time, so both are reused. A run
	// that the burst limit splits leaves its tail at the queue's front.
	batch        []accel.Run
	cost         sim.Duration
	done         *sim.Timer // the burst's completion; fires c.finish
	idle         *sim.Timer // the empty-poll countdown; fires c.idleExpired
	pollutedWork sim.Duration
	// conns is the optional per-core connection table (EnableConnTrack).
	conns *connTable

	// YieldThreshold returns the consecutive-empty-poll count N that
	// confirms idleness (Figure 9 line 13). Tai Chi's software workload
	// probe supplies an adaptive value; nil disables yielding entirely
	// (the static baseline).
	YieldThreshold func() int

	// OnIdle fires when the empty-poll count crosses the threshold — the
	// notify_idle_DP_CPU_cycles() call of Figure 9 line 14.
	OnIdle func(c *Core)

	// Gauge tracks useful-work busy time (the paper's "DP CPU
	// utilization": busy-polling an empty queue counts as idle cycles).
	Gauge *metrics.BusyGauge

	// Stats.
	Processed   uint64
	WorkTime    sim.Duration
	Yields      uint64
	Resumes     uint64
	MaxQueueLen int
	// Padding to whole cache lines, for the reason sim.Engine gives: a
	// fleet's DP cores sit side by side and are written per burst.
	// TestCoreFillsWholeCacheLines holds the size to a multiple of 64.
	_ [32]byte
}

// State returns the core's poll-loop state.
func (c *Core) State() CoreState { return c.state }

// QueueLen returns the number of packets waiting.
func (c *Core) QueueLen() int { return c.queued }

// Deliver lands a copy of n preprocessed packets of one train, a run
// headed by p, in the core's receive queue (the accelerator pipeline's
// sink); p is not retained. The packets land one after another: on a
// polling core the first starts a burst at once and the rest queue behind
// it; a yielded core leaves them for the probe/slice machinery to trigger
// resumption.
func (c *Core) Deliver(p *accel.Packet, n int) {
	if n < 1 {
		panic(fmt.Sprintf("dataplane: run of %d packets", n))
	}
	r := c.queue.Append()
	r.Packet = *p
	r.N = n
	c.queued += n
	if c.state == Polling && !c.down {
		first := c.queued - n + 1 // the queue as the first packet sees it
		c.MaxQueueLen = max(c.MaxQueueLen, first)
		c.idle.Stop()
		c.processNext(first)
	}
	c.MaxQueueLen = max(c.MaxQueueLen, c.queued)
}

// processNext consumes the next burst, at most avail packets, or returns
// to polling. Only a polling core starts a burst (Deliver, Resume and
// SetDown check), and the burst's own completion calls it again, so one
// burst is in flight at most: c.done is never reset while armed, and a
// burst that starts from the last one's completion re-keys the timer's
// heap slot in place.
func (c *Core) processNext(avail int) {
	if c.down {
		c.state = Polling
		c.Gauge.SetBusy(c.engine.Now(), false)
		return
	}
	if avail == 0 {
		c.state = Polling
		c.Gauge.SetBusy(c.engine.Now(), false)
		c.armIdle()
		return
	}
	c.state = Processing
	c.batch = c.batch[:0]
	var cost sim.Duration
	for n := min(c.cfg.Burst, avail); n > 0; {
		r := c.queue.Front()
		k := min(n, r.N)
		// Fill the batch slot in place: append(c.batch, *r) would copy
		// the run through a temporary, a measurable cost per packet.
		c.batch = append(c.batch, accel.Run{})
		b := &c.batch[len(c.batch)-1]
		*b = *r
		if k == r.N {
			c.queue.Drop()
		} else {
			b.N = k
			r.ID += int64(k)
			r.N -= k
		}
		c.queued -= k
		n -= k
		p := &b.Packet
		if c.conns == nil {
			cost += c.charge(c.taxed(p.Work), k)
			continue
		}
		for range k {
			cost += c.charge(c.taxed(p.Work+c.conns.cost(p.Flow, p.SYN, p.FIN)), 1)
		}
	}
	c.Gauge.SetBusy(c.engine.Now(), true)
	c.cost = cost
	c.done.Reset(cost)
}

// taxed is the time w of work takes on this core.
func (c *Core) taxed(w sim.Duration) sim.Duration {
	return sim.Duration(float64(w) * c.cfg.TaxFactor)
}

// charge returns the cost of k packets of taxed work w each. Cold-cache
// penalty: the first pollutionWork of work after a vCPU vacates the core
// runs pollutionFactor slower, packet by packet; the packets after the
// window each cost w.
func (c *Core) charge(w sim.Duration, k int) sim.Duration {
	var cost sim.Duration
	for ; k > 0 && c.pollutedWork > 0; k-- {
		slowed := min(w, c.pollutedWork)
		cost += sim.Duration(float64(slowed)*pollutionFactor) + w - slowed
		c.pollutedWork -= slowed
	}
	return cost + w*sim.Duration(k)
}

// finish completes the burst in flight and starts the next one. Each
// packet counts, is traced and sees its Done callback in turn, with its
// own ID; a run whose packets need neither a record nor a callback
// counts at once.
func (c *Core) finish() {
	now := c.engine.Now()
	c.WorkTime += c.cost
	traced := c.tracer.Records(trace.KindPacketProcessed)
	for i := range c.batch {
		r := &c.batch[i]
		if !traced && r.Done == nil {
			c.Processed += uint64(r.N)
			continue
		}
		p, first := &r.Packet, r.ID
		for id := range int64(r.N) {
			p.ID = first + id
			c.Processed++
			c.tracer.Emit(now, trace.KindPacketProcessed, c.ID, p.ID, "")
			if p.Done != nil {
				p.Done(p, now)
			}
		}
	}
	c.processNext(c.queued)
}

// armIdle starts the consecutive-empty-poll countdown; when it expires
// the core reports idle CPU cycles upward.
func (c *Core) armIdle() {
	if c.OnIdle == nil || c.YieldThreshold == nil || c.idle.Armed() || c.down {
		return
	}
	n := c.YieldThreshold()
	if n <= 0 {
		n = 1
	}
	c.idle.Reset(sim.Duration(n) * c.cfg.EmptyPollCost)
}

// idleExpired ends the empty-poll countdown: a core still polling an
// empty queue reports itself idle.
func (c *Core) idleExpired() {
	if c.state == Polling && c.queued == 0 {
		c.tracer.Emit(c.engine.Now(), trace.KindYield, c.ID, 0, "idle-detected")
		c.OnIdle(c)
	}
}

// Yield lends the core to the vCPU scheduler. Only valid when polling.
func (c *Core) Yield() {
	if c.state != Polling {
		panic(fmt.Sprintf("dataplane: yielding core %d in state %v", c.ID, c.state))
	}
	c.idle.Stop()
	c.state = Yielded
	c.Yields++
}

// Resume returns the core to the DP service after a vCPU vacated it,
// applying the cold-cache pollution window. Queued packets are processed
// immediately.
func (c *Core) Resume() {
	if c.state != Yielded {
		panic(fmt.Sprintf("dataplane: resuming core %d in state %v", c.ID, c.state))
	}
	c.state = Polling
	c.Resumes++
	c.pollutedWork = pollutionWork
	c.tracer.Emit(c.engine.Now(), trace.KindPreempt, c.ID, 0, "dp-resume")
	if c.down {
		return // offline: queued packets wait for SetDown(false)
	}
	if c.queued > 0 {
		c.processNext(c.queued)
	} else {
		c.armIdle()
	}
}

// Down reports whether the core is marked hardware-offline.
func (c *Core) Down() bool { return c.down }

// SetDown marks the core offline/online — the fault-injection layer's DP
// core offline/online event. While down the core neither processes its
// queue nor reports idle cycles (so it is never lent); arriving packets
// accrue in the queue. Bringing the core back resumes processing
// immediately. The vCPU scheduler is responsible for evicting any
// occupant before marking a lent core down (Scheduler.SetCoreDown).
func (c *Core) SetDown(down bool) {
	if c.down == down {
		return
	}
	c.down = down
	if down {
		c.idle.Stop()
		return
	}
	if c.state == Polling {
		if c.queued > 0 {
			c.processNext(c.queued)
		} else {
			c.armIdle()
		}
	}
}

// Utilization returns the useful-work busy fraction since the last
// window reset.
func (c *Core) Utilization() float64 { return c.Gauge.Utilization(c.engine.Now()) }

// Service is one data-plane service (networking or storage) owning a set
// of DP cores.
type Service struct {
	Name   string
	engine *sim.Engine
	cfg    Config
	cores  []*Core
}

// NewService builds a DP service over the given physical core ids.
func NewService(engine *sim.Engine, name string, coreIDs []int, cfg Config, tracer *trace.Tracer) *Service {
	cfg.applyDefaults()
	if len(coreIDs) == 0 {
		panic("dataplane: service needs at least one core")
	}
	s := &Service{Name: name, engine: engine, cfg: cfg}
	for _, id := range coreIDs {
		c := &Core{
			ID:      id,
			service: s,
			engine:  engine,
			tracer:  tracer,
			cfg:     &s.cfg,
			state:   Polling,
			Gauge:   metrics.NewBusyGauge(fmt.Sprintf("%s.core%d", name, id), engine.Now()),
		}
		c.idle = engine.NewTimer(0, "dp.idle-poll", c.idleExpired)
		c.done = engine.NewTimer(0, "dp.batch", c.finish)
		s.cores = append(s.cores, c)
	}
	return s
}

// Cores returns the service's cores.
func (s *Service) Cores() []*Core { return s.cores }

// Core returns the core with the given physical id, or nil. The hot path
// routes through platform.Node.DPCore; this scan serves tests and setup.
func (s *Service) Core(id int) *Core {
	for _, c := range s.cores {
		if c.ID == id {
			return c
		}
	}
	return nil
}

// CoreForFlow maps a flow hash to a core (receive-side scaling).
func (s *Service) CoreForFlow(flow int) *Core {
	if flow < 0 {
		flow = -flow
	}
	return s.cores[flow%len(s.cores)]
}

// Deliver routes a run of n packets headed by p to its destination core.
// Packets addressed to cores outside this service panic — a mis-wired
// experiment, not a runtime condition.
func (s *Service) Deliver(core int, p *accel.Packet, n int) {
	c := s.Core(core)
	if c == nil {
		panic(fmt.Sprintf("dataplane: %s has no core %d", s.Name, core))
	}
	c.Deliver(p, n)
}

// Start arms idle detection on every core (no-op when yielding is
// disabled).
func (s *Service) Start() {
	for _, c := range s.cores {
		c.armIdle()
	}
}

// TotalProcessed sums processed packets across cores.
func (s *Service) TotalProcessed() uint64 {
	var n uint64
	for _, c := range s.cores {
		n += c.Processed
	}
	return n
}

// MeanUtilization averages useful-work utilization across cores.
func (s *Service) MeanUtilization() float64 {
	var sum float64
	for _, c := range s.cores {
		sum += c.Utilization()
	}
	return sum / float64(len(s.cores))
}

// ResetWindows restarts utilization windows on all cores.
func (s *Service) ResetWindows() {
	now := s.engine.Now()
	for _, c := range s.cores {
		c.Gauge.ResetWindow(now)
	}
}
