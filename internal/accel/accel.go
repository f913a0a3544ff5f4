// Package accel models the SmartNIC's programmable I/O hardware
// accelerator: the per-packet preprocessing pipeline whose timing creates
// the paper's Figure 6 window (2.7 µs preprocess + 0.5 µs transfer), and
// the ~30-line hardware workload probe (§4.3, Figure 10) that inspects the
// destination CPU's V/P state *before* preprocessing begins and fires an
// early IRQ so that vCPU preemption overlaps the preprocessing window.
package accel

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Packet is one I/O request (network packet or storage command) flowing
// through the accelerator into a data-plane service.
type Packet struct {
	ID int64
	// Core is the destination data-plane physical core.
	Core int
	// Arrival is when the request hit the accelerator.
	Arrival sim.Time
	// Work is the software processing cost the DP service will pay.
	Work sim.Duration
	// Flow identifies the connection/queue the packet belongs to, for DP
	// services with connection tracking enabled.
	Flow int
	// SYN / FIN mark flow-opening and flow-closing packets.
	SYN, FIN bool
	// Done, if non-nil, fires when the DP service finishes the packet. Its
	// pointer aims into the DP core's own buffer and is valid only during
	// the call: a callback that keeps the packet copies *p.
	Done func(p *Packet, finished sim.Time)
}

// Run is one queue entry for a packet train: N packets that are Packet
// but for their IDs, which count up from Packet.ID. The pipeline and the
// DP cores queue trains as runs, so a train costs one copy, not N.
type Run struct {
	Packet
	N int
}

// CoreState is the per-core state the hardware workload probe maintains:
// P-state (pCPU context: DP service resident, interrupts masked) or
// V-state (vCPU context: a CP vCPU holds the core).
type CoreState uint8

// Core states tracked by the probe.
const (
	// PState: DP service owns the core; the probe stays silent.
	PState CoreState = iota
	// VState: a vCPU occupies the core; an arriving packet triggers an IRQ.
	VState
)

// String names the state.
func (s CoreState) String() string {
	if s == PState {
		return "P"
	}
	return "V"
}

// Probe is the hardware workload probe. The vCPU scheduler updates the
// per-core state table; the pipeline consults it on every packet arrival.
type Probe struct {
	// Enabled turns the probe on; the "Tai Chi w/o HW probe" ablation of
	// Table 5 sets this false.
	Enabled bool
	// IRQLatency is the accelerator→CPU interrupt delivery time.
	IRQLatency sim.Duration
	// OnIRQ receives the early preemption request for a core.
	OnIRQ func(core int)
	// MissCheck, when non-nil, is consulted before the probe fires for a
	// V-state core; returning true swallows the arrival check (a
	// hardware-probe miss). Installed by the fault-injection layer only —
	// it must stay nil in fault-free runs so no RNG draws are added.
	MissCheck func(core int) bool

	// Misses counts arrival checks swallowed by MissCheck.
	Misses uint64

	// cores is the per-core state table, indexed by core id and grown on
	// first write; a core past its end is in P-state with nothing pending.
	cores []probeCore
	// IRQs counts probe interrupts fired, for overhead accounting.
	IRQs uint64

	// inFlight reports packets currently inside the accelerator pipeline
	// for a core (wired by NewPipeline). The probe consults it when a core
	// flips to V-state: packets that passed the arrival check before the
	// flip must still trigger the early preemption IRQ.
	inFlight func(core int) int
	engine   *sim.Engine
	tracer   *trace.Tracer
}

// probeCore is one core's row in the probe's state table.
type probeCore struct {
	state CoreState
	// pending marks a preemption request already in flight; the request
	// is level-triggered, so further packet arrivals for the same V-state
	// episode do not fire duplicate IRQs. Cleared when the scheduler flips
	// the core back to P-state.
	pending bool
}

// NewProbe returns an enabled probe with every core in P-state.
func NewProbe(irqLatency sim.Duration) *Probe {
	return &Probe{Enabled: true, IRQLatency: irqLatency}
}

// core returns the core's row, growing the table to hold it.
func (p *Probe) core(core int) *probeCore {
	p.cores = grow(p.cores, core)
	return &p.cores[core]
}

// grow extends a per-core table so that index core is valid.
func grow[T any](s []T, core int) []T {
	if core < 0 {
		panic(fmt.Sprintf("accel: negative core id %d", core))
	}
	if core >= len(s) {
		s = append(s, make([]T, core+1-len(s))...)
	}
	return s
}

// SetState updates a core's V/P state (called by the vCPU scheduler,
// steps 5 and 4 of Figure 7b). Flipping a core to V-state while packets
// for it are still inside the preprocessing pipeline fires the IRQ
// immediately — those packets passed the arrival check before the flip.
func (p *Probe) SetState(core int, s CoreState) {
	c := p.core(core)
	c.state = s
	if s == PState {
		c.pending = false
		return
	}
	if p.Enabled && p.inFlight != nil && p.inFlight(core) > 0 {
		if p.MissCheck != nil && p.MissCheck(core) {
			p.Misses++
			return
		}
		p.fire(core, "inflight-at-vstate")
	}
}

// State returns the core's current state (default P-state).
func (p *Probe) State(core int) CoreState { return p.row(core).state }

// row returns the core's row, or the zero row for a core never written.
func (p *Probe) row(core int) probeCore {
	if core < 0 || core >= len(p.cores) {
		return probeCore{}
	}
	return p.cores[core]
}

// inspect runs the probe's arrival check: in V-state it fires the IRQ.
// The state is NOT flipped here — the vCPU scheduler transitions it to
// P-state once the DP context is restored, which also makes repeated
// arrivals during the switch harmless (the scheduler ignores duplicates).
func (p *Probe) inspect(core int) {
	if !p.watches(core) {
		return
	}
	if p.MissCheck != nil && p.MissCheck(core) {
		p.Misses++
		return
	}
	p.fire(core, "vstate-hit")
}

// watches reports whether an arrival for core would reach the probe's
// check: the probe is enabled and the core is in V-state.
func (p *Probe) watches(core int) bool { return p.Enabled && p.row(core).state == VState }

// InjectSpurious fires the early-preemption IRQ for a core without any
// packet arrival — the fault-injection layer's spurious-reclaim path.
// Only V-state cores accept it (the probe hardware only watches lent
// cores, and a spurious request while the DP owns the core would poison
// the level-triggered pending latch). Reports whether the IRQ fired.
func (p *Probe) InjectSpurious(core int) bool {
	if c := p.row(core); !p.Enabled || c.state != VState || c.pending {
		return false
	}
	p.fire(core, "spurious")
	return true
}

// fire emits the early preemption IRQ after the delivery latency. The
// request is level-triggered: one IRQ per V-state episode.
func (p *Probe) fire(core int, why string) {
	c := p.core(core)
	if c.pending {
		return
	}
	c.pending = true
	p.IRQs++
	p.tracer.Emit(p.engine.Now(), trace.KindProbeIRQ, core, 0, why)
	p.engine.ScheduleNamed(p.IRQLatency, "accel.probe-irq", func() {
		if p.OnIRQ != nil {
			p.OnIRQ(core)
		}
	})
}

// The pipeline timing model mirrors the paper's measured Figure 6
// breakdown, 2.7 µs + 0.5 µs.
const (
	// preprocess is stage ②: payload processing inside the accelerator.
	preprocess = 2700 * sim.Nanosecond
	// transfer is stage ③: moving the preprocessed packet to the memory
	// shared with the DP service.
	transfer = 500 * sim.Nanosecond
)

// Pipeline is the programmable accelerator datapath. Packets proceed
// through preprocess and transfer stages in parallel (the hardware is
// deeply pipelined), then land in the destination core's DP queue.
//
// Every packet spends the same preprocess+transfer inside, so packets
// leave in arrival order: the in-flight packets form a FIFO of runs, one
// per injected train, and each completion event delivers the oldest
// packets. A packet injected at the instant of the previous one, with
// nothing scheduled in between, joins that packet's completion event
// instead of taking its own (sim.Lane.Joinable), so a train rides one
// event unless a probe IRQ fired mid-train splits it.
type Pipeline struct {
	engine  *sim.Engine
	tracer  *trace.Tracer
	probe   *Probe
	deliver func(core int, p *Packet, n int)
	nextID  int64

	// Injected counts packets accepted into the pipeline.
	Injected uint64

	// inFlight counts packets inside the pipeline per destination core.
	inFlight []int
	// queue holds the in-flight packets oldest first, one run per train.
	queue sim.FIFO[Run]
	// groups holds, oldest first, how many packets each pending
	// completion event delivers.
	groups sim.FIFO[int]
	// tail is the newest completion event, which a packet may join.
	tail sim.Handle
	// cur is the head of the run being delivered: the sink's pointer aims
	// here, so no packet moves to the heap on its way out.
	cur Packet
	// complete is pl.completeOldest, bound once so scheduling it
	// allocates nothing.
	complete func()
	// lane carries the completion events: every packet spends the same
	// preprocess+transfer window, so they fire in injection order.
	lane *sim.Lane
	// Padding to whole cache lines, for the reason sim.Engine gives: a
	// fleet's pipelines sit side by side and are written per packet.
	// TestPipelineFillsWholeCacheLines holds the size to a multiple of 64.
	_ [16]byte
}

// NewPipeline builds the accelerator datapath. deliver lands n finished
// packets of one train in a DP core's receive queue, as a run headed by
// p; its pointer aims into the pipeline and is valid only during the
// call. probe may be nil (no hardware probe fitted, as on a stock
// SmartNIC image).
func NewPipeline(engine *sim.Engine, probe *Probe, tracer *trace.Tracer, deliver func(core int, p *Packet, n int)) *Pipeline {
	if deliver == nil {
		panic("accel: pipeline needs a delivery sink")
	}
	pl := &Pipeline{engine: engine, tracer: tracer, probe: probe, deliver: deliver}
	pl.complete = pl.completeOldest
	pl.lane = engine.Lane(preprocess+transfer, "accel.pipeline")
	if probe != nil {
		probe.inFlight = pl.InFlight
		probe.engine = engine
		probe.tracer = tracer
	}
	return pl
}

// InFlight returns the number of packets currently in the pipeline for a
// destination core.
func (pl *Pipeline) InFlight(core int) int {
	if core < 0 || core >= len(pl.inFlight) {
		return 0
	}
	return pl.inFlight[core]
}

// Probe returns the attached hardware workload probe (possibly nil).
func (pl *Pipeline) Probe() *Probe { return pl.probe }

// Inject accepts one packet at the accelerator's ingress: a train of 1.
func (pl *Pipeline) Inject(p *Packet) { pl.InjectTrain(p, 1) }

// InjectTrain accepts a train of n packets that arrive back to back and
// differ only in their IDs, copying p as one run and setting the ID
// (unless the caller chose one) and Arrival of the copy and of p: p is
// not retained. The
// train's IDs count up from p.ID, so a caller may choose the ID only of a
// single packet; n < 1, or a chosen ID with n > 1, panics. The probe check
// happens *before* preprocessing (Figure 10), which is what creates the
// 3.2 µs window that hides the 2 µs vCPU exit.
func (pl *Pipeline) InjectTrain(p *Packet, n int) {
	if n < 1 {
		panic(fmt.Sprintf("accel: train of %d packets", n))
	}
	if p.ID != 0 && n > 1 {
		panic(fmt.Sprintf("accel: train of %d packets with the chosen ID %d", n, p.ID))
	}
	now := pl.engine.Now()
	id := p.ID
	if id == 0 {
		id = pl.nextID + 1
	}
	// Copy the packet before stamping its ID and Arrival, on the copy and
	// on *p alike: the copy's wide loads would otherwise span the stamp's
	// narrower stores, which the CPU cannot forward to them.
	r := pl.queue.Append()
	r.Packet = *p
	r.N = n
	r.ID, r.Arrival = id, now
	p.ID, p.Arrival = id, now
	pl.nextID += int64(n)
	pl.Injected += uint64(n)
	pl.inFlight = grow(pl.inFlight, p.Core)

	// The preprocess and transfer stages complete back-to-back with no
	// intervening decision point, so one simulation event covers both;
	// the stage-boundary trace record carries its true timestamp. A
	// packet whose own event would fire right after the newest one joins
	// it. Only a probe watching the core can schedule something between
	// two packets of the train (its IRQ), so only then does each packet
	// take the arrival check and the join on its own.
	if pl.probe == nil || !pl.probe.watches(p.Core) {
		if pl.tracer.Records(trace.KindPacketArrive) {
			for id := range int64(n) {
				pl.tracer.Emit(now, trace.KindPacketArrive, p.Core, p.ID+id, "")
			}
		}
		pl.inFlight[p.Core] += n
		pl.join(n)
		return
	}
	for id := range int64(n) {
		pl.inFlight[p.Core]++
		pl.tracer.Emit(now, trace.KindPacketArrive, p.Core, p.ID+id, "")
		pl.probe.inspect(p.Core)
		pl.join(1)
	}
}

// join adds n packets injected now to the newest completion event if
// they may join it, or schedules a completion event for them.
func (pl *Pipeline) join(n int) {
	if pl.lane.Joinable(pl.tail) {
		*pl.groups.Back() += n
		return
	}
	pl.tail = pl.lane.Schedule(pl.complete)
	pl.groups.Push(n)
}

// completeOldest delivers the packets that have been in the pipeline
// longest, as many as this event carries. Completion events ride one
// lane, so they fire in the order they were scheduled, and those packets
// are the ones this event was scheduled for. Each packet gets the trace
// records its own event would have given it, in the same order; the sink
// takes each train's share of the event as one run, after the in-flight
// decrement for the whole share.
func (pl *Pipeline) completeOldest() {
	now := pl.engine.Now()
	traced := pl.tracer.Records(trace.KindPacketPreprocessDone) || pl.tracer.Records(trace.KindPacketDelivered)
	for n := pl.groups.Pop(); n > 0; {
		// Take the share off the queue before the sink runs: it may
		// inject, and a push can move the ring.
		r := pl.queue.Front()
		k := min(n, r.N)
		pl.cur = r.Packet
		if k == r.N {
			pl.queue.Drop()
		} else {
			r.ID += int64(k)
			r.N -= k
		}
		n -= k
		p := &pl.cur
		if traced {
			for id := p.ID; id < p.ID+int64(k); id++ {
				pl.tracer.Emit(p.Arrival.Add(preprocess), trace.KindPacketPreprocessDone, p.Core, id, "")
				pl.tracer.Emit(now, trace.KindPacketDelivered, p.Core, id, "")
			}
		}
		pl.inFlight[p.Core] -= k
		pl.deliver(p.Core, p, k)
	}
}

// Window returns the total preprocessing window (stages ②+③).
func (pl *Pipeline) Window() sim.Duration { return preprocess + transfer }

// String describes the pipeline configuration.
func (pl *Pipeline) String() string {
	return fmt.Sprintf("accel(pre=%v xfer=%v probe=%v)", preprocess, transfer, pl.probe != nil && pl.probe.Enabled)
}
