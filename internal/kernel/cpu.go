package kernel

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// CPUID identifies a logical CPU known to the kernel.
type CPUID int

// CPU is one logical CPU. Physical CPUs are always powered; virtual CPUs
// are powered only while a hypervisor backs them with a physical core.
// The kernel scheduler treats both identically — the OS-transparency
// property of hybrid virtualization (§4).
type CPU struct {
	ID      CPUID
	Virtual bool

	kern    *Kernel
	online  bool // participates in scheduling (vCPUs boot offline, §4.2)
	powered bool // physically executing right now

	cur         *Thread
	needResched bool
	// kicked is set while a resched IPI is in flight to this idle CPU, so
	// back-to-back wakeups spread across distinct idle CPUs.
	kicked bool

	// run times the in-flight work (context switch overhead or a thread
	// segment); runDone ends it.
	run      *sim.Timer
	runStart sim.Time
	runDone  func()
	// segFire and switchFire are c.segmentFinished and c.switchFinished,
	// bound once so startRun allocates nothing.
	segFire    func()
	switchFire func()
	inSwitch   bool // current run is context-switch overhead
	spinStart  sim.Time
	// tick is the periodic scheduler tick, armed while the CPU runs a
	// thread.
	tick *sim.Timer

	// pendingIPIs queues interrupts that arrived while powered off; they
	// are delivered on power-on (mirrors posted-interrupt semantics).
	pendingIPIs []pendingIPI

	// Gauge tracks busy time for utilization accounting.
	Gauge *metrics.BusyGauge

	// OnIdle fires when the CPU finds no runnable work. For vCPUs the
	// hypervisor treats this as a HLT VM-exit and may unback the CPU.
	OnIdle func(c *CPU)

	// OnSegment, if set, observes every segment that begins executing on
	// this CPU — the hook behind Tai Chi's on-demand instruction-level
	// auditing (§8): a vCPU context can watch privileged activity of
	// whatever runs inside it.
	OnSegment func(t *Thread, kind SegKind, note string)
}

type pendingIPI struct {
	vec Vector
	arg int64
}

// Online reports whether the CPU participates in scheduling.
func (c *CPU) Online() bool { return c.online }

// Powered reports whether the CPU is currently executing.
func (c *CPU) Powered() bool { return c.powered }

// Current returns the thread on the CPU (running or frozen), or nil.
func (c *CPU) Current() *Thread { return c.cur }

// Idle reports whether the CPU is online, powered, and has nothing to run.
func (c *CPU) Idle() bool { return c.online && c.powered && c.cur == nil }

// InNonPreemptibleSection reports whether the CPU's current thread is
// inside a non-preemptible region (spinning on or holding a spinlock, or
// in a SegNonPreempt segment). Tai Chi's scheduler consults this on
// VM-exit to decide whether lock-rescue is needed (§4.1).
func (c *CPU) InNonPreemptibleSection() bool {
	return c.cur != nil && c.cur.InNonPreemptible()
}

// --- timed-run plumbing -------------------------------------------------

// startRun begins a timed busy interval; remaining time is tracked by the
// caller via accrueRun on suspension.
func (c *CPU) startRun(d sim.Duration, done func()) {
	if c.run.Armed() {
		panic(fmt.Sprintf("kernel: cpu%d starting run with run in flight", c.ID))
	}
	c.runStart = c.kern.engine.Now()
	c.runDone = done
	c.run.Reset(d)
	c.Gauge.SetBusy(c.kern.engine.Now(), true)
}

// finishRun completes the in-flight timed run.
func (c *CPU) finishRun() {
	fn := c.runDone
	c.runDone = nil
	fn()
}

// segmentFinished ends the current segment's timed run.
func (c *CPU) segmentFinished() { c.kern.segmentDone(c) }

// switchFinished ends the context-switch overhead and starts the new
// thread's segment.
func (c *CPU) switchFinished() {
	c.inSwitch = false
	c.kern.startSegment(c)
}

// suspendRun cancels the in-flight run and returns the elapsed busy time.
// Returns elapsed = 0, ok = false when no run was in flight.
func (c *CPU) suspendRun() (elapsed sim.Duration, ok bool) {
	if !c.run.Armed() {
		return 0, false
	}
	now := c.kern.engine.Now()
	elapsed = now.Sub(c.runStart)
	c.run.Stop()
	c.runDone = nil
	return elapsed, true
}

// --- power management (the hybrid-virtualization surface) ---------------

// PowerOn begins (or resumes) execution on the CPU. For a vCPU this is
// the tail end of a VM-entry: any frozen thread resumes exactly where it
// stopped, pending IPIs are delivered, and if the CPU is idle the
// scheduler looks for work.
func (c *CPU) PowerOn() {
	if c.powered {
		return
	}
	if !c.online {
		panic(fmt.Sprintf("kernel: powering on offline cpu%d", c.ID))
	}
	c.powered = true
	now := c.kern.engine.Now()

	// Resume the frozen context first: a pending resched IPI drained
	// before the resume could dispatch fresh work onto the CPU and then
	// collide with the resume path.
	if c.cur != nil {
		t := c.cur
		if t.spinningOn != nil {
			// Was spinning when frozen; retry the lock now.
			c.spinStart = now
			c.Gauge.SetBusy(now, true)
			c.kern.retryLock(c, t)
		} else if t.frozenRemaining >= 0 {
			rem := t.frozenRemaining
			t.frozenRemaining = -1
			c.resumeTimedSegment(rem)
		} else {
			// Frozen between segments; pick up the program.
			c.kern.startSegment(c)
		}
		c.armTick()
	}

	// Deliver interrupts that posted while we were frozen.
	pend := c.pendingIPIs
	c.pendingIPIs = nil
	for _, p := range pend {
		c.kern.deliverIPI(c.ID, p.vec, p.arg)
	}

	if c.cur == nil {
		c.kern.schedule(c)
	}
}

// PowerOff freezes the CPU mid-flight. The current thread (if any) stays
// attached with its remaining segment time recorded; it resumes on the
// next PowerOn. This is the VM-exit primitive: unlike kernel preemption
// it works even inside non-preemptible sections, which is exactly how
// Tai Chi breaks ms-scale routines into µs-scale pieces (§3.4).
func (c *CPU) PowerOff() {
	if !c.powered {
		return
	}
	now := c.kern.engine.Now()
	if c.cur != nil {
		t := c.cur
		if t.spinningOn != nil {
			// Spinning burns CPU until the freeze instant.
			c.accrueSpin(now)
		} else if elapsed, ok := c.suspendRun(); ok {
			if c.inSwitch {
				// Mid context-switch: roll the overhead back; it will be
				// re-incurred on resume via startSegment's dispatch path.
				c.inSwitch = false
				t.frozenRemaining = -1
			} else {
				c.kern.accrue(t, elapsed)
				t.frozenRemaining = t.segRemaining - elapsed
				if t.frozenRemaining < 0 {
					t.frozenRemaining = 0
				}
				t.segRemaining = t.frozenRemaining
			}
		} else {
			t.frozenRemaining = -1
		}
	}
	c.tick.Stop()
	c.powered = false
	c.Gauge.SetBusy(now, false)
}

// SetOnline marks the CPU as participating (or not) in scheduling. vCPUs
// are registered offline and brought online by the boot IPI sequence of
// the unified IPI orchestrator (§4.2, Figure 8a).
func (c *CPU) SetOnline(online bool) {
	c.online = online
	if !online && c.cur != nil {
		panic(fmt.Sprintf("kernel: offlining cpu%d with thread attached", c.ID))
	}
}

// resumeTimedSegment restarts the frozen segment with rem remaining.
func (c *CPU) resumeTimedSegment(rem sim.Duration) {
	t := c.cur
	t.segRemaining = rem
	if rem <= 0 {
		c.kern.segmentDone(c)
		return
	}
	c.startRun(rem, c.segFire)
}

// accrueSpin charges spin time to the current thread.
func (c *CPU) accrueSpin(now sim.Time) {
	if c.cur == nil {
		return
	}
	d := now.Sub(c.spinStart)
	if d > 0 {
		c.kern.accrue(c.cur, d)
	}
	c.spinStart = now
}

// --- scheduler tick ------------------------------------------------------

// armTick starts the tick unless it is already running; inside the tick
// body it is, so the tick keeps its period.
func (c *CPU) armTick() {
	if !c.tick.Armed() {
		c.tick.Reset(tickPeriod)
	}
}

// traceEmit forwards to the kernel tracer with this CPU's id.
func (c *CPU) traceEmit(kind trace.Kind, arg int64, note string) {
	c.kern.tracer.Emit(c.kern.engine.Now(), kind, int(c.ID), arg, note)
}
