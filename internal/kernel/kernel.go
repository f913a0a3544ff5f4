package kernel

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The kernel cost model.
const (
	// ctxSwitchCost is charged when a CPU switches to a different thread.
	ctxSwitchCost = 1 * sim.Microsecond
	// tickPeriod is the scheduler tick interval (Linux: 1 ms at HZ=1000).
	tickPeriod = 1 * sim.Millisecond
	// quantum is the CPU time a thread may run before a tick preempts it
	// in favour of another runnable thread.
	quantum = 3 * sim.Millisecond
	// IPILatency is hardware IPI delivery latency between powered CPUs.
	IPILatency = 500 * sim.Nanosecond
	// softirqLatency is the delay from raising a softirq to its handler
	// running.
	softirqLatency = 500 * sim.Nanosecond
)

// Vector identifies an IPI type.
type Vector uint8

// Well-known IPI vectors.
const (
	// VecResched kicks a CPU to re-run its scheduler.
	VecResched Vector = iota
	// VecCall invokes a registered cross-CPU function handler.
	VecCall
	// VecBoot is the INIT/SIPI-style startup IPI bringing a vCPU online.
	VecBoot
	// VecUser is the first vector available to clients (Tai Chi uses
	// VecUser+n for its own signalling).
	VecUser
)

// IPIRouter intercepts every IPI send. Tai Chi's unified IPI orchestrator
// installs itself here — the simulation analogue of hooking
// x2apic_send_IPI (§5). Returning true means the router delivered (or
// will deliver) the IPI; false falls through to direct hardware delivery.
type IPIRouter func(src, dst CPUID, vec Vector, arg int64) bool

// Kernel is a single OS instance scheduling threads over logical CPUs.
type Kernel struct {
	engine *sim.Engine
	tracer *trace.Tracer

	cpus []*CPU
	// cpuByID indexes cpus by id; ids not registered hold nil.
	cpuByID  []*CPU
	threads  []*Thread
	nextTID  ThreadID
	runqueue []*Thread

	// Router intercepts IPI sends (nil = direct delivery).
	Router IPIRouter

	// ipiHandlers and softirqHandlers are indexed by vector.
	ipiHandlers     []func(cpu CPUID, arg int64)
	softirqHandlers []func(cpu CPUID)
	ipiSeq          int64
	// ipiNotes caches the IPI trace notes, formatted once each:
	// ipiNotes[vec][0] is the delivery note, ipiNotes[vec][dst+1] the
	// note of a send to dst.
	ipiNotes [][]string

	// softirqs holds the raised softirqs oldest first. Every raise waits
	// the same softirqLatency on softirqLane, so each lane event runs the
	// oldest.
	softirqs    sim.FIFO[raisedSoftirq]
	softirqLane *sim.Lane
	softirqRun  func() // k.runOldestSoftirq, bound once

	// ipis holds the IPIs in flight on the plain hardware path, oldest
	// first. Each waits the same IPILatency on ipiLane, so each lane event
	// lands the oldest; an IPI with a fault-injected delay takes the heap.
	ipis    sim.FIFO[flyingIPI]
	ipiLane *sim.Lane
	ipiRun  func() // k.landOldestIPI, bound once

	// OnEnqueue fires whenever a thread enters the runqueue; Tai Chi uses
	// it to wake halted vCPUs when CP work appears.
	OnEnqueue func(t *Thread)

	// IPIFault, when non-nil, intercepts every hardware-path IPI delivery:
	// it may drop the interrupt or add extra delivery latency. VecBoot is
	// never offered to it (losing the registration ceremony would wedge a
	// vCPU forever with no hardware analogue). Installed by the
	// fault-injection layer only; nil in fault-free runs.
	IPIFault func(dst CPUID, vec Vector) (drop bool, delay sim.Duration)

	// SegStretch, when non-nil, may replace the duration of a segment as
	// it is first installed — the fault-injection layer stretches
	// non-preemptible and lock-hold segments with it to model lock-holder
	// stalls. Nil in fault-free runs.
	SegStretch func(t *Thread, kind SegKind, dur sim.Duration) sim.Duration

	// execCPU is the CPU whose segment callback is currently running, so
	// kernel work triggered from inside a callback (e.g. Thread.Signal →
	// resched IPI) is attributed to the correct source CPU — which is what
	// lets the IPI orchestrator recognize vCPU-sourced sends (§4.2).
	execCPU *CPU

	// Stats counters.
	CtxSwitches  *metrics.Counter
	IPIsSent     *metrics.Counter
	IPIsDeferred *metrics.Counter
	IPIsDropped  *metrics.Counter
	Preemptions  *metrics.Counter
	// WatchdogKicks counts idle CPUs recovered by the scheduler watchdog
	// (StartSchedWatchdog) after a lost resched IPI.
	WatchdogKicks *metrics.Counter
}

// New creates a kernel bound to the engine. The tracer may be nil.
func New(engine *sim.Engine, tracer *trace.Tracer) *Kernel {
	k := &Kernel{
		engine:        engine,
		tracer:        tracer,
		CtxSwitches:   metrics.NewCounter("kernel.ctx_switches"),
		IPIsSent:      metrics.NewCounter("kernel.ipis_sent"),
		IPIsDeferred:  metrics.NewCounter("kernel.ipis_deferred"),
		IPIsDropped:   metrics.NewCounter("kernel.ipis_dropped"),
		Preemptions:   metrics.NewCounter("kernel.preemptions"),
		WatchdogKicks: metrics.NewCounter("kernel.watchdog_kicks"),
	}
	k.softirqLane = engine.Lane(softirqLatency, "kernel.softirq")
	k.softirqRun = k.runOldestSoftirq
	k.ipiLane = engine.Lane(IPILatency, "kernel.ipi")
	k.ipiRun = k.landOldestIPI
	k.RegisterIPIHandler(VecResched, func(cpu CPUID, _ int64) {
		if c := k.CPU(cpu); c != nil && c.powered && c.cur == nil {
			k.schedule(c)
		}
	})
	return k
}

// Engine returns the simulation engine the kernel runs on.
func (k *Kernel) Engine() *sim.Engine { return k.engine }

// Tracer returns the kernel's tracer (possibly nil).
func (k *Kernel) Tracer() *trace.Tracer { return k.tracer }

// Now returns the current simulated time.
func (k *Kernel) Now() sim.Time { return k.engine.Now() }

// AddCPU registers a logical CPU. Physical CPUs come up online and
// powered; virtual CPUs come up offline and unpowered, to be brought
// online by the boot IPI sequence (§4.2, Figure 8a).
func (k *Kernel) AddCPU(id CPUID, virtual bool) *CPU {
	if id < 0 {
		panic(fmt.Sprintf("kernel: negative cpu id %d", id))
	}
	if k.CPU(id) != nil {
		panic(fmt.Sprintf("kernel: duplicate cpu id %d", id))
	}
	c := &CPU{
		ID:      id,
		Virtual: virtual,
		kern:    k,
		online:  !virtual,
		powered: !virtual,
		Gauge:   metrics.NewBusyGauge(fmt.Sprintf("cpu%d", id), k.engine.Now()),
	}
	c.run = k.engine.NewTimer(0, "kernel.run", c.finishRun)
	c.tick = k.engine.NewTimer(tickPeriod, "kernel.tick", func() { k.tick(c) })
	c.segFire = c.segmentFinished
	c.switchFire = c.switchFinished
	k.cpus = append(k.cpus, c)
	for len(k.cpuByID) <= int(id) {
		k.cpuByID = append(k.cpuByID, nil)
	}
	k.cpuByID[id] = c
	return c
}

// CPU returns the CPU with the given id, or nil.
func (k *Kernel) CPU(id CPUID) *CPU {
	if uint(id) < uint(len(k.cpuByID)) {
		return k.cpuByID[id]
	}
	return nil
}

// CPUs returns all registered CPUs in creation order.
func (k *Kernel) CPUs() []*CPU { return k.cpus }

// Threads returns all threads ever spawned, in creation order.
func (k *Kernel) Threads() []*Thread { return k.threads }

// Spawn creates a thread and makes it runnable immediately.
func (k *Kernel) Spawn(name string, prog Program, affinity ...CPUID) *Thread {
	t := &Thread{
		ID:              k.nextTID,
		Name:            name,
		program:         prog,
		state:           StateNew,
		CreatedAt:       k.engine.Now(),
		frozenRemaining: -1,
		kern:            k,
	}
	k.nextTID++
	if len(affinity) > 0 {
		t.SetAffinity(affinity...)
	}
	// New threads inherit the minimum runqueue vruntime so they neither
	// starve nor monopolize.
	t.vruntime = k.minVruntime()
	k.threads = append(k.threads, t)
	k.makeRunnable(t)
	return t
}

func (k *Kernel) minVruntime() sim.Duration {
	var min sim.Duration
	first := true
	for _, t := range k.runqueue {
		if first || t.vruntime < min {
			min, first = t.vruntime, false
		}
	}
	for _, c := range k.cpus {
		if c.cur != nil && (first || c.cur.vruntime < min) {
			min, first = c.cur.vruntime, false
		}
	}
	if first {
		return 0
	}
	return min
}

// makeRunnable enqueues t and kicks an idle CPU that can run it.
func (k *Kernel) makeRunnable(t *Thread) {
	if t.state == StateDone {
		panic("kernel: resurrecting finished thread " + t.Name)
	}
	if t.state == StateRunnable || t.state == StateRunning {
		return
	}
	if t.StartedAt == 0 && t.state == StateNew {
		t.StartedAt = k.engine.Now()
	}
	t.state = StateRunnable
	t.cpu = nil
	k.runqueue = append(k.runqueue, t)
	if k.OnEnqueue != nil {
		k.OnEnqueue(t)
	}
	// Kick one idle CPU without a resched IPI already in flight; if every
	// idle candidate is already kicked, they will pull from the queue. The
	// IPI is attributed to the CPU whose callback triggered the wakeup.
	src := CPUID(-1)
	if k.execCPU != nil {
		src = k.execCPU.ID
	}
	for _, c := range k.cpus {
		if c.Idle() && t.AllowedOn(c.ID) && !c.kicked {
			c.kicked = true
			k.SendIPI(src, c.ID, VecResched, 0)
			return
		}
	}
}

// pickNext removes and returns the min-vruntime runnable thread allowed
// on cpu, or nil.
func (k *Kernel) pickNext(c *CPU) *Thread {
	best := -1
	for i, t := range k.runqueue {
		if !t.AllowedOn(c.ID) {
			continue
		}
		if best == -1 || t.vruntime < k.runqueue[best].vruntime {
			best = i
		}
	}
	if best == -1 {
		return nil
	}
	t := k.runqueue[best]
	k.runqueue = append(k.runqueue[:best], k.runqueue[best+1:]...)
	return t
}

// HasRunnableFor reports whether the runqueue holds a thread allowed on
// cpu — used by tick preemption and by Tai Chi to decide whether a halted
// vCPU should wake.
func (k *Kernel) HasRunnableFor(id CPUID) bool {
	for _, t := range k.runqueue {
		if t.AllowedOn(id) {
			return true
		}
	}
	return false
}

// schedule assigns work to an idle CPU.
func (k *Kernel) schedule(c *CPU) {
	c.kicked = false
	if !c.powered || !c.online || c.cur != nil {
		return
	}
	t := k.pickNext(c)
	if t == nil {
		c.Gauge.SetBusy(k.engine.Now(), false)
		if c.OnIdle != nil {
			c.OnIdle(c)
		}
		return
	}
	k.dispatch(c, t)
}

// dispatch switches c to thread t, charging context-switch overhead.
func (k *Kernel) dispatch(c *CPU, t *Thread) {
	c.cur = t
	t.cpu = c
	t.state = StateRunning
	t.sliceRan = 0
	c.needResched = false
	k.CtxSwitches.Inc()
	c.traceEmit(trace.KindSchedSwitch, int64(t.ID), t.Name)
	c.armTick()
	c.inSwitch = true
	c.startRun(ctxSwitchCost, c.switchFire)
}

// startSegment begins (or continues) the current thread's next segment.
func (k *Kernel) startSegment(c *CPU) {
	t := c.cur
	if t == nil {
		k.schedule(c)
		return
	}
	if t.seg == nil {
		seg, ok := t.program.Next(t)
		if !ok {
			k.exitThread(c)
			return
		}
		t.segBuf = seg
		t.seg = &t.segBuf
		t.segRemaining = seg.Dur
		if k.SegStretch != nil {
			t.segRemaining = k.SegStretch(t, seg.Kind, seg.Dur)
		}
		t.segStarted = false
	}
	seg := t.seg
	switch seg.Kind {
	case SegSleep:
		dur := seg.Dur
		t.seg = nil
		t.state = StateSleeping
		t.cpu = nil
		c.cur = nil
		if t.wakeFire == nil {
			t.wakeFire = t.wake
		}
		k.engine.ScheduleNamed(dur, "kernel.sleep", t.wakeFire)
		k.schedule(c)
	case SegWait:
		if t.pendingSignal {
			t.pendingSignal = false
			t.seg = nil
			k.startSegment(c)
			return
		}
		t.seg = nil
		t.state = StateWaiting
		t.cpu = nil
		c.cur = nil
		k.schedule(c)
	case SegLock:
		if t.segStarted {
			// Resuming a frozen lock-hold.
			c.startRun(t.segRemaining, c.segFire)
			return
		}
		if seg.Lock == nil {
			panic("kernel: SegLock without lock in thread " + t.Name)
		}
		if seg.Lock.tryAcquire(t) {
			k.beginLockHold(c, t)
		} else {
			seg.Lock.ContendedCount++
			seg.Lock.addWaiter(t)
			t.spinningOn = seg.Lock
			c.spinStart = k.engine.Now()
			c.Gauge.SetBusy(k.engine.Now(), true)
			c.traceEmit(trace.KindNonPreemptibleBegin, int64(t.ID), seg.Lock.spinNote)
		}
	default:
		if !t.segStarted {
			t.segStarted = true
			if seg.Kind == SegNonPreempt {
				c.traceEmit(trace.KindNonPreemptibleBegin, int64(t.ID), seg.Note)
			}
			if c.OnSegment != nil {
				c.OnSegment(t, seg.Kind, seg.Note)
			}
			if seg.OnStart != nil {
				seg.OnStart()
			}
		}
		c.startRun(t.segRemaining, c.segFire)
	}
}

// beginLockHold starts the non-preemptible critical section after the
// lock has been acquired.
func (k *Kernel) beginLockHold(c *CPU, t *Thread) {
	seg := t.seg
	t.segStarted = true
	c.traceEmit(trace.KindNonPreemptibleBegin, int64(t.ID), seg.Lock.holdNote)
	if c.OnSegment != nil {
		c.OnSegment(t, seg.Kind, seg.Note)
	}
	if seg.OnStart != nil {
		seg.OnStart()
	}
	c.startRun(t.segRemaining, c.segFire)
}

// retryLock re-attempts a lock acquisition after a frozen spinner thaws.
func (k *Kernel) retryLock(c *CPU, t *Thread) {
	l := t.spinningOn
	if l.tryAcquire(t) {
		l.removeWaiter(t)
		t.spinningOn = nil
		// Charge the pre-freeze spin; post-thaw spin time is zero.
		c.accrueSpin(k.engine.Now())
		k.beginLockHold(c, t)
		return
	}
	// Still contended: keep spinning (waiter entry retained).
	l.addWaiter(t)
}

// segmentDone completes the in-flight timed segment on c.
func (k *Kernel) segmentDone(c *CPU) {
	prev := k.execCPU
	k.execCPU = c
	defer func() { k.execCPU = prev }()
	t := c.cur
	// A copy: the hooks below may let t fetch its next segment into
	// segBuf.
	seg := *t.seg
	k.accrue(t, t.segRemaining)
	t.segRemaining = 0
	t.seg = nil
	t.frozenRemaining = -1
	if seg.Kind == SegNonPreempt {
		c.traceEmit(trace.KindNonPreemptibleEnd, int64(t.ID), seg.Note)
	}
	if seg.Kind == SegLock {
		c.traceEmit(trace.KindNonPreemptibleEnd, int64(t.ID), seg.Lock.holdNote)
		seg.Lock.release(t)
		k.grantLock(seg.Lock)
	}
	if seg.OnDone != nil {
		seg.OnDone()
	}
	if c.cur != t {
		// OnDone rescheduled the world (e.g. thread migrated); nothing
		// more to do on this CPU beyond keeping it busy.
		return
	}
	// Preemption point: honor pending resched requests outside
	// non-preemptible context.
	if (c.needResched || t.sliceRan >= quantum) && !t.InNonPreemptible() && k.HasRunnableFor(c.ID) {
		k.preempt(c)
		return
	}
	k.startSegment(c)
}

// grantLock hands a released lock to the first waiter that is actually
// spinning on a powered CPU. Frozen waiters are skipped; they retry on
// thaw.
func (k *Kernel) grantLock(l *SpinLock) {
	for _, w := range l.waiters {
		if w.cpu == nil || !w.cpu.powered || w.spinningOn != l {
			continue
		}
		if !l.tryAcquire(w) {
			return // somebody else got it; they will grant on release
		}
		l.removeWaiter(w)
		w.spinningOn = nil
		w.cpu.accrueSpin(k.engine.Now())
		k.beginLockHold(w.cpu, w)
		return
	}
}

// preempt moves the current thread back to the runqueue and reschedules.
func (k *Kernel) preempt(c *CPU) {
	t := c.cur
	k.Preemptions.Inc()
	c.needResched = false
	t.state = StateRunnable
	t.cpu = nil
	c.cur = nil
	k.runqueue = append(k.runqueue, t)
	if k.OnEnqueue != nil {
		k.OnEnqueue(t)
	}
	k.schedule(c)
}

// exitThread finishes the current thread and reschedules.
func (k *Kernel) exitThread(c *CPU) {
	t := c.cur
	t.state = StateDone
	t.FinishedAt = k.engine.Now()
	t.cpu = nil
	c.cur = nil
	c.tick.Stop()
	if t.OnExit != nil {
		t.OnExit(t)
	}
	k.schedule(c)
}

// DetachCurrent migrates the frozen current thread off an unpowered CPU
// and back into the runqueue, preserving its partially-executed segment.
// This is how Tai Chi's scheduler returns a descheduled vCPU's thread to
// the OS so it can continue natively on CP pCPUs (or on another vCPU)
// instead of waiting for the same vCPU to be re-backed. Threads inside
// non-preemptible sections are refused — migrating a spinlock holder
// would violate kernel semantics; lock-rescue handles those instead.
func (k *Kernel) DetachCurrent(c *CPU) *Thread {
	if c.powered {
		panic(fmt.Sprintf("kernel: DetachCurrent on powered cpu%d", c.ID))
	}
	t := c.cur
	if t == nil {
		return nil
	}
	if t.InNonPreemptible() {
		return nil
	}
	if t.frozenRemaining >= 0 {
		t.segRemaining = t.frozenRemaining
		t.frozenRemaining = -1
	}
	c.cur = nil
	c.needResched = false
	t.cpu = nil
	t.state = StateSleeping // transitional; makeRunnable flips it
	k.makeRunnable(t)
	return t
}

// accrue charges CPU time to a thread. Virtual runtime advances at 1/weight
// of real time, giving weighted fair shares.
func (k *Kernel) accrue(t *Thread, d sim.Duration) {
	if d <= 0 {
		return
	}
	t.CPUTime += d
	t.vruntime += d / sim.Duration(t.Weight())
	t.sliceRan += d
}

// tick is the per-CPU scheduler tick: mid-segment preemption for
// preemptible segments once the quantum is exhausted; a resched flag
// otherwise (the mechanism whose latency Figure 4 dissects).
func (k *Kernel) tick(c *CPU) {
	if !c.powered || c.cur == nil {
		c.tick.Stop()
		return
	}
	t := c.cur
	now := k.engine.Now()
	// Account in-flight run time so quantum checks see fresh numbers.
	if t.spinningOn != nil {
		c.accrueSpin(now)
	} else if c.run.Armed() && !c.inSwitch {
		elapsed := now.Sub(c.runStart)
		if elapsed > 0 {
			k.accrue(t, elapsed)
			t.segRemaining -= elapsed
			if t.segRemaining < 0 {
				t.segRemaining = 0
			}
			c.runStart = now
		}
	}
	if t.sliceRan < quantum || !k.HasRunnableFor(c.ID) {
		return
	}
	if t.InNonPreemptible() || c.inSwitch {
		// Cannot switch now; remember to at the next preemption point.
		c.needResched = true
		return
	}
	// Preempt mid-segment: suspend the run and put the thread back.
	if elapsed, ok := c.suspendRun(); ok {
		k.accrue(t, elapsed)
		t.segRemaining -= elapsed
		if t.segRemaining < 0 {
			t.segRemaining = 0
		}
	}
	k.preempt(c)
}

// --- IPIs ----------------------------------------------------------------

// RegisterIPIHandler installs the handler for an IPI vector. Handlers run
// in "interrupt context" at delivery time on the destination CPU.
func (k *Kernel) RegisterIPIHandler(vec Vector, fn func(cpu CPUID, arg int64)) {
	for len(k.ipiHandlers) <= int(vec) {
		k.ipiHandlers = append(k.ipiHandlers, nil)
	}
	k.ipiHandlers[vec] = fn
}

// SendIPI sends an inter-processor interrupt. src may be -1 for
// "hardware" origins; sends issued from inside a segment callback are
// attributed to the executing CPU automatically. All sends pass through
// the Router hook first — the interception point of the unified IPI
// orchestrator.
func (k *Kernel) SendIPI(src, dst CPUID, vec Vector, arg int64) {
	if src == -1 && k.execCPU != nil {
		src = k.execCPU.ID
	}
	k.IPIsSent.Inc()
	k.ipiSeq++
	seq := k.ipiSeq
	k.tracer.Emit(k.engine.Now(), trace.KindIPISend, int(src), seq, k.ipiNote(vec, dst, true))
	if k.Router != nil && k.Router(src, dst, vec, arg) {
		return
	}
	k.DeliverIPIDirect(dst, vec, arg, seq)
}

// DeliverIPIDirect performs hardware-path delivery (MSR write → LAPIC)
// after IPILatency. The unified IPI orchestrator calls this
// for pCPU destinations. If the destination is unpowered at delivery
// time, the interrupt posts and is delivered at the next PowerOn.
func (k *Kernel) DeliverIPIDirect(dst CPUID, vec Vector, arg int64, seq int64) {
	var delay sim.Duration
	if k.IPIFault != nil && vec != VecBoot {
		var drop bool
		drop, delay = k.IPIFault(dst, vec)
		if drop {
			k.IPIsDropped.Inc()
			return
		}
	}
	ipi := flyingIPI{dst, vec, arg, seq}
	if delay == 0 {
		k.ipis.Push(ipi)
		k.ipiLane.Schedule(k.ipiRun)
		return
	}
	k.engine.ScheduleNamed(IPILatency+delay, "kernel.ipi", func() { k.landIPI(ipi) })
}

// flyingIPI is one IPI on its way to the destination's LAPIC.
type flyingIPI struct {
	dst CPUID
	vec Vector
	arg int64
	seq int64
}

// landOldestIPI lands the oldest IPI on the lane.
func (k *Kernel) landOldestIPI() { k.landIPI(k.ipis.Pop()) }

// landIPI delivers an IPI that has crossed the interconnect, or posts it
// if the destination is unpowered.
func (k *Kernel) landIPI(ipi flyingIPI) {
	c := k.CPU(ipi.dst)
	if c == nil {
		return
	}
	if !c.powered {
		k.IPIsDeferred.Inc()
		c.pendingIPIs = append(c.pendingIPIs, pendingIPI{ipi.vec, ipi.arg})
		return
	}
	k.tracer.Emit(k.engine.Now(), trace.KindIPIDeliver, int(ipi.dst), ipi.seq, k.ipiNote(ipi.vec, ipi.dst, false))
	k.deliverIPI(ipi.dst, ipi.vec, ipi.arg)
}

// ipiNote returns the trace note of an IPI send ("vec=V dst=D") or
// delivery ("vec=V"), formatting it only the first time it is asked for.
func (k *Kernel) ipiNote(vec Vector, dst CPUID, send bool) string {
	col := 0 // the delivery note
	if send {
		if dst < 0 {
			return formatIPINote(vec, dst, send) // names no CPU; not kept
		}
		col = int(dst) + 1
	}
	for len(k.ipiNotes) <= int(vec) {
		k.ipiNotes = append(k.ipiNotes, nil)
	}
	row := k.ipiNotes[vec]
	for len(row) <= col {
		row = append(row, "")
	}
	if row[col] == "" {
		row[col] = formatIPINote(vec, dst, send)
	}
	k.ipiNotes[vec] = row
	return row[col]
}

func formatIPINote(vec Vector, dst CPUID, send bool) string {
	if send {
		return "vec=" + strconv.Itoa(int(vec)) + " dst=" + strconv.Itoa(int(dst))
	}
	return "vec=" + strconv.Itoa(int(vec))
}

// deliverIPI invokes the vector handler immediately.
func (k *Kernel) deliverIPI(dst CPUID, vec Vector, arg int64) {
	if int(vec) < len(k.ipiHandlers) {
		if h := k.ipiHandlers[vec]; h != nil {
			h(dst, arg)
		}
	}
}

// --- softirqs -------------------------------------------------------------

// RegisterSoftirq installs a softirq handler for a vector. Tai Chi's
// vCPU scheduler registers its context-switch handler here (§4.1).
func (k *Kernel) RegisterSoftirq(vec Vector, fn func(cpu CPUID)) {
	for len(k.softirqHandlers) <= int(vec) {
		k.softirqHandlers = append(k.softirqHandlers, nil)
	}
	k.softirqHandlers[vec] = fn
}

// raisedSoftirq is one softirq waiting out the dispatch latency.
type raisedSoftirq struct {
	cpu CPUID
	vec Vector
}

// RaiseSoftirq schedules the vector's handler to run on cpu after the
// softirq dispatch latency.
func (k *Kernel) RaiseSoftirq(cpu CPUID, vec Vector) {
	k.tracer.Emit(k.engine.Now(), trace.KindSoftirqRaise, int(cpu), int64(vec), "")
	k.softirqs.Push(raisedSoftirq{cpu, vec})
	k.softirqLane.Schedule(k.softirqRun)
}

// runOldestSoftirq runs the handler of the softirq raised longest ago.
func (k *Kernel) runOldestSoftirq() {
	r := k.softirqs.Pop()
	k.tracer.Emit(k.engine.Now(), trace.KindSoftirqRun, int(r.cpu), int64(r.vec), "")
	if int(r.vec) < len(k.softirqHandlers) {
		if h := k.softirqHandlers[r.vec]; h != nil {
			h(r.cpu)
		}
	}
}

// --- diagnostics -----------------------------------------------------------

// StuckSpinner describes a thread spinning on a lock whose owner cannot
// currently run — the hazard of freezing a lock-holding vCPU (§4.1).
type StuckSpinner struct {
	Spinner *Thread
	Lock    *SpinLock
	Owner   *Thread
}

// DetectStuckSpinners reports spinners whose lock owner is attached to an
// unpowered CPU (or no CPU at all). With Tai Chi's lock-rescue enabled
// this list should always be empty; tests assert exactly that.
func (k *Kernel) DetectStuckSpinners() []StuckSpinner {
	var out []StuckSpinner
	for _, c := range k.cpus {
		t := c.cur
		if t == nil || t.spinningOn == nil || !c.powered {
			continue
		}
		owner := t.spinningOn.owner
		if owner == nil {
			continue
		}
		if owner.cpu == nil || !owner.cpu.powered {
			out = append(out, StuckSpinner{Spinner: t, Lock: t.spinningOn, Owner: owner})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spinner.ID < out[j].Spinner.ID })
	return out
}

// StartSchedWatchdog arms a periodic sweep recovering CPUs wedged by a
// lost resched IPI: makeRunnable sets a CPU's kicked flag when it sends
// the kick, and if that IPI is dropped the flag never clears — the idle
// CPU then ignores runnable work forever while wakeups skip it as
// "already kicked". The sweep clears stale flags and reschedules. It is a
// defense armed only when fault injection is active; the period should be
// much larger than IPILatency so in-flight kicks are never mistaken for
// lost ones (acting on one early is harmless, merely delivering the
// reschedule before the IPI would have).
func (k *Kernel) StartSchedWatchdog(period sim.Duration) *sim.Timer {
	t := k.engine.NewTimer(period, "kernel.watchdog", func() {
		for _, c := range k.cpus {
			if c.kicked && c.Idle() && k.HasRunnableFor(c.ID) {
				c.kicked = false
				k.WatchdogKicks.Inc()
				k.schedule(c)
			}
		}
	})
	t.Reset(period)
	return t
}
