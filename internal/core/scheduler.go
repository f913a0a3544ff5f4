package core

import (
	"fmt"
	"repro/internal/accel"
	"repro/internal/dataplane"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vcpu"
)

// VecTaiChi is the dedicated softirq vector the vCPU scheduler uses for
// pCPU→vCPU context switching (§4.1).
const VecTaiChi = kernel.VecUser

// Config is the Tai Chi configuration surface.
type Config struct {
	// VCPUs is the size of the over-provisioned vCPU pool.
	VCPUs int
	// VCPUBaseID is the first logical CPU id assigned to vCPUs.
	VCPUBaseID kernel.CPUID

	// InitialSlice is the starting vCPU time slice (paper: 50 µs).
	InitialSlice sim.Duration
	// MaxSlice caps adaptive doubling.
	MaxSlice sim.Duration
	// AdaptiveSlice enables slice doubling/reset (§4.1); false freezes the
	// slice at InitialSlice (ablation).
	AdaptiveSlice bool

	// SWProbe is the adaptive yield configuration (§4.3).
	SWProbe SWProbeConfig

	// LockRescue enables safe CP-to-DP scheduling in lock context (§4.1).
	LockRescue bool
	// RescueSlice is the hosting slice used while a rescued vCPU drains
	// its non-preemptible section on a borrowed core.
	RescueSlice sim.Duration

	// PipelineAwareYield implements the §9 future-work refinement: the
	// scheduler consults the accelerator's in-flight occupancy before
	// lending a core, instead of relying on empty-poll statistics alone —
	// a packet already inside the 3.2 µs pipeline means the "idle" core
	// is about to be busy.
	PipelineAwareYield bool

	// NaiveCoSchedule models a conventional (non-virtualized) co-scheduler:
	// a preemption request must wait for the guest's non-preemptible
	// routine to finish before the core comes back — the ms-scale latency
	// of Table 1 / Figure 4. Tai Chi proper keeps this false.
	NaiveCoSchedule bool

	// Costs is the virtualization cost model.
	Costs vcpu.Costs

	// ReconcilePeriod is the background placement tick.
	ReconcilePeriod sim.Duration
}

// DefaultConfig mirrors the paper's deployment parameters.
func DefaultConfig() Config {
	return Config{
		VCPUs:              8,
		VCPUBaseID:         100,
		InitialSlice:       50 * sim.Microsecond,
		MaxSlice:           400 * sim.Microsecond,
		AdaptiveSlice:      true,
		SWProbe:            DefaultSWProbeConfig(),
		PipelineAwareYield: true,
		LockRescue:         true,
		RescueSlice:        100 * sim.Microsecond,
		Costs:              vcpu.DefaultCosts(),
		ReconcilePeriod:    200 * sim.Microsecond,
	}
}

// dpSlot is the scheduler's view of one DP core.
type dpSlot struct {
	dp        *dataplane.Core
	occupant  *vcpu.VCPU
	slice     sim.Duration
	available bool // idle reported, core still owned by DP
	// preemptReq is the time of the pending hardware-probe preemption
	// request, zero when none.
	preemptReq sim.Time
	// pendingEnter is the vCPU a raised softirq will enter.
	pendingEnter *vcpu.VCPU
	// wdEv / wdRetries drive the reclaim watchdog (defense.go); unused —
	// and event-free — unless EnableDefense armed the machinery.
	wdEv      sim.Handle
	wdRetries int
}

// Scheduler is the Tai Chi vCPU scheduler (§4.1): it lends idle DP cores
// to CP vCPUs, reclaims them on hardware-probe IRQs, adapts slice and
// yield thresholds from VM-exit reasons, and keeps lock-holding vCPUs
// running (lock rescue).
type Scheduler struct {
	cfg    Config
	node   *platform.Node
	kern   *kernel.Kernel
	engine *sim.Engine
	tracer *trace.Tracer

	vcpus  []*vcpu.VCPU
	orch   *Orchestrator
	sw     *SWProbe
	slots  map[int]*dpSlot
	order  []int // deterministic slot iteration order
	slotOf map[*vcpu.VCPU]*dpSlot
	ready  []*vcpu.VCPU // round-robin placement queue
	// rescueQ holds vCPUs frozen inside non-preemptible sections that
	// could not be re-hosted immediately; they take priority for the next
	// free core (DP or CP) to guarantee forward progress.
	rescueQ []*vcpu.VCPU
	// claimed marks vCPUs with an entry in flight or a core held, so no
	// second placement path can grab them.
	claimed map[*vcpu.VCPU]bool
	// reconciling guards against re-entrant placement (OnWake and
	// OnEnqueue can fire inside reconcile itself).
	reconciling    bool
	reconcileAgain bool

	cpCores []*kernel.CPU
	rrCP    int

	// defense holds the degradation ladder, recovery included
	// (defense.go, recovery.go); nil (the fault-free default) keeps every
	// defense and recovery path completely inert.
	defense *defenseState
	// overload holds the brownout-ladder state (overload.go); nil keeps
	// every overload path completely inert.
	overload *overloadState
	// OnSuspend, when non-nil, fires once per entry into static
	// partitioning (after lending is suspended) and once per entry into
	// the overload ladder's brownout rung — the hook TaiChi uses to
	// detach optional work that depends on vCPUs being hosted (an active
	// audit's vCPU pinning).
	OnSuspend func()

	// Metrics.
	Yields         *metrics.Counter
	Preempts       *metrics.Counter
	Rescues        *metrics.Counter
	Rotations      *metrics.Counter
	PreemptLatency *metrics.Histogram // probe request → DP resumed

	// Defense metrics (always created so Describe output is identical
	// with and without the machinery armed; all stay zero when unarmed).
	FaultsDetected    *metrics.Counter
	FaultsRecovered   *metrics.Counter
	WatchdogRetries   *metrics.Counter
	WatchdogTeardowns *metrics.Counter
	ProbeFallbacks    *metrics.Counter
	StaticFallbacks   *metrics.Counter

	// Recovery metrics (recovery.go); like the defense counters they are
	// always created and stay zero unless EnableRecovery armed the ladder.
	DefenseRecoveries *metrics.Counter
	Reescalations     *metrics.Counter

	// Overload metrics (overload.go); always created, zero unless
	// EnableOverload armed the brownout ladder.
	OverloadEnters *metrics.Counter
	OverloadExits  *metrics.Counter
}

// NewScheduler mounts Tai Chi onto the node: creates and registers the
// vCPU pool, installs the orchestrator, wires the probes, and starts the
// placement loop. CP tasks can then be spawned with affinity to the
// vCPUs (and CP pCPUs) exactly as production does with cgroups.
func NewScheduler(node *platform.Node, cfg Config) *Scheduler {
	if cfg.VCPUs <= 0 {
		panic("core: need at least one vCPU")
	}
	s := &Scheduler{
		cfg:            cfg,
		node:           node,
		kern:           node.Kernel,
		engine:         node.Engine,
		tracer:         node.Tracer,
		sw:             NewSWProbe(cfg.SWProbe),
		slots:          map[int]*dpSlot{},
		slotOf:         map[*vcpu.VCPU]*dpSlot{},
		claimed:        map[*vcpu.VCPU]bool{},
		Yields:         metrics.NewCounter("taichi.yields"),
		Preempts:       metrics.NewCounter("taichi.preempts"),
		Rescues:        metrics.NewCounter("taichi.rescues"),
		Rotations:      metrics.NewCounter("taichi.rotations"),
		PreemptLatency: metrics.NewHistogram("taichi.preempt_latency"),

		FaultsDetected:    metrics.NewCounter("taichi.faults_detected"),
		FaultsRecovered:   metrics.NewCounter("taichi.faults_recovered"),
		WatchdogRetries:   metrics.NewCounter("taichi.watchdog_retries"),
		WatchdogTeardowns: metrics.NewCounter("taichi.watchdog_teardowns"),
		ProbeFallbacks:    metrics.NewCounter("taichi.probe_fallbacks"),
		StaticFallbacks:   metrics.NewCounter("taichi.static_fallbacks"),

		DefenseRecoveries: metrics.NewCounter("taichi.defense_recoveries"),
		Reescalations:     metrics.NewCounter("taichi.reescalations"),

		OverloadEnters: metrics.NewCounter("taichi.overload_enters"),
		OverloadExits:  metrics.NewCounter("taichi.overload_exits"),
	}
	s.orch = NewOrchestrator(node.Kernel)

	// vCPU pool: offline native CPUs booted via the orchestrator.
	for i := 0; i < cfg.VCPUs; i++ {
		id := cfg.VCPUBaseID + kernel.CPUID(i)
		c := node.Kernel.AddCPU(id, true)
		v := vcpu.New(node.Kernel, c, cfg.Costs, node.Tracer)
		v.OnWake = s.onWake
		s.vcpus = append(s.vcpus, v)
		s.orch.Register(v)
	}

	// DP slots + software probe wiring.
	for _, dp := range node.DPCores() {
		dp := dp
		slot := &dpSlot{dp: dp, slice: cfg.InitialSlice}
		s.slots[dp.ID] = slot
		s.order = append(s.order, dp.ID)
		dp.YieldThreshold = func() int { return s.sw.Threshold(dp.ID) }
		dp.OnIdle = func(c *dataplane.Core) { s.onDPIdle(slot) }
	}

	// Hardware probe wiring.
	if node.Probe != nil {
		node.Probe.OnIRQ = s.onProbeIRQ
	}

	// Softirq-based context switch entry point.
	s.kern.RegisterSoftirq(VecTaiChi, s.softirqSwitch)

	// Kernel enqueue hook: new CP work may need a vCPU woken/placed.
	s.kern.OnEnqueue = func(*kernel.Thread) { s.reconcile() }

	for _, id := range node.Opts.Topology.CPCores {
		s.cpCores = append(s.cpCores, node.Kernel.CPU(kernel.CPUID(id)))
	}

	// Background reconciliation keeps placement live even without event
	// triggers (e.g. a vCPU parked while all DP cores were busy).
	if cfg.ReconcilePeriod > 0 {
		s.engine.NewTicker(cfg.ReconcilePeriod, s.reconcile)
	}

	node.Net.Start()
	if node.Stor != nil {
		node.Stor.Start()
	}
	return s
}

// VCPUs returns the vCPU pool.
func (s *Scheduler) VCPUs() []*vcpu.VCPU { return s.vcpus }

// Orchestrator returns the unified IPI orchestrator.
func (s *Scheduler) Orchestrator() *Orchestrator { return s.orch }

// SWProbe returns the software workload probe.
func (s *Scheduler) SWProbe() *SWProbe { return s.sw }

// VCPUIDs returns the logical CPU ids of the vCPU pool, for affinity
// binding.
func (s *Scheduler) VCPUIDs() []kernel.CPUID {
	out := make([]kernel.CPUID, len(s.vcpus))
	for i, v := range s.vcpus {
		out[i] = v.ID()
	}
	return out
}

// --- event entry points ---------------------------------------------------

// onDPIdle: the software workload probe confirmed idle DP cycles
// (Figure 7b step 1-2).
func (s *Scheduler) onDPIdle(slot *dpSlot) {
	slot.available = true
	s.reconcile()
}

// onWake: a halted vCPU was woken by an interrupt.
func (s *Scheduler) onWake(v *vcpu.VCPU) {
	s.enqueueReady(v)
	s.reconcile()
}

// onProbeIRQ: the hardware probe saw I/O for a V-state core
// (Figure 7b steps 1-2 of the preempt path).
func (s *Scheduler) onProbeIRQ(core int) {
	slot := s.slots[core]
	if slot == nil || slot.preemptReq != 0 {
		return
	}
	if slot.occupant == nil && slot.pendingEnter == nil {
		return // already back in DP hands (or exit completing)
	}
	slot.preemptReq = s.engine.Now()
	s.Preempts.Inc()
	s.armReclaimWatchdog(slot)
	if slot.occupant != nil {
		if s.cfg.NaiveCoSchedule {
			s.naivePreempt(slot)
			return
		}
		slot.occupant.ForceExit(vcpu.ExitProbe)
	}
	// pendingEnter case: the softirq callback checks preemptReq and
	// aborts the entry.
}

// naivePreempt models a conventional scheduler that cannot break
// non-preemptible routines: the exit waits until the guest is
// preemptible. This is the Figure 4 / Table 1 baseline behaviour.
func (s *Scheduler) naivePreempt(slot *dpSlot) {
	v := slot.occupant
	if v == nil {
		return
	}
	if v.InNonPreemptibleSection() {
		s.engine.ScheduleNamed(2*sim.Microsecond, "core.naive-retry", func() {
			if slot.occupant == v && slot.preemptReq != 0 {
				s.naivePreempt(slot)
			}
		})
		return
	}
	v.ForceExit(vcpu.ExitProbe)
}

// --- placement --------------------------------------------------------------

// reconcile is the single placement entry point: every available idle DP
// core gets a vCPU that has work, in deterministic round-robin order.
// Re-entrant calls (placement hooks firing mid-placement) are deferred.
func (s *Scheduler) reconcile() {
	if s.reconciling {
		s.reconcileAgain = true
		return
	}
	s.reconciling = true
	defer func() {
		s.reconciling = false
		if s.reconcileAgain {
			s.reconcileAgain = false
			s.reconcile()
		}
	}()
	for _, id := range s.order {
		slot := s.slots[id]
		if !slot.available || slot.occupant != nil || slot.pendingEnter != nil {
			continue
		}
		if !s.lendable(slot) {
			slot.available = false
			continue
		}
		if slot.dp.State() != dataplane.Polling || slot.dp.QueueLen() > 0 {
			slot.available = false
			continue
		}
		if s.cfg.PipelineAwareYield && s.node.Pipe.InFlight(id) > 0 {
			// §9: packets already in the accelerator pipeline mean this
			// core is about to be busy; don't bait a doomed yield. The
			// core stays available and is retried once the pipeline
			// drains (next reconcile tick).
			continue
		}
		v := s.acquireVCPU()
		if v == nil {
			return
		}
		s.enterOn(slot, v)
	}
}

// acquireVCPU returns the next vCPU worth running: first the ready queue,
// then halted vCPUs with pending kernel work (woken on demand).
func (s *Scheduler) acquireVCPU() *vcpu.VCPU {
	// NP-frozen vCPUs awaiting rescue get first claim on any core.
	for len(s.rescueQ) > 0 {
		v := s.rescueQ[0]
		s.rescueQ = s.rescueQ[1:]
		if !s.claimed[v] && v.State() == vcpu.StateReady && s.hasWork(v) {
			return v
		}
	}
	for len(s.ready) > 0 {
		v := s.ready[0]
		s.ready = s.ready[1:]
		if !s.claimed[v] && v.State() == vcpu.StateReady && s.hasWork(v) {
			return v
		}
	}
	for _, v := range s.vcpus {
		if s.claimed[v] {
			continue
		}
		switch v.State() {
		case vcpu.StateReady:
			// Parked: ready but dropped from the queue when it had no
			// work. New kernel work makes it eligible again.
			if s.hasWork(v) {
				s.dropFromReady(v)
				return v
			}
		case vcpu.StateHalted:
			if v.CPU().Online() && s.kern.HasRunnableFor(v.ID()) {
				v.InjectInterrupt(func() {})
				// InjectInterrupt on a halted vCPU marks it ready and
				// calls OnWake, which enqueues it; pop it right back.
				s.dropFromReady(v)
				return v
			}
		}
	}
	return nil
}

// dropFromReady removes v from the ready queue if present.
func (s *Scheduler) dropFromReady(v *vcpu.VCPU) {
	for i, rv := range s.ready {
		if rv == v {
			s.ready = append(s.ready[:i], s.ready[i+1:]...)
			return
		}
	}
}

// hasWork reports whether the vCPU has a frozen thread or the kernel has
// runnable work it may take.
func (s *Scheduler) hasWork(v *vcpu.VCPU) bool {
	return v.CPU().Current() != nil || s.kern.HasRunnableFor(v.ID())
}

// enqueueReady appends v to the round-robin queue (no duplicates, never
// while a placement is in flight for it).
func (s *Scheduler) enqueueReady(v *vcpu.VCPU) {
	if s.claimed[v] {
		return
	}
	for _, rv := range s.ready {
		if rv == v {
			return
		}
	}
	s.ready = append(s.ready, v)
}

// enterOn lends the slot's core to v via the dedicated softirq
// (Figure 7b steps 3-4 of the yield path).
func (s *Scheduler) enterOn(slot *dpSlot, v *vcpu.VCPU) {
	if s.claimed[v] || v.State() != vcpu.StateReady {
		panic(fmt.Sprintf("core: double placement of vCPU %d (claimed=%v state=%v) on core %d",
			v.ID(), s.claimed[v], v.State(), slot.dp.ID))
	}
	if slot.dp.State() == dataplane.Polling {
		slot.dp.Yield()
		s.Yields.Inc()
	}
	slot.available = false
	slot.pendingEnter = v
	s.claimed[v] = true
	if s.node.Probe != nil {
		s.node.Probe.SetState(slot.dp.ID, accel.VState)
	}
	s.kern.RaiseSoftirq(kernel.CPUID(slot.dp.ID), VecTaiChi)
}

// softirqSwitch runs in softirq context on the target core and performs
// the actual VM-entry.
func (s *Scheduler) softirqSwitch(cpu kernel.CPUID) {
	slot := s.slots[int(cpu)]
	if slot == nil || slot.pendingEnter == nil {
		return
	}
	v := slot.pendingEnter
	slot.pendingEnter = nil
	if slot.preemptReq != 0 || slot.dp.Down() {
		// The hardware probe fired during the switch window (or the core
		// went hardware-offline): abort the entry and give the core back.
		delete(s.claimed, v)
		s.enqueueReady(v)
		s.resumeDP(slot)
		return
	}
	slot.occupant = v
	s.slotOf[v] = slot
	slice := slot.slice
	if s.cfg.NaiveCoSchedule {
		// A conventional co-scheduler has no preemption timer that can
		// break non-preemptible routines; the core comes back only when
		// the DP demands it (and then only at a preemption point).
		slice = 0
	}
	v.Enter(slot.dp.ID, slice, s.onExit)
}

// --- VM-exit handling -------------------------------------------------------

// onExit runs once the vCPU has fully vacated its DP core. The body is a
// placement context: nested reconcile triggers (wakeups, enqueues) defer
// until it finishes, so the vCPU chosen for rotation cannot be stolen by
// a re-entrant placement.
func (s *Scheduler) onExit(v *vcpu.VCPU, reason vcpu.ExitReason) {
	wasReconciling := s.reconciling
	s.reconciling = true
	defer func() {
		s.reconciling = wasReconciling
		s.reconcile()
	}()

	slot := s.slotOf[v]
	delete(s.slotOf, v)
	delete(s.claimed, v)
	if slot != nil {
		slot.occupant = nil
	}

	// Rescue applies to lock holders — threads that own forward progress
	// others depend on (§4.1: "when a CP task holds a lock"). A plain
	// non-preemptible routine can safely stay frozen until its vCPU is
	// re-placed, and a thread merely spinning on someone else's lock
	// would only burn the rescued core.
	cur := v.CPU().Current()
	needsRescue := cur != nil && cur.HoldsAnyLock()

	rotate := false
	switch reason {
	case vcpu.ExitProbe:
		if slot != nil {
			slot.slice = s.cfg.InitialSlice
			s.sw.FalsePositive(slot.dp.ID)
			s.resumeDP(slot)
		}
	case vcpu.ExitTimer:
		if slot != nil {
			if slot.dp.QueueLen() > 0 {
				// Without the hardware probe this is how pending I/O is
				// discovered: at slice expiry (Table 5's ablation). With the
				// probe enabled and no preemption request raised, the probe
				// missed this traffic — count it against the hardware
				// probe's trustworthiness.
				if s.defense != nil && s.node.Probe != nil &&
					s.node.Probe.Enabled && slot.preemptReq == 0 {
					s.noteProbeMiss(slot)
				}
				slot.slice = s.cfg.InitialSlice
				s.sw.FalsePositive(slot.dp.ID)
				s.resumeDP(slot)
			} else {
				if s.cfg.AdaptiveSlice {
					slot.slice *= 2
					if slot.slice > s.cfg.MaxSlice {
						slot.slice = s.cfg.MaxSlice
					}
				}
				s.sw.SustainedIdle(slot.dp.ID)
				rotate = true
			}
		}
	case vcpu.ExitHalt:
		rotate = true
	case vcpu.ExitForced, vcpu.ExitIPI:
		// Revocation or an unposted-interrupt exit: the core must not
		// strand in the yielded state. Give it back to the DP if traffic
		// is waiting, otherwise hand it to the next runnable vCPU.
		if slot != nil {
			if slot.dp.QueueLen() > 0 {
				s.resumeDP(slot)
			} else {
				rotate = true
			}
		}
	}

	// Safe CP-to-DP scheduling in lock context (§4.1): a preempted vCPU
	// inside a non-preemptible section is immediately re-hosted.
	if needsRescue && s.cfg.LockRescue && reason != vcpu.ExitHalt {
		s.rescue(v)
	} else {
		s.releaseOrRequeue(v)
	}

	if rotate && slot != nil {
		next := (*vcpu.VCPU)(nil)
		if s.lendable(slot) {
			next = s.acquireVCPU()
		}
		if next != nil {
			s.Rotations.Inc()
			s.enterOn(slot, next)
		} else {
			s.resumeDP(slot)
		}
	}
	s.reconcile()
}

// releaseOrRequeue hands a descheduled vCPU's preemptible frozen thread
// back to the kernel runqueue (so it can run natively on CP pCPUs or on
// other vCPUs) and requeues the vCPU if it still has work.
func (s *Scheduler) releaseOrRequeue(v *vcpu.VCPU) {
	c := v.CPU()
	if c.Current() != nil && !c.InNonPreemptibleSection() {
		s.kern.DetachCurrent(c)
	}
	if v.State() == vcpu.StateReady && s.hasWork(v) {
		s.enqueueReady(v)
	}
}

// resumeDP restores the DP service on the slot's core (Figure 7b steps
// 3-4 of the preempt path) and flips the probe state back to P.
func (s *Scheduler) resumeDP(slot *dpSlot) {
	if s.node.Probe != nil {
		s.node.Probe.SetState(slot.dp.ID, accel.PState)
	}
	if slot.wdEv != (sim.Handle{}) {
		slot.wdEv.Cancel()
		slot.wdEv = sim.Handle{}
	}
	clean := slot.wdRetries == 0
	if !clean {
		// The reclaim only completed because the watchdog escalated.
		s.FaultsRecovered.Inc()
		slot.wdRetries = 0
	}
	if slot.preemptReq != 0 {
		s.PreemptLatency.Record(s.engine.Now().Sub(slot.preemptReq))
		slot.preemptReq = 0
	}
	slot.available = false
	if slot.dp.State() == dataplane.Yielded {
		slot.dp.Resume()
	}
	if clean {
		// A watchdog-free reclaim is probation evidence for the recovery
		// ladder (no-op unless EnableRecovery armed it).
		s.noteCleanReclaim(slot)
	}
}

// rescue immediately re-hosts a lock-holding vCPU: on another idle DP
// core if one exists (probability argument of §4.1), else on a dedicated
// CP pCPU chosen round-robin, freezing that pCPU's native context until
// the critical section drains.
func (s *Scheduler) rescue(v *vcpu.VCPU) {
	s.Rescues.Inc()
	// Preferred: another idle DP core.
	for _, id := range s.order {
		slot := s.slots[id]
		if slot.available && slot.occupant == nil && slot.pendingEnter == nil &&
			s.lendable(slot) &&
			slot.dp.State() == dataplane.Polling && slot.dp.QueueLen() == 0 {
			s.enterOn(slot, v)
			return
		}
	}
	// Fallback: borrow a CP pCPU.
	host := s.pickCPHost()
	if host == nil {
		// Every CP core is already hosting a rescue: queue with priority;
		// the next core to free up (DP or CP) takes it.
		s.rescueQ = append(s.rescueQ, v)
		return
	}
	s.hostOnCP(host, v)
}

// pickCPHost chooses a CP pCPU for rescue hosting, preferring cores whose
// native context is interruptible.
func (s *Scheduler) pickCPHost() *kernel.CPU {
	n := len(s.cpCores)
	if n == 0 {
		return nil
	}
	// Never freeze a native context inside its own non-preemptible
	// section — that could freeze the very lock holder the rescue is
	// trying to run.
	for i := 0; i < n; i++ {
		c := s.cpCores[(s.rrCP+i)%n]
		if c.Powered() && !c.InNonPreemptibleSection() {
			s.rrCP = (s.rrCP + i + 1) % n
			return c
		}
	}
	return nil
}

// hostOnCP freezes a CP pCPU's native context and runs the rescued vCPU
// on it until the vCPU leaves its non-preemptible section.
func (s *Scheduler) hostOnCP(host *kernel.CPU, v *vcpu.VCPU) {
	host.PowerOff()
	s.claimed[v] = true
	var onExit func(v *vcpu.VCPU, reason vcpu.ExitReason)
	onExit = func(v *vcpu.VCPU, reason vcpu.ExitReason) {
		stillNP := v.CPU().Current() != nil && v.CPU().InNonPreemptibleSection()
		if reason == vcpu.ExitTimer && stillNP && v.State() == vcpu.StateReady {
			v.Enter(int(host.ID), s.cfg.RescueSlice, onExit)
			return
		}
		delete(s.claimed, v)
		host.PowerOn()
		s.releaseOrRequeue(v)
		// Serve the next queued rescue on the core we just freed.
		for len(s.rescueQ) > 0 {
			next := s.rescueQ[0]
			s.rescueQ = s.rescueQ[1:]
			if !s.claimed[next] && next.State() == vcpu.StateReady && s.hasWork(next) {
				s.rescue(next)
				break
			}
		}
		s.reconcile()
	}
	v.Enter(int(host.ID), s.cfg.RescueSlice, onExit)
}
