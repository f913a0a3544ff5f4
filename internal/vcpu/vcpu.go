// Package vcpu provides hardware-assisted virtual CPU contexts on top of
// kernel logical CPUs: costed VM-entry/VM-exit transitions, preemption
// timers (the vCPU time slice), halt/wake semantics, and posted-interrupt
// injection. It models the VT-x-style capability envelope the paper
// relies on (§2.1, §3.4): a vCPU can be interrupted at *any* instant by an
// external event — even inside a guest non-preemptible routine — at a cost
// of roughly two microseconds.
//
// The policy of *when* to enter and exit vCPUs lives in internal/core
// (Tai Chi's vCPU scheduler) and internal/baseline; this package supplies
// only the mechanics.
package vcpu

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ExitReason says why a VM-exit happened. The Tai Chi scheduler drives its
// adaptive time slice and adaptive yield threshold off this (§4.1, §4.3).
type ExitReason uint8

// Exit reasons.
const (
	// ExitTimer: the vCPU preemption timer (time slice) expired.
	ExitTimer ExitReason = iota
	// ExitProbe: the hardware workload probe demanded the core back.
	ExitProbe
	// ExitHalt: the guest went idle (HLT).
	ExitHalt
	// ExitIPI: an interrupt for the vCPU could not be posted and forced an
	// exit (posted interrupts disabled).
	ExitIPI
	// ExitForced: the host scheduler revoked the core for its own reasons
	// (e.g. lock-rescue migration).
	ExitForced
)

// String names the exit reason; these strings appear in traces.
func (r ExitReason) String() string {
	switch r {
	case ExitTimer:
		return "timer"
	case ExitProbe:
		return "probe"
	case ExitHalt:
		return "halt"
	case ExitIPI:
		return "ipi"
	case ExitForced:
		return "forced"
	}
	return fmt.Sprintf("exit(%d)", uint8(r))
}

// State is the vCPU lifecycle state.
type State uint8

// vCPU states.
const (
	// StateHalted: guest idle; not schedulable until woken by an interrupt.
	StateHalted State = iota
	// StateReady: runnable, awaiting a physical core.
	StateReady
	// StateEntering: VM-entry in progress on a core.
	StateEntering
	// StateRunning: executing on a core.
	StateRunning
	// StateExiting: VM-exit in progress; the core is still occupied.
	StateExiting
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateHalted:
		return "halted"
	case StateReady:
		return "ready"
	case StateEntering:
		return "entering"
	case StateRunning:
		return "running"
	case StateExiting:
		return "exiting"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Costs is the virtualization cost model.
type Costs struct {
	// Entry is the VM-entry latency (host decides → guest executes).
	Entry sim.Duration
	// Exit is the VM-exit latency (exit event → host regains the core).
	// The paper's "2 µs scheduling latency" when CP yields to DP (§3.4).
	Exit sim.Duration
	// PostedInterrupts, when true, lets interrupts be injected into a
	// running vCPU without a VM-exit (§5).
	PostedInterrupts bool
}

// DefaultCosts mirrors the paper's measurements.
func DefaultCosts() Costs {
	return Costs{
		Entry:            1 * sim.Microsecond,
		Exit:             2 * sim.Microsecond,
		PostedInterrupts: true,
	}
}

// VCPU is one virtual CPU context bound 1:1 to a kernel logical CPU.
type VCPU struct {
	cpu    *kernel.CPU
	kern   *kernel.Kernel
	engine *sim.Engine
	costs  Costs
	tracer *trace.Tracer

	state      State
	core       int // physical core backing the vCPU, -1 when none
	sliceTimer sim.Handle
	sliceFire  func() // v.sliceExpired, bound once so Enter's timer allocates nothing
	exitCb     func(v *VCPU, reason ExitReason)
	exitEv     sim.Handle // in-flight VM-exit completion
	exitReason ExitReason // reason of the in-flight exit
	exitFire   func()     // v.exitDone, bound once
	// entrySlices holds the slice of every VM-entry event still queued,
	// oldest first. Every entry costs the same Costs.Entry, so entry
	// events fire in Enter order and each takes the oldest slice: an
	// event left over from a revoked entry arms its own Enter's slice,
	// never the next one's.
	entrySlices sim.FIFO[sim.Duration]
	entryFire   func() // v.entryDone, bound once

	// OnWake fires when an interrupt wakes a halted vCPU; the scheduler
	// uses it to move the vCPU into its runnable queue.
	OnWake func(v *VCPU)

	// ExitStall, when non-nil, returns extra VM-exit latency beyond
	// Costs.Exit — the fault-injection layer's "exit stalls past the 2 µs
	// envelope" class. Nil in fault-free runs.
	ExitStall func(v *VCPU) sim.Duration

	// Stats.
	Entries     uint64
	Exits       uint64
	ExitsByWhy  [5]uint64
	ForcedPosts uint64 // interrupts delivered via posted-interrupt fast path
	Teardowns   uint64 // forced exit completions (watchdog escalation)
}

// New wraps the kernel CPU (which must be virtual) as a vCPU context.
func New(k *kernel.Kernel, cpu *kernel.CPU, costs Costs, tracer *trace.Tracer) *VCPU {
	if !cpu.Virtual {
		panic(fmt.Sprintf("vcpu: cpu%d is not virtual", cpu.ID))
	}
	v := &VCPU{
		cpu:    cpu,
		kern:   k,
		engine: k.Engine(),
		costs:  costs,
		tracer: tracer,
		state:  StateHalted,
		core:   -1,
	}
	v.sliceFire = v.sliceExpired
	v.exitFire = v.exitDone
	v.entryFire = v.entryDone
	// Guest idle → HLT → exit and free the core.
	cpu.OnIdle = func(*kernel.CPU) {
		if v.state == StateRunning {
			v.beginExit(ExitHalt)
		}
	}
	return v
}

// CPU returns the underlying kernel logical CPU.
func (v *VCPU) CPU() *kernel.CPU { return v.cpu }

// ID returns the logical CPU id.
func (v *VCPU) ID() kernel.CPUID { return v.cpu.ID }

// State returns the lifecycle state.
func (v *VCPU) State() State { return v.state }

// Core returns the backing physical core, or -1.
func (v *VCPU) Core() int { return v.core }

// MarkReady transitions a halted vCPU to ready without an interrupt —
// used at registration time once the boot sequence completes.
func (v *VCPU) MarkReady() {
	if v.state == StateHalted {
		v.state = StateReady
	}
}

// Enter performs VM-entry on the given physical core. After the entry
// cost elapses the guest resumes exactly where it froze. slice arms the
// preemption timer (0 = no timer). onExit is invoked once per Enter, when
// the vCPU has fully exited and the core is free again.
func (v *VCPU) Enter(core int, slice sim.Duration, onExit func(v *VCPU, reason ExitReason)) {
	if v.state != StateReady {
		panic(fmt.Sprintf("vcpu %d: Enter in state %v", v.cpu.ID, v.state))
	}
	v.state = StateEntering
	v.core = core
	v.exitCb = onExit
	v.Entries++
	v.tracer.Emit(v.engine.Now(), trace.KindVMEntry, core, int64(v.cpu.ID), "")
	v.entrySlices.Push(slice)
	v.engine.ScheduleNamed(v.costs.Entry, "vcpu.entry", v.entryFire)
}

// entryDone completes the oldest queued VM-entry: the guest resumes and
// that entry's preemption timer is armed.
func (v *VCPU) entryDone() {
	slice := v.entrySlices.Pop()
	if v.state != StateEntering {
		return // revoked mid-entry
	}
	v.state = StateRunning
	if slice > 0 {
		v.sliceTimer = v.engine.ScheduleNamed(slice, "vcpu.slice", v.sliceFire)
	}
	v.cpu.PowerOn()
}

// sliceExpired is the preemption timer: a vCPU still running exits.
func (v *VCPU) sliceExpired() {
	v.sliceTimer = sim.Handle{}
	if v.state == StateRunning {
		v.beginExit(ExitTimer)
	}
}

// ForceExit demands an immediate VM-exit with the given reason. It is
// the hardware workload probe's IRQ path (reason=ExitProbe) and the
// scheduler's revocation path (reason=ExitForced). No-op unless running.
func (v *VCPU) ForceExit(reason ExitReason) {
	switch v.state {
	case StateRunning:
		v.beginExit(reason)
	case StateEntering:
		// Revoke mid-entry: cheap, guest never resumed. The exit event is
		// still emitted (note "revoked") so every vm_entry in the trace has
		// a matching vm_exit — the residency-conservation invariant the
		// runtime auditor (internal/audit) checks.
		v.tracer.Emit(v.engine.Now(), trace.KindVMExit, v.core, int64(v.cpu.ID), "revoked")
		v.state = StateReady
		v.core = -1
		cb := v.exitCb
		v.exitCb = nil
		if cb != nil {
			cb(v, reason)
		}
	}
}

// beginExit starts the costed VM-exit transition.
func (v *VCPU) beginExit(reason ExitReason) {
	if v.state != StateRunning {
		return
	}
	v.state = StateExiting
	if v.sliceTimer != (sim.Handle{}) {
		v.sliceTimer.Cancel()
		v.sliceTimer = sim.Handle{}
	}
	v.cpu.PowerOff()
	v.Exits++
	v.ExitsByWhy[reason]++
	v.tracer.Emit(v.engine.Now(), trace.KindVMExit, v.core, int64(v.cpu.ID), reason.String())
	cost := v.costs.Exit
	if v.ExitStall != nil {
		cost += v.ExitStall(v)
	}
	v.exitReason = reason
	v.exitEv = v.engine.ScheduleNamed(cost, "vcpu.exit", v.exitFire)
}

// exitDone is the in-flight VM-exit's completion event.
func (v *VCPU) exitDone() { v.completeExit(v.exitReason) }

// completeExit finishes the VM-exit transition: the core is free and the
// scheduler callback fires.
func (v *VCPU) completeExit(reason ExitReason) {
	v.exitEv = sim.Handle{}
	v.core = -1
	if reason == ExitHalt {
		v.state = StateHalted
	} else {
		v.state = StateReady
	}
	cb := v.exitCb
	v.exitCb = nil
	if cb != nil {
		cb(v, reason)
	}
}

// Teardown force-completes the vCPU's departure from its core *now*,
// bypassing the costed (and possibly stalled) exit transition — the
// hypervisor destroys and recreates the vCPU context instead of waiting
// for it to drain. It is the last rung of the reclaim watchdog's
// escalation ladder (posted interrupt → forced IPI → teardown). Reports
// whether a teardown was actually performed.
func (v *VCPU) Teardown() bool {
	if v.state == StateRunning || v.state == StateEntering {
		v.ForceExit(ExitForced)
	}
	if v.state != StateExiting {
		return false
	}
	v.Teardowns++
	if v.exitEv != (sim.Handle{}) {
		v.exitEv.Cancel()
	}
	v.completeExit(v.exitReason)
	return true
}

// InjectInterrupt delivers an interrupt to the vCPU. Semantics follow the
// unified IPI orchestrator's destination phase (§4.2, Figure 8b):
//
//   - running + posted interrupts: direct injection, no VM-exit;
//   - running without posted interrupts: a forced ExitIPI, then delivery
//     (the deliver callback runs immediately; the guest handles it when
//     rescheduled);
//   - ready (runnable, unbacked): the interrupt posts; the kernel CPU
//     drains it at the next PowerOn;
//   - halted: the vCPU wakes (OnWake) and the interrupt posts.
func (v *VCPU) InjectInterrupt(deliver func()) {
	switch v.state {
	case StateRunning:
		if v.costs.PostedInterrupts {
			v.ForcedPosts++
			deliver()
			return
		}
		v.beginExit(ExitIPI)
		deliver()
	case StateEntering, StateExiting, StateReady:
		deliver()
	case StateHalted:
		v.state = StateReady
		deliver()
		if v.OnWake != nil {
			v.OnWake(v)
		}
	}
}

// InNonPreemptibleSection reports whether the guest is inside a
// non-preemptible routine (spinlock or SegNonPreempt) — the lock-rescue
// trigger (§4.1).
func (v *VCPU) InNonPreemptibleSection() bool { return v.cpu.InNonPreemptibleSection() }
