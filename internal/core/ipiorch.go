package core

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/vcpu"
)

// Orchestrator is the unified IPI orchestrator (§4.2, Figure 8). It hooks
// the kernel's IPI dispatch (the x2apic_send_IPI interception of §5) and
// routes every interrupt according to the destination's nature:
//
//   - pCPU destination: fall through to the hardware path (MSR write);
//   - running vCPU: direct injection via posted interrupts (or a forced
//     VM-exit when posted interrupts are unavailable);
//   - runnable (unbacked) vCPU: the interrupt posts and is drained when
//     the vCPU is next scheduled;
//   - sleeping (halted) vCPU: the vCPU is woken first, then delivered.
//
// It also performs the vCPU registration ceremony of Figure 8a: vCPUs
// are created as offline native CPUs and brought online with boot IPIs,
// after which standard CPU-affinity configuration can bind unmodified CP
// tasks to them.
type Orchestrator struct {
	kern *kernel.Kernel
	// vcpus indexes the registered vCPUs by logical CPU id; other ids
	// hold nil.
	vcpus  []*vcpu.VCPU
	engine *sim.Engine

	// SourceExitCost is the extra latency when the *sender* is a running
	// vCPU and the platform lacks IPI virtualization: a VM-exit returns
	// control to the scheduler, which reissues the IPI. Zero when IPIV
	// hardware support is present (§5).
	SourceExitCost sim.Duration

	// Routed / SourceExits / Wakeups count orchestrator activity.
	Routed      uint64
	SourceExits uint64
	Wakeups     uint64
}

// NewOrchestrator builds the orchestrator and installs it as the kernel's
// IPI router.
func NewOrchestrator(k *kernel.Kernel) *Orchestrator {
	o := &Orchestrator{
		kern:   k,
		engine: k.Engine(),
	}
	k.Router = o.route
	return o
}

// Register brings a vCPU online as a native CPU: the boot IPI sequence of
// Figure 8a (INIT/SIPI analogue), after which the OS schedules threads on
// it like any other CPU.
func (o *Orchestrator) Register(v *vcpu.VCPU) {
	id := v.ID()
	if o.VCPU(id) != nil {
		panic(fmt.Sprintf("core: vCPU %d registered twice", id))
	}
	for len(o.vcpus) <= int(id) {
		o.vcpus = append(o.vcpus, nil)
	}
	o.vcpus[id] = v
	// Boot IPI sequence: routed below, where it onlines the CPU.
	o.kern.SendIPI(-1, id, kernel.VecBoot, 0)
}

// VCPU returns the registered vCPU for a logical CPU id, or nil.
func (o *Orchestrator) VCPU(id kernel.CPUID) *vcpu.VCPU {
	if uint(id) < uint(len(o.vcpus)) {
		return o.vcpus[id]
	}
	return nil
}

// route implements kernel.IPIRouter.
func (o *Orchestrator) route(src, dst kernel.CPUID, vec kernel.Vector, arg int64) bool {
	o.Routed++

	// Source phase (Figure 8b left): a vCPU sender without IPI
	// virtualization must VM-exit so the scheduler can reissue the IPI.
	var sendDelay sim.Duration
	if srcV := o.VCPU(src); srcV != nil && srcV.State() == vcpu.StateRunning && o.SourceExitCost > 0 {
		o.SourceExits++
		sendDelay = o.SourceExitCost
	}

	v := o.VCPU(dst)
	isVirtual := v != nil

	// Registration ceremony (Figure 8a): boot IPIs online the offline
	// vCPU without touching its run state — the guest stays "sleeping"
	// until real work arrives.
	if isVirtual && vec == kernel.VecBoot {
		c := o.kern.CPU(dst)
		if c != nil && !c.Online() {
			c.SetOnline(true)
		}
		return true
	}

	if !isVirtual {
		// Destination phase, pCPU case: hardware MSR-write delivery.
		if sendDelay == 0 {
			return false // fall through to the kernel's direct path
		}
		o.engine.ScheduleNamed(sendDelay, "core.ipi-send", func() {
			o.kern.DeliverIPIDirect(dst, vec, arg, 0)
		})
		return true
	}

	if sendDelay > 0 {
		o.engine.ScheduleNamed(sendDelay, "core.ipi-send", func() { o.inject(v, vec, arg) })
	} else {
		o.inject(v, vec, arg)
	}
	return true
}

// inject is the destination phase for a vCPU: wake it if halted, then
// deliver through it.
func (o *Orchestrator) inject(v *vcpu.VCPU, vec kernel.Vector, arg int64) {
	if v.State() == vcpu.StateHalted {
		o.Wakeups++
	}
	v.InjectInterrupt(func() { o.kern.DeliverIPIDirect(v.ID(), vec, arg, 0) })
}
