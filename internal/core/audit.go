package core

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// Audit implements the paper's §8 "on-demand instruction-level auditing"
// discussion: because hybrid virtualization makes vCPUs ordinary native
// CPUs, any application can be moved into an auditing vCPU domain with
// nothing but a CPU-affinity change, watched at privileged-operation
// granularity by the hypervisor, and transparently moved back — no
// persistent runtime overhead on unaudited applications.
type Audit struct {
	tc     *TaiChi
	thread *kernel.Thread
	vcpuID kernel.CPUID
	start  sim.Time

	// Counters of privileged activity observed while audited.
	Syscalls    uint64
	NonPreempt  uint64
	LockHolds   uint64
	UserPhases  uint64
	ObservedCPU sim.Duration

	active bool
}

// StartAudit moves a thread into the auditing domain: its affinity is
// pinned to one vCPU of the pool, whose segment observer records every
// privileged operation the thread begins. It refuses (with an error)
// when the thread already finished or another audit currently holds the
// auditing vCPU — both states a management plane can legitimately race
// into.
func (t *TaiChi) StartAudit(th *kernel.Thread) (*Audit, error) {
	if th.State() == kernel.StateDone {
		return nil, fmt.Errorf("core: cannot audit finished thread %q", th.Name)
	}
	if t.audit != nil && t.audit.active {
		return nil, fmt.Errorf("core: audit vCPU already occupied by thread %q", t.audit.thread.Name)
	}
	v := t.Sched.VCPUs()[len(t.Sched.VCPUs())-1] // dedicate the last pool vCPU
	a := &Audit{
		tc:     t,
		thread: th,
		vcpuID: v.ID(),
		start:  t.Node.Engine.Now(),
		active: true,
	}
	cpu := t.Node.Kernel.CPU(v.ID())
	before := th.CPUTime
	cpu.OnSegment = func(seg *kernel.Thread, kind kernel.SegKind, note string) {
		if seg != th {
			return
		}
		switch kind {
		case kernel.SegSyscall:
			a.Syscalls++
		case kernel.SegNonPreempt:
			a.NonPreempt++
		case kernel.SegLock:
			a.LockHolds++
		case kernel.SegCompute:
			a.UserPhases++
		}
		a.ObservedCPU = th.CPUTime - before
	}
	th.SetAffinity(v.ID())
	t.audit = a
	// The audit vCPU now has standing work; nudge placement.
	t.Node.Kernel.SendIPI(-1, v.ID(), kernel.VecResched, 0)
	return a, nil
}

// Stop ends the audit: the observer is removed and the thread's affinity
// is restored to the standard CP mask (vCPUs + CP pCPUs). Returns a
// one-line report.
func (a *Audit) Stop() string {
	if !a.active {
		return "audit already stopped"
	}
	a.active = false
	a.tc.Node.Kernel.CPU(a.vcpuID).OnSegment = nil
	if a.thread.State() != kernel.StateDone {
		a.thread.SetAffinity(a.tc.CPAffinity()...)
	}
	dur := a.tc.Node.Engine.Now().Sub(a.start)
	return fmt.Sprintf("audit %q over %v: %d syscalls, %d non-preemptible entries, %d lock holds, %d user phases",
		a.thread.Name, dur, a.Syscalls, a.NonPreempt, a.LockHolds, a.UserPhases)
}

// Active reports whether the audit is still attached.
func (a *Audit) Active() bool { return a.active }
