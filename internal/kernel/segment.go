// Package kernel models the SmartNIC's native operating system at the
// granularity Tai Chi cares about: threads composed of execution segments
// (user compute, preemptible kernel, non-preemptible kernel, spinlock
// critical sections, sleeps, waits), per-CPU executors that can be frozen
// and thawed (the property hybrid virtualization exploits), a fair
// scheduler with millisecond ticks, spinlocks whose holders disable
// preemption (the source of the paper's Figure 4/5 latency spikes), an
// IPI dispatch layer with an interception hook (the `x2apic_send_IPI`
// surface the unified IPI orchestrator hooks), and a softirq engine.
//
// Logical CPUs are either physical (always powered) or virtual (powered
// only while a hypervisor backs them with a physical core). The kernel
// itself is oblivious to the distinction — exactly the paper's "hybrid
// virtualization" transparency claim — except that virtual CPUs can be
// powered off at any instant, even inside a non-preemptible section.
package kernel

import (
	"fmt"

	"repro/internal/sim"
)

// SegKind classifies one execution segment of a thread program.
type SegKind uint8

// Segment kinds.
const (
	// SegCompute is user-space computation; preemptible at any tick.
	SegCompute SegKind = iota
	// SegSyscall is preemptible kernel-space work.
	SegSyscall
	// SegNonPreempt is kernel work with preemption disabled (e.g. a driver
	// routine); a physical CPU cannot switch away until it completes. A
	// virtual CPU can still be frozen mid-segment — Tai Chi's key trick.
	SegNonPreempt
	// SegLock acquires Lock (spinning non-preemptibly if contended), holds
	// it non-preemptibly for Dur, then releases it.
	SegLock
	// SegMutex acquires Mutex (sleeping off-CPU if contended), holds it
	// preemptibly for Dur, then releases it and wakes the next waiter.
	SegMutex
	// SegSleep blocks the thread off-CPU for Dur.
	SegSleep
	// SegWait blocks the thread off-CPU until Thread.Signal is called.
	SegWait
)

// String returns a short name for the segment kind.
func (k SegKind) String() string {
	switch k {
	case SegCompute:
		return "compute"
	case SegSyscall:
		return "syscall"
	case SegNonPreempt:
		return "non_preempt"
	case SegLock:
		return "lock"
	case SegMutex:
		return "mutex"
	case SegSleep:
		return "sleep"
	case SegWait:
		return "wait"
	}
	return fmt.Sprintf("seg(%d)", uint8(k))
}

// Segment is one step of a thread program.
type Segment struct {
	Kind SegKind
	// Dur is the CPU time the segment consumes (or sleep length). Ignored
	// for SegWait.
	Dur sim.Duration
	// Lock is the spinlock for SegLock segments.
	Lock *SpinLock
	// Mutex is the sleeping lock for SegMutex segments.
	Mutex *Mutex
	// OnStart runs when the segment first begins executing (after any
	// spin-wait for SegLock). Used by CP task models to issue IPC.
	OnStart func()
	// OnDone runs when the segment completes.
	OnDone func()
	// Note is attached to trace events.
	Note string
}

// Preemptible reports whether the kernel scheduler may switch away from a
// thread mid-segment on a physical CPU. Mutex critical sections remain
// preemptible — unlike spinlocks, mutexes do not disable preemption.
func (s Segment) Preemptible() bool {
	return s.Kind == SegCompute || s.Kind == SegSyscall || s.Kind == SegMutex
}

// Program supplies a thread's segments one at a time. Returning ok=false
// terminates the thread.
type Program interface {
	Next(t *Thread) (seg Segment, ok bool)
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(t *Thread) (Segment, bool)

// Next implements Program.
func (f ProgramFunc) Next(t *Thread) (Segment, bool) { return f(t) }

// SliceProgram runs a fixed list of segments once.
type SliceProgram struct {
	Segments []Segment
	pos      int
}

// Next implements Program.
func (p *SliceProgram) Next(*Thread) (Segment, bool) {
	if p.pos >= len(p.Segments) {
		return Segment{}, false
	}
	s := p.Segments[p.pos]
	p.pos++
	return s, true
}

// LoopProgram repeats a generator until the thread has consumed Total CPU
// time, a model for "a CP task with a fixed execution time" such as the
// paper's 50 ms synth_cp tasks.
type LoopProgram struct {
	// Total is the CPU time budget; once consumed the thread exits.
	Total sim.Duration
	// Gen produces the next segment given remaining budget. Segments
	// longer than the remaining budget are truncated.
	Gen func(remaining sim.Duration) Segment

	consumed sim.Duration
}

// Next implements Program.
func (p *LoopProgram) Next(*Thread) (Segment, bool) {
	remaining := p.Total - p.consumed
	if remaining <= 0 {
		return Segment{}, false
	}
	s := p.Gen(remaining)
	if s.Kind != SegSleep && s.Kind != SegWait {
		if s.Dur > remaining {
			s.Dur = remaining
		}
		p.consumed += s.Dur
	}
	return s, true
}
