package kernel

import (
	"fmt"

	"repro/internal/sim"
)

// ThreadID identifies a kernel thread.
type ThreadID int

// ThreadState is the scheduling state of a thread.
type ThreadState uint8

// Thread states.
const (
	// StateNew: created, not yet started.
	StateNew ThreadState = iota
	// StateRunnable: in the runqueue, waiting for a CPU.
	StateRunnable
	// StateRunning: currently on a CPU (possibly a frozen vCPU).
	StateRunning
	// StateSleeping: off-CPU on a timer.
	StateSleeping
	// StateWaiting: off-CPU awaiting Signal.
	StateWaiting
	// StateDone: exited.
	StateDone
)

// String returns a short name for the state.
func (s ThreadState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateSleeping:
		return "sleeping"
	case StateWaiting:
		return "waiting"
	case StateDone:
		return "done"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Thread is a schedulable entity with a segment program and a CPU affinity
// mask. CP tasks, monitors, and benchmark tasks are all Threads.
type Thread struct {
	ID      ThreadID
	Name    string
	program Program

	// affinity is the set of logical CPUs the thread may run on, one bit
	// per CPU id; nil means "any CPU". Set via standard affinity
	// configuration, which is how CP tasks get bound to vCPUs without code
	// modification (§4.2).
	affinity []uint64

	state    ThreadState
	cpu      *CPU // CPU currently executing (or frozen-holding) the thread
	vruntime sim.Duration
	// weight scales fair-share: a weight-w thread accrues vruntime at 1/w
	// of real CPU time, so it receives w times the share of a weight-1
	// peer (the CFS nice-level analogue).
	weight int

	// In-flight segment bookkeeping. seg points at segBuf while a segment
	// is in flight, so fetching one allocates nothing.
	seg          *Segment
	segBuf       Segment
	segRemaining sim.Duration
	segStarted   bool // OnStart fired
	spinningOn   *SpinLock
	holding      int          // spinlocks held
	sliceRan     sim.Duration // CPU time since last dispatch, for quantum
	// pendingSignal records a Signal that arrived before the SegWait
	// started, so an IPC reply racing ahead of the wait is not lost.
	pendingSignal bool
	// frozenRemaining is the remaining time of the timed segment that was
	// in flight when the thread's vCPU was powered off; -1 when no timed
	// segment was in flight.
	frozenRemaining sim.Duration
	// wakeFire is t.wake, bound at the first sleep so later sleeps
	// allocate nothing.
	wakeFire func()

	// Stats.
	CreatedAt  sim.Time
	StartedAt  sim.Time
	FinishedAt sim.Time
	CPUTime    sim.Duration

	// OnExit runs when the thread's program completes.
	OnExit func(t *Thread)

	kern *Kernel
}

// State returns the thread's scheduling state.
func (t *Thread) State() ThreadState { return t.state }

// Weight returns the fair-share weight (≥1).
func (t *Thread) Weight() int {
	if t.weight <= 0 {
		return 1
	}
	return t.weight
}

// SetWeight adjusts the fair-share weight; higher weights receive
// proportionally more CPU under contention. Values below 1 clamp to 1.
func (t *Thread) SetWeight(w int) {
	if w < 1 {
		w = 1
	}
	t.weight = w
}

// SetAffinity restricts the thread to the given CPUs; the standard
// mechanism by which CP tasks are bound to vCPUs (§4.2). Passing no CPUs
// clears the restriction. Affinity changes take effect at the next
// scheduling decision. A negative CPU id panics.
func (t *Thread) SetAffinity(cpus ...CPUID) {
	if len(cpus) == 0 {
		t.affinity = nil
		return
	}
	var set []uint64
	for _, c := range cpus {
		if c < 0 {
			panic(fmt.Sprintf("kernel: affinity of thread %s names cpu %d", t.Name, c))
		}
		w := int(c / 64)
		if w >= len(set) {
			set = append(set, make([]uint64, w+1-len(set))...)
		}
		set[w] |= 1 << (c % 64)
	}
	t.affinity = set
}

// AllowedOn reports whether the thread may run on cpu.
func (t *Thread) AllowedOn(cpu CPUID) bool {
	if t.affinity == nil {
		return true
	}
	w := uint(cpu) / 64
	return w < uint(len(t.affinity)) && t.affinity[w]&(1<<(uint(cpu)%64)) != 0
}

// wake ends a sleep segment.
func (t *Thread) wake() { t.kern.makeRunnable(t) }

// Signal releases a thread blocked in SegWait. Signalling a thread not in
// StateWaiting is remembered and consumed by the next SegWait (so an IPC
// reply that races ahead of the wait is not lost).
func (t *Thread) Signal() {
	if t.state == StateWaiting {
		t.kern.makeRunnable(t)
		return
	}
	t.pendingSignal = true
}

// HoldsAnyLock reports whether the thread currently holds any spinlock —
// the condition that triggers Tai Chi's safe lock-context rescheduling
// when the thread's vCPU gets preempted (§4.1).
func (t *Thread) HoldsAnyLock() bool { return t.holding > 0 }

// InNonPreemptible reports whether the thread is inside a non-preemptible
// segment (including spinning on or holding a lock).
func (t *Thread) InNonPreemptible() bool {
	if t.spinningOn != nil || t.holding > 0 {
		return true
	}
	return t.seg != nil && !t.seg.Preemptible()
}

// Turnaround returns finish-start wall time for completed threads.
func (t *Thread) Turnaround() sim.Duration {
	if t.state != StateDone {
		return 0
	}
	return t.FinishedAt.Sub(t.CreatedAt)
}
