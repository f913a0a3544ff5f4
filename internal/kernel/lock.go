package kernel

// SpinLock models a kernel spinlock: acquisition disables preemption, a
// contended acquirer spins on its CPU (burning cycles, still
// non-preemptible), and — crucially for the paper — a *frozen* virtual CPU
// can hold the lock while other CPUs spin, which is the deadlock hazard
// Tai Chi's safe lock-context rescheduling exists to defuse (§4.1).
type SpinLock struct {
	Name string
	// spinNote and holdNote are the trace notes of a spin on the lock
	// and of a hold of it, built once here rather than on every emit.
	spinNote, holdNote string
	owner              *Thread
	waiters            []*Thread // FIFO spin queue
	// AcquireCount counts successful acquisitions, for tests.
	AcquireCount uint64
	// ContendedCount counts acquisitions that had to spin first.
	ContendedCount uint64
}

// NewSpinLock returns an unlocked spinlock.
func NewSpinLock(name string) *SpinLock {
	return &SpinLock{Name: name, spinNote: "spin:" + name, holdNote: "hold:" + name}
}

// Owner returns the current holder, or nil.
func (l *SpinLock) Owner() *Thread { return l.owner }

// Locked reports whether the lock is held.
func (l *SpinLock) Locked() bool { return l.owner != nil }

// Waiters returns the number of threads currently spinning on the lock.
func (l *SpinLock) Waiters() int { return len(l.waiters) }

// tryAcquire takes the lock for t if free, returning success.
func (l *SpinLock) tryAcquire(t *Thread) bool {
	if l.owner != nil {
		return false
	}
	l.owner = t
	l.AcquireCount++
	t.holding++
	return true
}

// addWaiter appends t to the spin queue (no duplicates).
func (l *SpinLock) addWaiter(t *Thread) {
	for _, w := range l.waiters {
		if w == t {
			return
		}
	}
	l.waiters = append(l.waiters, t)
}

// removeWaiter drops t from the spin queue.
func (l *SpinLock) removeWaiter(t *Thread) {
	for i, w := range l.waiters {
		if w == t {
			l.waiters = append(l.waiters[:i], l.waiters[i+1:]...)
			return
		}
	}
}

// release frees the lock held by t. The kernel decides which waiter (if
// any) is granted next, because only waiters on powered CPUs can proceed.
func (l *SpinLock) release(t *Thread) {
	if l.owner != t {
		panic("kernel: releasing spinlock not held by thread " + t.Name)
	}
	l.owner = nil
	t.holding--
}
