package cluster

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/sim"
)

// RequestState is one VM-creation request's lifecycle position.
type RequestState uint8

// Request states. The happy path is Pending → Provisioning → Completed;
// a failed attempt detours through Retrying (back to Provisioning) until
// it either completes or exhausts its attempt budget and dead-letters.
const (
	// ReqPending: created, first provisioning attempt not yet issued.
	ReqPending RequestState = iota
	// ReqProvisioning: a device-management attempt is in flight.
	ReqProvisioning
	// ReqRetrying: the last attempt failed; a backoff timer is running.
	ReqRetrying
	// ReqCompleted: the VM is running (terminal).
	ReqCompleted
	// ReqDeadLettered: the attempt budget is exhausted; devices were
	// rolled back and the failure reason recorded (terminal).
	ReqDeadLettered
	// ReqShed: the admission gate rejected the request outright or the
	// queue-deadline shedder expired it while still queued (terminal).
	// Distinct from dead-letter: no provisioning attempt was consumed,
	// no device inventory existed, and the requeue machinery never sees
	// it — a shed is the cheap outcome a client retries against another
	// node, not a provisioning failure.
	ReqShed
)

// String names the state.
func (s RequestState) String() string {
	switch s {
	case ReqPending:
		return "pending"
	case ReqProvisioning:
		return "provisioning"
	case ReqRetrying:
		return "retrying"
	case ReqCompleted:
		return "completed"
	case ReqDeadLettered:
		return "dead-lettered"
	case ReqShed:
		return "shed"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Terminal reports whether the state is final.
func (s RequestState) Terminal() bool {
	return s == ReqCompleted || s == ReqDeadLettered || s == ReqShed
}

// Request tracks one VM creation end to end. Every issued request
// reaches a terminal state: either the VM came up (Completed) or the
// request was dead-lettered with a recorded reason after its attempt
// budget ran out — no fault may leave a request silently stranded.
type Request struct {
	// ID is the VM id (1-based issue order).
	ID int
	// Class is the request's priority class; shedding is strict-priority
	// (batch first, latency-critical last) and retry/resurrection budgets
	// may differ per class.
	Class Priority
	// Attempts counts provisioning attempts issued so far.
	Attempts int
	// IssuedAt / CompletedAt bound the request's lifetime.
	IssuedAt    sim.Time
	CompletedAt sim.Time
	// Reason records why the request dead-lettered ("" otherwise).
	Reason string
	// Resurrections counts how many times the bounded requeue machinery
	// pulled this request back out of the dead-letter terminal.
	Resurrections int

	state   RequestState
	records []*device.Device
	// attemptBudget is the attempt count at which the request
	// dead-letters; it starts at the class's attempt budget and grows by
	// the same amount per resurrection (Attempts itself stays monotonic so
	// per-attempt RNG stream names never repeat).
	attemptBudget int
	// deadline is the per-attempt timeout, nil unless retries are on.
	deadline *sim.Timer
	// enqueuedAt is when the admission gate queued the request (zero when
	// it was dispatched immediately); the sojourn the shedder measures.
	enqueuedAt sim.Time
}

// State returns the request's lifecycle state.
func (r *Request) State() RequestState { return r.state }

// Terminal reports whether the request reached a terminal state.
func (r *Request) Terminal() bool { return r.state.Terminal() }

// RetryPolicy governs per-request deadlines and retries. The zero value
// (Enabled false) disables the whole machinery: no deadline events are
// scheduled, no RNG stream is created, and the manager's event stream is
// byte-identical to the pre-lifecycle implementation. The deadline and
// backoff shape are the package constants below.
type RetryPolicy struct {
	// Enabled arms deadlines, retries and dead-lettering.
	Enabled bool
	// ClassMaxAttempts overrides maxAttempts per priority class (index by
	// Priority). A zero entry falls back to maxAttempts, so the zero
	// array keeps every class on the shared budget.
	ClassMaxAttempts [NumPriorities]int
}

// Retry tuning shared by every enabled policy: a production
// device-manager profile of three attempts, a deadline comfortably above
// the uncontended init time, and exponentially growing, jittered
// backoff.
const (
	// maxAttempts bounds provisioning attempts per request; the request
	// dead-letters when the budget is exhausted.
	maxAttempts = 3
	// attemptTimeout is the per-attempt deadline: an attempt that has not
	// signalled device completion by then is declared failed.
	attemptTimeout = 500 * sim.Millisecond
	// baseBackoff and backoffFactor shape the exponential backoff
	// between attempts: attempt n waits baseBackoff × backoffFactor^(n-1).
	baseBackoff   = 20 * sim.Millisecond
	backoffFactor = 2.0
	// retryJitter spreads each backoff by ±frac, drawn from the
	// manager's dedicated "cluster.retry" stream so replays stay
	// bit-for-bit.
	retryJitter = 0.2
)

// DefaultRetryPolicy arms retries with the shared budget for every
// class.
func DefaultRetryPolicy() RetryPolicy { return RetryPolicy{Enabled: true} }

// backoff returns the delay before re-issuing after failed attempt n
// (1-based), before jitter.
func backoff(n int) sim.Duration {
	d := float64(baseBackoff)
	for i := 1; i < n; i++ {
		d *= backoffFactor
	}
	return sim.Duration(d)
}

// RequeuePolicy governs bounded dead-letter resurrection: a
// dead-lettered request may re-enter the pipeline with a fresh attempt
// budget, but only while the target node is healthy and only a bounded
// number of times per request — resurrection must never become an
// unbounded retry loop. The zero value (Enabled false) disables the
// machinery entirely: no RNG stream, no timers, byte-identical to the
// pre-requeue manager.
type RequeuePolicy struct {
	// Enabled arms the dead-letter requeue path.
	Enabled bool
}

// Requeue tuning: one resurrection per request after a short
// health-gated dwell.
const (
	// maxResurrections bounds resurrections per request.
	maxResurrections = 1
	// requeueDelay is the dwell between dead-lettering and the health
	// check that gates resurrection.
	requeueDelay = 50 * sim.Millisecond
	// requeueJitter spreads each dwell by ±frac, drawn from the
	// manager's dedicated "cluster.requeue" stream.
	requeueJitter = 0.2
	// maxHealthChecks bounds how many times an unhealthy verdict is
	// re-polled before the request is abandoned in the dead-letter state.
	maxHealthChecks = 4
)

// DefaultRequeuePolicy arms the dead-letter requeue path.
func DefaultRequeuePolicy() RequeuePolicy { return RequeuePolicy{Enabled: true} }
