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
	// dead-letters; it starts at RetryPolicy.MaxAttempts and grows by the
	// same amount per resurrection (Attempts itself stays monotonic so
	// per-attempt RNG stream names never repeat).
	attemptBudget int
	deadline      sim.Handle
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
// byte-identical to the pre-lifecycle implementation.
type RetryPolicy struct {
	// Enabled arms deadlines, retries and dead-lettering.
	Enabled bool
	// MaxAttempts bounds provisioning attempts per request; the request
	// dead-letters when the budget is exhausted.
	MaxAttempts int
	// AttemptTimeout is the per-attempt deadline: an attempt that has not
	// signalled device completion by then is declared failed.
	AttemptTimeout sim.Duration
	// BaseBackoff / BackoffFactor shape the exponential backoff between
	// attempts: attempt n waits BaseBackoff × BackoffFactor^(n-1).
	BaseBackoff   sim.Duration
	BackoffFactor float64
	// JitterFrac spreads each backoff by ±frac, drawn from the manager's
	// dedicated "cluster.retry" stream so replays stay bit-for-bit.
	JitterFrac float64
	// ClassMaxAttempts overrides MaxAttempts per priority class (index by
	// Priority). A zero entry falls back to MaxAttempts, so the zero
	// array keeps every class on the shared budget.
	ClassMaxAttempts [NumPriorities]int
}

// DefaultRetryPolicy mirrors a production device-manager profile: three
// attempts, a deadline comfortably above the uncontended init time, and
// exponentially growing, jittered backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Enabled:        true,
		MaxAttempts:    3,
		AttemptTimeout: 500 * sim.Millisecond,
		BaseBackoff:    20 * sim.Millisecond,
		BackoffFactor:  2.0,
		JitterFrac:     0.2,
	}
}

// normalize fills zero fields of an enabled policy with defaults so a
// caller can set just Enabled.
func (p RetryPolicy) normalize() RetryPolicy {
	if !p.Enabled {
		return p
	}
	d := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.AttemptTimeout <= 0 {
		p.AttemptTimeout = d.AttemptTimeout
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = d.BaseBackoff
	}
	if p.BackoffFactor < 1 {
		// Factor exactly 1.0 is a legitimate constant-backoff policy;
		// only unset (zero) or shrinking factors get the default.
		p.BackoffFactor = d.BackoffFactor
	}
	if p.JitterFrac < 0 {
		p.JitterFrac = 0
	}
	return p
}

// backoff returns the delay before re-issuing after failed attempt n
// (1-based), before jitter.
func (p RetryPolicy) backoff(n int) sim.Duration {
	d := float64(p.BaseBackoff)
	for i := 1; i < n; i++ {
		d *= p.BackoffFactor
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
	// MaxResurrections bounds resurrections per request.
	MaxResurrections int
	// RequeueDelay is the dwell between dead-lettering and the health
	// check that gates resurrection.
	RequeueDelay sim.Duration
	// JitterFrac spreads each dwell by ±frac, drawn from the manager's
	// dedicated "cluster.requeue" stream.
	JitterFrac float64
	// MaxHealthChecks bounds how many times an unhealthy verdict is
	// re-polled before the request is abandoned in the dead-letter state.
	MaxHealthChecks int
	// ClassMaxResurrections overrides MaxResurrections per priority class
	// (index by Priority). A zero entry falls back to MaxResurrections.
	ClassMaxResurrections [NumPriorities]int
}

// DefaultRequeuePolicy allows one resurrection per request after a short
// health-gated dwell.
func DefaultRequeuePolicy() RequeuePolicy {
	return RequeuePolicy{
		Enabled:          true,
		MaxResurrections: 1,
		RequeueDelay:     50 * sim.Millisecond,
		JitterFrac:       0.2,
		MaxHealthChecks:  4,
	}
}

// normalize fills zero fields of an enabled policy with defaults so a
// caller can set just Enabled.
func (p RequeuePolicy) normalize() RequeuePolicy {
	if !p.Enabled {
		return p
	}
	d := DefaultRequeuePolicy()
	if p.MaxResurrections <= 0 {
		p.MaxResurrections = d.MaxResurrections
	}
	if p.RequeueDelay <= 0 {
		p.RequeueDelay = d.RequeueDelay
	}
	if p.JitterFrac < 0 {
		p.JitterFrac = 0
	}
	if p.MaxHealthChecks <= 0 {
		p.MaxHealthChecks = d.MaxHealthChecks
	}
	return p
}
