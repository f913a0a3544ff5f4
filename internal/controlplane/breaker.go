package controlplane

import (
	"fmt"

	"repro/internal/sim"
)

// BreakerState is the circuit breaker's position.
type BreakerState uint8

// Breaker states, the classic three-position circuit.
const (
	// BreakerClosed: ops flow through, consecutive failures are counted.
	BreakerClosed BreakerState = iota
	// BreakerOpen: ops are rejected immediately; a timer arms half-open.
	BreakerOpen
	// BreakerHalfOpen: one probe op is let through; its outcome decides
	// between closing and re-opening.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// The CP→DP breaker's tuning, a conservative production profile: trip
// after 5 straight failures, half-open after 5 ms, give each op 2 ms to
// complete (native IPC acks in microseconds; 2 ms means the DP service
// is gone, not slow).
const (
	// failureThreshold is the consecutive-failure count that trips the
	// breaker open.
	failureThreshold = 5
	// openTimeout is how long the breaker stays open before half-opening
	// for a probe op.
	openTimeout = 5 * sim.Millisecond
	// ackTimeout bounds each op's wait for a DP acknowledgment; an op
	// whose ack does not arrive in time counts as a failure (the
	// coordinator-timeout fault class surfaces here).
	ackTimeout = 2 * sim.Millisecond
)

// Breaker is a circuit breaker on the CP→DP device-coordination path.
// While closed it forwards ops to the inner coordinator under an ack
// deadline; failureThreshold consecutive failures (NACKs or ack
// timeouts) trip it open, rejecting further ops immediately so retrying
// requests fail fast instead of queueing against a dead DP service.
// After openTimeout it half-opens: exactly one probe op is admitted, and
// its outcome decides between closing the circuit and re-opening it.
//
// All timing rides the deterministic engine; the breaker draws no
// randomness, so wrapping a coordinator never perturbs replay.
type Breaker struct {
	engine *sim.Engine
	inner  DPCoordinator

	state       BreakerState
	consecFails int
	probing     bool       // half-open probe in flight
	halfOpen    *sim.Timer // the open→half-open step, armed on each trip

	// Outcome tallies (rendered by Describe): trips open, ops rejected
	// while open, ack timeouts, NACKs, half-open transitions, re-closes.
	trips, rejects, timeouts, nacks, halfOpens, closes uint64
}

// NewBreaker wraps inner with a circuit breaker driven by the engine.
func NewBreaker(engine *sim.Engine, inner DPCoordinator) *Breaker {
	b := &Breaker{engine: engine, inner: inner}
	b.halfOpen = engine.NewTimer(0, "", b.halfOpenAfterTimeout)
	return b
}

// State returns the breaker's current position.
func (b *Breaker) State() BreakerState { return b.state }

// ConfigureDevice implements DPCoordinator.
func (b *Breaker) ConfigureDevice(flow int, done func(ok bool)) {
	probe := false
	switch b.state {
	case BreakerOpen:
		b.rejects++
		// Reject asynchronously so callers observe a uniform
		// callback-after-return contract in every state.
		b.engine.Schedule(sim.Microsecond, func() { done(false) })
		return
	case BreakerHalfOpen:
		if b.probing {
			b.rejects++
			b.engine.Schedule(sim.Microsecond, func() { done(false) })
			return
		}
		b.probing = true
		probe = true
	}
	answered := false
	var deadline sim.Handle
	deadline = b.engine.Schedule(ackTimeout, func() {
		if answered {
			return
		}
		answered = true
		b.timeouts++
		b.onFailure()
		done(false)
	})
	b.inner.ConfigureDevice(flow, func(ok bool) {
		if answered {
			// Late ack after the deadline already failed the op; the
			// attempt has moved on.
			return
		}
		answered = true
		deadline.Cancel()
		if ok {
			b.onSuccess(probe)
		} else {
			b.nacks++
			b.onFailure()
		}
		done(ok)
	})
}

// onSuccess resets the failure streak and, when the success is the
// half-open probe, closes the circuit. Only the probe may close it: a
// late ack from an op issued before the breaker tripped (several
// closed-state ops can be in flight at once) can land while the breaker
// is Open — or even Half-Open — and letting it re-close would bypass
// openTimeout and the one-probe-decides protocol, and leave the pending
// half-open step to fire on a closed circuit. The state check guards the
// probe itself against a trip that happened while its ack was in flight.
func (b *Breaker) onSuccess(probe bool) {
	b.consecFails = 0
	if probe && b.state == BreakerHalfOpen {
		b.state = BreakerClosed
		b.probing = false
		b.closes++
	}
}

func (b *Breaker) onFailure() {
	b.consecFails++
	if b.state == BreakerHalfOpen || (b.state == BreakerClosed && b.consecFails >= failureThreshold) {
		b.trip()
	}
}

func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.probing = false
	b.trips++
	b.halfOpen.Reset(openTimeout)
}

// halfOpenAfterTimeout ends an open period: the next op is the probe.
// A trip happens only outside Open and this timer alone leaves it, so
// the timer fires in Open with no other step pending.
func (b *Breaker) halfOpenAfterTimeout() {
	b.state = BreakerHalfOpen
	b.probing = false
	b.halfOpens++
}

// Describe renders the breaker's counters on one deterministic line —
// the TaiChi.Describe surface. ZeroBreakerLine is the exact same line
// for a node that never installed a breaker, keeping zero-fault output
// byte-identical whether or not the robustness layer is present.
func (b *Breaker) Describe() string {
	return fmt.Sprintf("breaker: state=%s trips=%d rejects=%d timeouts=%d nacks=%d half-opens=%d closes=%d",
		b.state, b.trips, b.rejects, b.timeouts, b.nacks, b.halfOpens, b.closes)
}

// ZeroBreakerLine is Describe's output for an absent breaker.
func ZeroBreakerLine() string {
	return "breaker: state=closed trips=0 rejects=0 timeouts=0 nacks=0 half-opens=0 closes=0"
}

// Trips returns how many times the breaker tripped open.
func (b *Breaker) Trips() uint64 { return b.trips }

// Rejects returns how many ops were rejected while open.
func (b *Breaker) Rejects() uint64 { return b.rejects }

// BreakerCounters is a read-only snapshot of the breaker's state machine
// tallies — the surface the runtime invariant auditor (internal/audit)
// checks for state-machine legality.
type BreakerCounters struct {
	State     BreakerState
	Trips     uint64
	Rejects   uint64
	Timeouts  uint64
	Nacks     uint64
	HalfOpens uint64
	Closes    uint64
}

// Counters returns a snapshot of the outcome tallies.
func (b *Breaker) Counters() BreakerCounters {
	return BreakerCounters{
		State:     b.state,
		Trips:     b.trips,
		Rejects:   b.rejects,
		Timeouts:  b.timeouts,
		Nacks:     b.nacks,
		HalfOpens: b.halfOpens,
		Closes:    b.closes,
	}
}
