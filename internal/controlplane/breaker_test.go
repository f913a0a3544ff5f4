package controlplane

import (
	"testing"

	"repro/internal/sim"
)

// scriptedCoord is a DPCoordinator whose per-op outcome is played
// from a script: true = ack ok, false = NACK. Ops beyond the script (or
// marked lost) never answer at all — the breaker's ack deadline is the
// only thing that resolves them.
type scriptedCoord struct {
	engine  *sim.Engine
	latency sim.Duration
	script  []bool
	lost    map[int]bool
	calls   int
}

func (s *scriptedCoord) ConfigureDevice(flow int, done func(ok bool)) {
	i := s.calls
	s.calls++
	if s.lost[i] || i >= len(s.script) {
		return // op vanishes; no ack ever
	}
	ok := s.script[i]
	s.engine.Schedule(s.latency, func() { done(ok) })
}

func repeat(v bool, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// drive issues one op through the breaker and runs the engine until the
// op resolves, returning its outcome.
func drive(t *testing.T, e *sim.Engine, b *Breaker) bool {
	t.Helper()
	resolved, outcome := false, false
	b.ConfigureDevice(1, func(ok bool) { resolved, outcome = true, ok })
	for i := 0; i < 10_000 && !resolved; i++ {
		if !e.Step() {
			break
		}
	}
	if !resolved {
		t.Fatal("op never resolved")
	}
	return outcome
}

func TestBreakerTripsAfterConsecutiveFailures(t *testing.T) {
	e := sim.NewEngine()
	inner := &scriptedCoord{engine: e, latency: 10 * sim.Microsecond, script: repeat(false, 10)}
	b := NewBreaker(e, inner)

	for i := 0; i < failureThreshold-1; i++ {
		if drive(t, e, b) {
			t.Fatal("NACKed op reported ok")
		}
		if b.State() != BreakerClosed {
			t.Fatalf("tripped after only %d failures", i+1)
		}
	}
	if drive(t, e, b) {
		t.Fatal("NACKed op reported ok")
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after threshold failures, want open", b.State())
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}
}

func TestBreakerOpenRejectsWithoutReachingInner(t *testing.T) {
	e := sim.NewEngine()
	inner := &scriptedCoord{engine: e, latency: 10 * sim.Microsecond, script: repeat(false, 10)}
	b := NewBreaker(e, inner)

	for i := 0; i < failureThreshold; i++ {
		drive(t, e, b)
	}
	callsAtTrip := inner.calls
	if b.State() != BreakerOpen {
		t.Fatalf("state %v, want open", b.State())
	}
	if drive(t, e, b) {
		t.Fatal("rejected op reported ok")
	}
	if inner.calls != callsAtTrip {
		t.Fatal("open breaker still forwarded the op to the inner coordinator")
	}
	if b.Rejects() != 1 {
		t.Fatalf("rejects = %d, want 1", b.Rejects())
	}
}

func TestBreakerHalfOpenProbeCloses(t *testing.T) {
	e := sim.NewEngine()
	// Threshold NACKs to trip, then an ok for the half-open probe.
	inner := &scriptedCoord{engine: e, latency: 10 * sim.Microsecond,
		script: append(repeat(false, failureThreshold), true)}
	b := NewBreaker(e, inner)

	for i := 0; i < failureThreshold; i++ {
		drive(t, e, b)
	}
	e.Run(e.Now().Add(openTimeout + sim.Millisecond))
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v after openTimeout, want half-open", b.State())
	}
	if !drive(t, e, b) {
		t.Fatal("half-open probe failed despite ok inner")
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state %v after successful probe, want closed", b.State())
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	e := sim.NewEngine()
	inner := &scriptedCoord{engine: e, latency: 10 * sim.Microsecond, script: repeat(false, failureThreshold+1)}
	b := NewBreaker(e, inner)

	for i := 0; i < failureThreshold; i++ {
		drive(t, e, b)
	}
	e.Run(e.Now().Add(openTimeout + sim.Millisecond))
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", b.State())
	}
	drive(t, e, b)
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after failed probe, want open again", b.State())
	}
	if b.Trips() != 2 {
		t.Fatalf("trips = %d, want 2", b.Trips())
	}
}

func TestBreakerAckTimeoutCountsAsFailure(t *testing.T) {
	e := sim.NewEngine()
	// The op reaches the inner coordinator but its ack never comes back —
	// the partial-init / coordinator-timeout fault shape.
	inner := &scriptedCoord{engine: e, latency: 10 * sim.Microsecond, lost: map[int]bool{0: true}}
	b := NewBreaker(e, inner)

	if drive(t, e, b) {
		t.Fatal("lost op reported ok")
	}
	if got := b.Describe(); got != "breaker: state=closed trips=0 rejects=0 timeouts=1 nacks=0 half-opens=0 closes=0" {
		t.Fatalf("Describe = %q", got)
	}
}

func TestBreakerLateAckIsDiscarded(t *testing.T) {
	e := sim.NewEngine()
	// Every ack lands after its op's deadline, and the deadlines trip the
	// breaker: the deadline fails each op first, and the eventual ok acks,
	// all landing while the breaker is open, must not double-resolve an
	// op or reset state.
	latency := ackTimeout + openTimeout/2
	inner := &scriptedCoord{engine: e, latency: latency, script: repeat(true, failureThreshold)}
	b := NewBreaker(e, inner)

	resolutions := 0
	for i := 0; i < failureThreshold; i++ {
		b.ConfigureDevice(1, func(ok bool) {
			resolutions++
			if ok {
				t.Fatal("timed-out op reported ok")
			}
		})
	}
	// Past the late acks, short of the half-open timer armed at the trip.
	e.Run(e.Now().Add(ackTimeout + openTimeout - sim.Microsecond))
	if resolutions != failureThreshold {
		t.Fatalf("%d ops resolved %d times, want exactly once each", failureThreshold, resolutions)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state %v: late ok ack must not rescue a tripped breaker", b.State())
	}
}

// staggeredCoord plays per-op (outcome, latency) pairs in call order.
// Unlike scriptedCoord each op resolves on its own schedule, so a slow
// success issued while the breaker was closed can still be in flight
// when later failures trip it.
type staggeredCoord struct {
	engine    *sim.Engine
	outcomes  []bool
	latencies []sim.Duration
	calls     int
}

func (s *staggeredCoord) ConfigureDevice(flow int, done func(ok bool)) {
	i := s.calls
	s.calls++
	if i >= len(s.outcomes) {
		return
	}
	ok := s.outcomes[i]
	s.engine.Schedule(s.latencies[i], func() { done(ok) })
}

// TestBreakerStraySuccessCannotReclose pins the one-probe-decides
// protocol: a late ack from an op issued before the breaker tripped
// lands while the circuit is open and must not silently re-close it —
// only the half-open probe, after openTimeout, may do that.
func TestBreakerStraySuccessCannotReclose(t *testing.T) {
	e := sim.NewEngine()
	// Op 0: a slow success issued while closed; the next threshold ops:
	// fast NACKs that trip the breaker while op 0's ack is still in
	// flight.
	outcomes := append([]bool{true}, repeat(false, failureThreshold)...)
	latencies := []sim.Duration{3 * sim.Millisecond / 2}
	for range failureThreshold {
		latencies = append(latencies, sim.Millisecond/2)
	}
	inner := &staggeredCoord{engine: e, outcomes: outcomes, latencies: latencies}
	b := NewBreaker(e, inner)

	results := map[int]bool{}
	for i := range outcomes {
		b.ConfigureDevice(i, func(ok bool) { results[i] = ok })
	}
	// The NACKs land at 0.5 ms and trip the breaker open.
	e.Run(e.Now().Add(sim.Millisecond))
	if b.State() != BreakerOpen {
		t.Fatalf("state %v after threshold NACKs, want open", b.State())
	}
	// Op 0's success lands at 1.5 ms, within its own ack deadline but
	// with the breaker open: the op itself succeeds, the circuit stays
	// open.
	e.Run(e.Now().Add(sim.Millisecond))
	if !results[0] {
		t.Fatal("slow closed-era op lost its own success")
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state %v: stray success re-closed an open breaker", b.State())
	}
	// The pending open-timer must still drive the half-open transition.
	e.Run(e.Now().Add(openTimeout))
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state %v after openTimeout, want half-open", b.State())
	}
}

func TestZeroBreakerLineMatchesFreshBreaker(t *testing.T) {
	e := sim.NewEngine()
	b := NewBreaker(e, &scriptedCoord{engine: e})
	if b.Describe() != ZeroBreakerLine() {
		t.Fatalf("fresh breaker %q != zero line %q", b.Describe(), ZeroBreakerLine())
	}
}
