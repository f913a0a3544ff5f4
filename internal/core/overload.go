package core

// Overload brownout ladder (ARCHITECTURE.md §6.6). Tai Chi's premise is
// that CP cores are lent against DP slack; a traffic spike erases the
// slack, the lending ring collapses, and the CP's VM-startup pipeline is
// the first casualty. Rather than queueing unboundedly, the node tracks
// a lending-pressure index and walks an overload state machine
//
//	normal → throttle → shed → brownout
//
// one rung at a time. The cluster admission gate reads the rung through
// Config.OverloadLevel and tightens its token bucket / shrinks its
// sojourn thresholds accordingly; brownout additionally suspends
// optional work on the node itself — audit vCPU pinning (OnSuspend
// hook) and sw-probe re-qualification (probation evidence stops
// accumulating). De-escalation is hysteretic and cooldown-gated, on the
// window and cooldown rule the recovery ladder uses (ladder.go): each
// escalation stretches the dwell before the next de-escalation, so a
// flapping node settles high on the ladder instead of oscillating.

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
	"repro/internal/trace"
)

// OverloadState is the node's overload-ladder rung.
type OverloadState uint8

// Overload rungs, in escalation order. The ordinal doubles as the
// admission gate's level index and the overload_enter/exit trace Arg.
const (
	// OverloadNormal: no admission pressure.
	OverloadNormal OverloadState = iota
	// OverloadThrottle: the admission bucket tightens.
	OverloadThrottle
	// OverloadShed: the shedder's reach widens (sojourn thresholds
	// shrink); batch work starts draining away.
	OverloadShed
	// OverloadBrownout: batch is rejected at the gate and the node
	// suspends optional work (audit pinning, sw-probe re-qualification).
	OverloadBrownout
)

// String names the rung.
func (o OverloadState) String() string {
	switch o {
	case OverloadNormal:
		return "normal"
	case OverloadThrottle:
		return "throttle"
	case OverloadShed:
		return "shed"
	case OverloadBrownout:
		return "brownout"
	}
	return fmt.Sprintf("overload(%d)", uint8(o))
}

// OverloadPolicy is EnableOverload's argument. It has no fields: the
// ladder runs on the fixed tuning below.
type OverloadPolicy struct{}

// DefaultOverloadPolicy returns the tuning used by the overload
// experiments.
func DefaultOverloadPolicy() OverloadPolicy { return OverloadPolicy{} }

// Overload ladder tuning.
const (
	// overloadSamplePeriod is the pressure-sampling cadence; each arming
	// is jittered by ±overloadJitter from the dedicated "core.overload"
	// stream.
	overloadSamplePeriod = 500 * sim.Microsecond
	overloadJitter       = 0.1
	// escalationWindow is the sliding window watchdog escalations are
	// counted over; each escalation inside it adds escalationWeight to
	// the pressure sample.
	escalationWindow = 5 * sim.Millisecond
	escalationWeight = 0.15
	// smoothAlpha is the EWMA weight of the newest pressure sample.
	smoothAlpha = 0.25
	// exitHysteresis: de-escalating off a rung requires pressure below
	// that rung's entry threshold (overloadEnter) minus this margin.
	exitHysteresis = 0.10
	// overloadCooldown is the base dwell on a rung before de-escalation;
	// overloadCooldownFactor stretches it on every escalation (capped at
	// overloadMaxCooldown) so a flapping node settles rather than
	// oscillates. The stretch comes first, so even the first
	// de-escalation waits 4 ms.
	overloadCooldown       = 2 * sim.Millisecond
	overloadCooldownFactor = 2.0
	overloadMaxCooldown    = 100 * sim.Millisecond
)

// overloadEnter is each rung's smoothed-pressure entry threshold;
// OverloadNormal has none. It is a variable, not constants, so that
// overloadEnter[st]-exitHysteresis is a float64 subtraction at run time,
// not a constant expression folded exactly.
var overloadEnter = [OverloadBrownout + 1]float64{
	OverloadThrottle: 0.70,
	OverloadShed:     0.85,
	OverloadBrownout: 0.95,
}

// overloadState is the per-scheduler ladder state. Like defenseState it
// exists only when EnableOverload was called; the nil case is the
// default and must stay completely passive — no events, no RNG stream,
// no timers — so runs without overload control remain byte-identical to
// the pre-overload code.
type overloadState struct {
	r      *rand.Rand // "core.overload" stream, created only when armed
	sample *sim.Timer // the sampling loop's timer

	state    OverloadState
	smoothed float64
	// esc holds watchdog-escalation instants (escalationWindow).
	esc window
	// lastChange is when the ladder last moved; de-escalation waits out
	// cooldown from here.
	lastChange sim.Time
	// cooldown is the dwell the current rung requires before
	// de-escalating; grows by overloadCooldownFactor per escalation,
	// capped.
	cooldown sim.Duration
	// peak is the highest rung reached (OverloadStats reporting).
	peak OverloadState
}

// OverloadStats is the read-only view fleet reporting and the cmd tools
// consume.
type OverloadStats struct {
	// Enabled reports whether EnableOverload armed the ladder.
	Enabled bool
	// State is the current rung.
	State OverloadState
	// Pressure is the current smoothed lending-pressure index.
	Pressure float64
	// Peak is the highest rung reached during the run.
	Peak OverloadState
}

// EnableOverload arms the brownout ladder: a jittered sampling loop that
// derives the lending-pressure index and walks the overload state
// machine. Idempotent; runs that never call it keep their event streams
// untouched.
func (s *Scheduler) EnableOverload(OverloadPolicy) {
	if s.overload != nil {
		return
	}
	s.overload = &overloadState{
		r:        s.node.Stream("core.overload"),
		esc:      window{span: escalationWindow},
		cooldown: overloadCooldown,
	}
	s.overload.sample = s.engine.NewTimer(0, "core.overload", func() {
		s.sampleOverload()
		s.armOverloadSample()
	})
	s.armOverloadSample()
}

// OverloadState returns the current rung (OverloadNormal when the
// ladder is not armed).
func (s *Scheduler) OverloadState() OverloadState {
	if s.overload == nil {
		return OverloadNormal
	}
	return s.overload.state
}

// OverloadStats returns the ladder's current state (zero value when the
// ladder is not armed).
func (s *Scheduler) OverloadStats() OverloadStats {
	ov := s.overload
	if ov == nil {
		return OverloadStats{}
	}
	return OverloadStats{
		Enabled:  true,
		State:    ov.state,
		Pressure: ov.smoothed,
		Peak:     ov.peak,
	}
}

// overloadNoteEscalation records one reclaim-watchdog escalation into
// the pressure window (no-op unless the ladder is armed).
func (s *Scheduler) overloadNoteEscalation() {
	if ov := s.overload; ov != nil {
		ov.esc.add(s.engine.Now())
	}
}

// overloadBrownedOut reports whether optional work is suspended.
func (s *Scheduler) overloadBrownedOut() bool {
	return s.overload != nil && s.overload.state == OverloadBrownout
}

// armOverloadSample arms the next pressure sample, jittered from the
// dedicated "core.overload" stream.
func (s *Scheduler) armOverloadSample() {
	ov := s.overload
	ov.sample.Reset(sim.Jitter(ov.r, overloadSamplePeriod, overloadJitter))
}

// sampleOverload derives the lending-pressure index — the fraction of DP
// cores the DP is holding onto (neither lent to a vCPU nor offered idle;
// lending slack erased) plus the weighted watchdog escalations in the
// sliding window — smooths it, and walks the ladder one rung toward the
// pressure's target, escalating freely and de-escalating only past the
// hysteresis margin and the cooldown dwell.
func (s *Scheduler) sampleOverload() {
	ov := s.overload
	now := s.engine.Now()

	busy := 0
	for _, slot := range s.slots {
		if slot.occupant == nil && slot.pendingEnter == nil && !slot.available {
			busy++
		}
	}
	sample := 0.0
	if len(s.slots) > 0 {
		sample = float64(busy) / float64(len(s.slots))
	}
	sample += escalationWeight * float64(ov.esc.count(now))
	ov.smoothed = smoothAlpha*sample + (1-smoothAlpha)*ov.smoothed

	// The target is the highest rung whose entry threshold the pressure
	// reaches, whatever order the thresholds come in.
	target := OverloadNormal
	for st := OverloadBrownout; st > OverloadNormal; st-- {
		if ov.smoothed >= overloadEnter[st] {
			target = st
			break
		}
	}

	switch {
	case target > ov.state:
		s.overloadEscalate()
	case target < ov.state:
		// Hysteresis: pressure must clear the current rung's entry
		// threshold by the margin, and the rung's cooldown must have
		// elapsed, before stepping down one rung.
		if ov.smoothed < overloadEnter[ov.state]-exitHysteresis &&
			now.Sub(ov.lastChange) >= ov.cooldown {
			s.overloadDeescalate()
		}
	}
}

// overloadEscalate moves one rung up, stretches the de-escalation
// cooldown, and on the brownout rung suspends optional work via the
// OnSuspend hook.
func (s *Scheduler) overloadEscalate() {
	ov := s.overload
	ov.state++
	if ov.state > ov.peak {
		ov.peak = ov.state
	}
	ov.lastChange = s.engine.Now()
	s.OverloadEnters.Inc()
	// CPU -1: like the defense ladder, a scheduler-wide transition.
	s.node.Tracer.Emit(ov.lastChange, trace.KindOverloadEnter, -1,
		int64(ov.state), ov.state.String())
	ov.cooldown = stretch(ov.cooldown, overloadCooldownFactor, overloadMaxCooldown)
	if ov.state == OverloadBrownout && s.OnSuspend != nil {
		s.OnSuspend()
	}
}

// overloadDeescalate moves one rung down.
func (s *Scheduler) overloadDeescalate() {
	ov := s.overload
	ov.state--
	ov.lastChange = s.engine.Now()
	s.OverloadExits.Inc()
	s.node.Tracer.Emit(ov.lastChange, trace.KindOverloadExit, -1,
		int64(ov.state), ov.state.String())
}
