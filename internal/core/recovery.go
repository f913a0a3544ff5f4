package core

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// RecoveryPolicy is EnableRecovery's argument. It has no fields: the
// self-healing de-escalation ladder — the inverse of the defense
// escalation ladder — runs on the fixed tuning below. The paper frames
// every defense rung (probe fallback, static partitioning) as a
// *temporary* shelter (§6); the ladder decides when the scheduler climbs
// back up:
//
//	ModeStatic --cooldown elapsed--> ModeSWProbe --probation passed--> ModeNormal
//
// The static exit is time-driven (an exponentially growing cooldown, so a
// flapping node settles in static mode instead of oscillating), while the
// sw-probe exit is evidence-driven (a probation window of clean reclaims
// proves the reclaim envelope holds again before the hardware probe is
// re-trusted).
type RecoveryPolicy struct{}

// DefaultRecoveryPolicy returns the tuning used by the chaos experiment's
// recovery sweep.
func DefaultRecoveryPolicy() RecoveryPolicy { return RecoveryPolicy{} }

// Recovery ladder tuning.
const (
	// probationReclaims clean reclaims (reclaim completed without any
	// watchdog escalation) inside probationWindow promote ModeSWProbe
	// back to ModeNormal. Any watchdog escalation resets the window.
	probationReclaims = 8
	probationWindow   = 50 * sim.Millisecond
	// recoveryCooldown is the initial dwell in ModeStatic before the
	// first exit attempt. recoveryCooldownFactor multiplies it after
	// every static entry, so repeated re-escalation stretches the dwell
	// exponentially, up to recoveryMaxCooldown.
	recoveryCooldown       = 10 * sim.Millisecond
	recoveryCooldownFactor = 2.0
	recoveryMaxCooldown    = 500 * sim.Millisecond
	// recoveryJitter perturbs each cooldown by up to ±frac (drawn from
	// the dedicated "core.recovery" stream) so fleet members degraded by
	// the same incident do not exit static in lockstep.
	recoveryJitter = 0.1
)

// RecoveryStats is the ladder's read-only view, printed by Describe and
// by taichi-sim's recovery line.
type RecoveryStats struct {
	// Enabled reports whether EnableRecovery armed the ladder.
	Enabled bool
	// Generation is the number of static-mode exits performed.
	Generation int
	// Rejoined reports whether the most recent degradation episode ended
	// with a return to ModeNormal.
	Rejoined bool
	// NextCooldown is the dwell the next static entry would wait.
	NextCooldown sim.Duration
}

// EnableRecovery arms the self-healing ladder: a cooldown-driven
// ModeStatic → ModeSWProbe exit and a probation-driven ModeSWProbe →
// ModeNormal promotion. It arms the defense machinery too if the caller
// has not (recovery without defenses would have nothing to recover
// from). Idempotent; runs that never call it keep their event streams
// untouched.
func (s *Scheduler) EnableRecovery(RecoveryPolicy) {
	s.EnableDefense(DefenseConfig{})
	d := s.defense
	if d.r != nil {
		return
	}
	d.r = s.node.Stream("core.recovery")
	d.exit = s.engine.NewTimer(0, "core.recovery", s.exitStatic)
	d.cooldown = recoveryCooldown
	d.clean.span = probationWindow
}

// RecoveryStats returns the ladder's current state (zero value when the
// ladder is not armed).
func (s *Scheduler) RecoveryStats() RecoveryStats {
	d := s.defense
	if d == nil || d.r == nil {
		return RecoveryStats{}
	}
	return RecoveryStats{
		Enabled:      true,
		Generation:   d.generation,
		Rejoined:     d.rejoined,
		NextCooldown: d.cooldown,
	}
}

// exitStatic is the cooldown timer's callback: leave static
// partitioning for the probation rung. Lending resumes (under
// software-probe reclaim only), and the teardown budget re-arms so a
// still-faulty node walks straight back down the ladder — paying the
// now-longer cooldown.
func (s *Scheduler) exitStatic() {
	d := s.defense
	d.generation++
	d.setMode(ModeSWProbe)
	d.teardowns = 0
	if s.node.Probe != nil {
		// The hardware probe stays disqualified on the probation rung;
		// only the full ModeNormal promotion re-trusts it.
		s.node.Probe.Enabled = false
	}
	s.DefenseRecoveries.Inc()
	// CPU -1: like the static fallback, a scheduler-wide transition.
	s.node.Tracer.Emit(s.engine.Now(), trace.KindDefenseRecover, -1,
		int64(d.generation), "sw-probe")
	s.reconcile()
}

// noteCleanReclaim records one reclaim that completed without watchdog
// help while on the probation rung. Enough of them inside the probation
// window promote the scheduler back to ModeNormal.
func (s *Scheduler) noteCleanReclaim(slot *dpSlot) {
	d := s.defense
	if d == nil || d.r == nil || d.mode != ModeSWProbe || slot.dp.Down() {
		return
	}
	if s.overloadBrownedOut() {
		// Brownout suspends sw-probe re-qualification: probation evidence
		// gathered while the node is deliberately degraded is not proof
		// the reclaim envelope holds under real load, so it does not
		// accumulate (ARCHITECTURE.md §6.6).
		return
	}
	if d.clean.add(s.engine.Now()) >= probationReclaims {
		s.recoverToNormal()
	}
}

// recoverToNormal is the top rung: probation passed, the hardware probe
// is re-trusted, and the node is fully back in the lending ring.
func (s *Scheduler) recoverToNormal() {
	d := s.defense
	d.setMode(ModeNormal)
	if s.node.Probe != nil {
		s.node.Probe.Enabled = true
	}
	s.DefenseRecoveries.Inc()
	now := s.engine.Now()
	s.node.Tracer.Emit(now, trace.KindDefenseRecover, -1, int64(d.generation), "normal")
	s.node.Tracer.Emit(now, trace.KindNodeRejoin, -1, int64(d.generation), "")
	s.reconcile()
}
