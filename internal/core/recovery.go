package core

import (
	"math/rand"

	"repro/internal/sim"
	"repro/internal/trace"
)

// RecoveryPolicy tunes the self-healing de-escalation ladder — the
// inverse of the DefenseConfig escalation ladder. The paper frames every
// defense rung (probe fallback, static partitioning) as a *temporary*
// shelter (§6); this policy decides when the scheduler climbs back up:
//
//	ModeStatic --cooldown elapsed--> ModeSWProbe --probation passed--> ModeNormal
//
// The static exit is time-driven (an exponentially growing cooldown, so a
// flapping node settles in static mode instead of oscillating), while the
// sw-probe exit is evidence-driven (a probation window of clean reclaims
// proves the reclaim envelope holds again before the hardware probe is
// re-trusted). The zero value of each field takes the matching
// DefaultRecoveryPolicy value.
type RecoveryPolicy struct {
	// ProbationReclaims is how many clean reclaims (reclaim completed
	// without any watchdog escalation) inside ProbationWindow promote
	// ModeSWProbe back to ModeNormal.
	ProbationReclaims int
	// ProbationWindow is the sliding window the clean-reclaim count is
	// measured over. Any watchdog escalation resets the window.
	ProbationWindow sim.Duration
	// Cooldown is the initial dwell time in ModeStatic before the first
	// exit attempt.
	Cooldown sim.Duration
	// CooldownFactor multiplies the cooldown after every static entry, so
	// repeated re-escalation stretches the dwell exponentially.
	CooldownFactor float64
	// MaxCooldown caps the exponential growth.
	MaxCooldown sim.Duration
	// JitterFrac perturbs each cooldown by up to ±frac (drawn from the
	// dedicated "core.recovery" stream) so fleet members degraded by the
	// same incident do not exit static in lockstep.
	JitterFrac float64
}

// DefaultRecoveryPolicy returns the tuning used by the chaos experiment's
// recovery sweep.
func DefaultRecoveryPolicy() RecoveryPolicy {
	return RecoveryPolicy{
		ProbationReclaims: 8,
		ProbationWindow:   50 * sim.Millisecond,
		Cooldown:          10 * sim.Millisecond,
		CooldownFactor:    2.0,
		MaxCooldown:       500 * sim.Millisecond,
		JitterFrac:        0.1,
	}
}

func (p *RecoveryPolicy) applyDefaults() {
	d := DefaultRecoveryPolicy()
	if p.ProbationReclaims == 0 {
		p.ProbationReclaims = d.ProbationReclaims
	}
	if p.ProbationWindow == 0 {
		p.ProbationWindow = d.ProbationWindow
	}
	if p.Cooldown == 0 {
		p.Cooldown = d.Cooldown
	}
	if p.CooldownFactor == 0 {
		p.CooldownFactor = d.CooldownFactor
	}
	if p.MaxCooldown == 0 {
		p.MaxCooldown = d.MaxCooldown
	}
	if p.JitterFrac == 0 {
		p.JitterFrac = d.JitterFrac
	}
}

// recoveryState is the per-scheduler self-healing state. Like
// defenseState it exists only when EnableRecovery was called; the nil
// case is the default and must stay completely passive — no events, no
// RNG stream, no timers — so runs without recovery remain byte-identical
// to the pre-recovery code.
type recoveryState struct {
	pol RecoveryPolicy
	r   *rand.Rand // "core.recovery" stream, created only when armed

	// cooldown is the dwell the *next* static entry will wait before its
	// exit attempt; grows by CooldownFactor per entry, capped.
	cooldown   sim.Duration
	cooldownEv sim.Handle
	// cleanTimes holds clean-reclaim instants inside the probation window
	// while in ModeSWProbe.
	cleanTimes []sim.Time
	// generation counts static exits — the recovery "incarnation" carried
	// by defense_recover / node_rejoin trace events.
	generation int
	// rejoined latches on each return to ModeNormal and clears on the
	// next departure from it.
	rejoined bool
}

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
func (s *Scheduler) EnableRecovery(pol RecoveryPolicy) {
	if s.recovery != nil {
		return
	}
	if s.defense == nil {
		s.EnableDefense(DefenseConfig{})
	}
	pol.applyDefaults()
	s.recovery = &recoveryState{
		pol:      pol,
		r:        s.node.Stream("core.recovery"),
		cooldown: pol.Cooldown,
	}
}

// RecoveryStats returns the ladder's current state (zero value when the
// ladder is not armed).
func (s *Scheduler) RecoveryStats() RecoveryStats {
	rc := s.recovery
	if rc == nil {
		return RecoveryStats{}
	}
	return RecoveryStats{
		Enabled:      true,
		Generation:   rc.generation,
		Rejoined:     rc.rejoined,
		NextCooldown: rc.cooldown,
	}
}

// recoveryOnDegrade opens a degradation episode (any departure from
// ModeNormal): it clears the rejoined latch and voids any probation
// progress.
func (s *Scheduler) recoveryOnDegrade() {
	rc := s.recovery
	if rc == nil {
		return
	}
	rc.rejoined = false
	rc.cleanTimes = nil
}

// recoveryOnStatic schedules the (jittered, exponentially growing)
// cooldown that will attempt the static exit. Called at every static
// entry.
func (s *Scheduler) recoveryOnStatic() {
	rc := s.recovery
	if rc == nil {
		return
	}
	s.recoveryOnDegrade()
	if rc.generation > 0 {
		// The node recovered before and fell back again: flapping.
		s.Reescalations.Inc()
	}
	if rc.cooldownEv != (sim.Handle{}) {
		rc.cooldownEv.Cancel()
	}
	dwell := sim.Jitter(rc.r, rc.cooldown, rc.pol.JitterFrac)
	rc.cooldownEv = s.engine.ScheduleNamed(dwell, "core.recovery", func() {
		rc.cooldownEv = sim.Handle{}
		s.tryExitStatic()
	})
	// Next static episode dwells longer — a flapping node settles static.
	rc.cooldown = sim.Duration(float64(rc.cooldown) * rc.pol.CooldownFactor)
	if rc.cooldown > rc.pol.MaxCooldown {
		rc.cooldown = rc.pol.MaxCooldown
	}
}

// recoveryOnEscalation voids probation progress: a watchdog firing means
// the reclaim envelope is still violated, so clean reclaims must start
// accumulating from scratch.
func (s *Scheduler) recoveryOnEscalation() {
	if rc := s.recovery; rc != nil {
		rc.cleanTimes = nil
	}
}

// tryExitStatic is the cooldown callback: leave static partitioning for
// the probation rung. Lending resumes (under software-probe reclaim
// only), and the teardown budget re-arms so a still-faulty node walks
// straight back down the ladder — paying the now-longer cooldown.
func (s *Scheduler) tryExitStatic() {
	d, rc := s.defense, s.recovery
	if d == nil || rc == nil || d.mode != ModeStatic {
		return
	}
	rc.generation++
	d.mode = ModeSWProbe
	d.teardowns = 0
	d.missTimes = nil
	rc.cleanTimes = nil
	if s.node.Probe != nil {
		// The hardware probe stays disqualified on the probation rung;
		// only the full ModeNormal promotion re-trusts it.
		s.node.Probe.Enabled = false
	}
	s.DefenseRecoveries.Inc()
	// CPU -1: like the static fallback, a scheduler-wide transition.
	s.node.Tracer.Emit(s.engine.Now(), trace.KindDefenseRecover, -1,
		int64(rc.generation), "sw-probe")
	s.reconcile()
}

// noteCleanReclaim records one reclaim that completed without watchdog
// help while on the probation rung. Enough of them inside the probation
// window promote the scheduler back to ModeNormal.
func (s *Scheduler) noteCleanReclaim(slot *dpSlot) {
	d, rc := s.defense, s.recovery
	if d == nil || rc == nil || d.mode != ModeSWProbe || slot.dp.Down() {
		return
	}
	if s.overloadBrownedOut() {
		// Brownout suspends sw-probe re-qualification: probation evidence
		// gathered while the node is deliberately degraded is not proof
		// the reclaim envelope holds under real load, so it does not
		// accumulate (ARCHITECTURE.md §6.6).
		return
	}
	now := s.engine.Now()
	rc.cleanTimes = append(rc.cleanTimes, now)
	cutoff := now.Add(-rc.pol.ProbationWindow)
	for len(rc.cleanTimes) > 0 && rc.cleanTimes[0] < cutoff {
		rc.cleanTimes = rc.cleanTimes[1:]
	}
	if len(rc.cleanTimes) >= rc.pol.ProbationReclaims {
		s.recoverToNormal()
	}
}

// recoverToNormal is the top rung: probation passed, the hardware probe
// is re-trusted, and the node is fully back in the lending ring.
func (s *Scheduler) recoverToNormal() {
	d, rc := s.defense, s.recovery
	if d == nil || rc == nil || d.mode != ModeSWProbe {
		return
	}
	d.mode = ModeNormal
	d.missTimes = nil
	rc.cleanTimes = nil
	if s.node.Probe != nil {
		s.node.Probe.Enabled = true
	}
	rc.rejoined = true
	s.DefenseRecoveries.Inc()
	now := s.engine.Now()
	s.node.Tracer.Emit(now, trace.KindDefenseRecover, -1, int64(rc.generation), "normal")
	s.node.Tracer.Emit(now, trace.KindNodeRejoin, -1, int64(rc.generation), "")
	s.reconcile()
}
