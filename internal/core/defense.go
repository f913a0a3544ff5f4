package core

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vcpu"
)

// DefenseMode is the scheduler's graceful-degradation state. Under fault
// pressure Tai Chi walks down a ladder that trades CP throughput for DP
// safety: full hybrid operation with the hardware probe, then software
// probe only (slice-expiry reclaim, the Table 5 ablation behaviour), and
// finally static partitioning (no lending at all, the production
// baseline the paper starts from).
type DefenseMode uint8

// Degradation ladder rungs.
const (
	// ModeNormal: hardware probe active, full lending.
	ModeNormal DefenseMode = iota
	// ModeSWProbe: hardware probe disqualified (miss rate over threshold);
	// lent cores are reclaimed at slice expiry only.
	ModeSWProbe
	// ModeStatic: lending suspended entirely; DP cores stay with the DP
	// services and CP tasks run on the CP pCPUs alone.
	ModeStatic
)

// String names the mode.
func (m DefenseMode) String() string {
	switch m {
	case ModeNormal:
		return "normal"
	case ModeSWProbe:
		return "sw-probe"
	case ModeStatic:
		return "static"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// DefenseConfig tunes the graceful-degradation machinery. The reclaim
// watchdog and the probe-miss fallback use the fixed thresholds below.
type DefenseConfig struct {
	// SchedWatchdogPeriod arms the kernel's lost-resched-IPI sweep
	// (kernel.StartSchedWatchdog); 0 keeps it off.
	SchedWatchdogPeriod sim.Duration
}

// DefaultDefenseConfig returns the defense tuning used by the chaos
// experiments.
func DefaultDefenseConfig() DefenseConfig {
	return DefenseConfig{SchedWatchdogPeriod: 100 * sim.Microsecond}
}

// Defense thresholds, placed around the fault-free reclaim envelope.
const (
	// reclaimTimeout is how long a probe preemption request may stay
	// outstanding before the reclaim watchdog escalates. The fault-free
	// reclaim completes within IRQ latency + VM-exit cost (~2.5 µs), so
	// the timeout sits well clear of it.
	reclaimTimeout = 10 * sim.Microsecond
	// reclaimRetries bounds forced-IPI escalations before vCPU teardown.
	reclaimRetries = 2
	// reclaimBackoff multiplies the timeout after each escalation.
	reclaimBackoff = 2.0
	// probeMissThreshold and probeMissWindow govern the fallback to the
	// software probe: that many probe misses detected within the sliding
	// window disqualify the hardware probe.
	probeMissThreshold = 10
	probeMissWindow    = 50 * sim.Millisecond
	// teardownThreshold is the vCPU-teardown count that triggers static
	// partitioning — repeated teardowns mean reclaims cannot be trusted.
	teardownThreshold = 8
)

// defenseState is the per-scheduler degradation ladder: the escalation
// rungs down and, once EnableRecovery armed it, the self-healing climb
// back up (recovery.go). It exists only when EnableDefense was called;
// the nil case is the fault-free fast path and must stay completely
// passive (no events, no RNG, no timers) so zero-fault runs remain
// byte-identical.
type defenseState struct {
	mode      DefenseMode // assigned only by setMode
	misses    window      // probe-miss detections (probeMissWindow)
	teardowns int
	// watchdog latches once the kernel's lost-resched-IPI sweep started,
	// whichever EnableDefense call first asked for it.
	watchdog bool

	// Recovery state. r is nil until EnableRecovery arms the ladder, and
	// every recovery path stays inert without it — no events, no RNG
	// stream, no timers — so runs without recovery remain byte-identical
	// to the pre-recovery code.
	r *rand.Rand // "core.recovery" stream
	// exit is the static-mode exit's timer. Static is entered only from
	// another mode and left only through it, so it fires in static mode
	// and at most one exit is ever pending.
	exit *sim.Timer
	// cooldown is the dwell the *next* static entry will wait before its
	// exit attempt; grows by recoveryCooldownFactor per entry, capped.
	cooldown sim.Duration
	// clean holds clean-reclaim instants (probationWindow) while in
	// ModeSWProbe.
	clean window
	// generation counts static exits — the recovery "incarnation" carried
	// by defense_recover / node_rejoin trace events.
	generation int
	// rejoined latches on each return to ModeNormal and clears on the
	// next departure from it.
	rejoined bool
}

// setMode moves the ladder to mode m; every rung change goes through
// here. Evidence gathered on the old rung — probe misses, clean
// reclaims — says nothing about the new one, so both windows restart.
func (d *defenseState) setMode(m DefenseMode) {
	d.mode = m
	d.misses.reset()
	d.clean.reset()
	d.rejoined = m == ModeNormal
}

// EnableDefense arms the graceful-degradation machinery: the per-slot
// reclaim watchdog, the probe-miss fallback ladder, and (optionally) the
// kernel scheduler watchdog. It is idempotent and meant to be called by
// the fault-injection layer when the injector attaches; fault-free runs
// never call it, keeping their event streams untouched. The scheduler
// watchdog starts on the first call with a positive period, so the
// order of EnableDefense and EnableRecovery does not matter.
func (s *Scheduler) EnableDefense(cfg DefenseConfig) {
	if s.defense == nil {
		s.defense = &defenseState{misses: window{span: probeMissWindow}}
	}
	if cfg.SchedWatchdogPeriod > 0 && !s.defense.watchdog {
		s.defense.watchdog = true
		s.kern.StartSchedWatchdog(cfg.SchedWatchdogPeriod)
	}
}

// DefenseMode returns the current degradation rung (ModeNormal when the
// defense machinery is not armed).
func (s *Scheduler) DefenseMode() DefenseMode {
	if s.defense == nil {
		return ModeNormal
	}
	return s.defense.mode
}

// --- reclaim watchdog -------------------------------------------------------

// armReclaimWatchdog starts the timeout clock for an outstanding
// preemption request (called when the probe IRQ sets preemptReq).
func (s *Scheduler) armReclaimWatchdog(slot *dpSlot) {
	if s.defense == nil || slot.wd.Armed() {
		return
	}
	slot.wd.Reset(reclaimTimeout)
}

// reclaimWatchdog fires when a preemption request outlived its timeout:
// the 2 µs reclaim envelope was violated (a stalled VM-exit, a lost
// request, a wedged entry). Escalation ladder: re-request via forced IPI
// with backoff, then tear the vCPU context down outright. Too many
// teardowns degrade the scheduler to static partitioning.
func (s *Scheduler) reclaimWatchdog(slot *dpSlot) {
	if slot.preemptReq == 0 {
		slot.wdRetries = 0
		return // reclaim completed while the timer was in flight
	}
	d := s.defense
	s.FaultsDetected.Inc()
	// Any watchdog escalation voids recovery probation progress (the
	// reclaim envelope is still violated, so clean reclaims start
	// accumulating from scratch) and counts into the overload ladder's
	// pressure window.
	d.clean.reset()
	s.overloadNoteEscalation()
	if slot.wdRetries < reclaimRetries {
		// Escalate: a forced IPI this time, not a probe request.
		slot.wdRetries++
		s.WatchdogRetries.Inc()
		s.node.Tracer.Emit(s.engine.Now(), trace.KindReclaimEscalate, slot.dp.ID,
			int64(slot.wdRetries), "forced-ipi")
		if slot.occupant != nil {
			slot.occupant.ForceExit(vcpu.ExitForced)
		}
		timeout := reclaimTimeout
		for i := 0; i < slot.wdRetries; i++ {
			timeout = sim.Duration(float64(timeout) * reclaimBackoff)
		}
		slot.wd.Reset(timeout)
		return
	}

	// Final rung: vCPU teardown. Completing the exit synchronously runs
	// onExit, which resumes the DP (counting the recovery in resumeDP).
	s.WatchdogTeardowns.Inc()
	d.teardowns++
	s.node.Tracer.Emit(s.engine.Now(), trace.KindReclaimEscalate, slot.dp.ID,
		int64(d.teardowns), "teardown")
	if v := slot.occupant; v != nil {
		v.Teardown()
	}
	if slot.preemptReq != 0 {
		// Still outstanding: the slot was stuck in a pending entry (the
		// softirq never ran, e.g. a dropped self-IPI) — abort it by hand.
		if v := slot.pendingEnter; v != nil {
			slot.pendingEnter = nil
			s.vs(v).claimed = false
			s.enqueueReady(v)
		}
		s.resumeDP(slot)
	}
	if d.teardowns >= teardownThreshold && d.mode != ModeStatic {
		s.enterStatic()
	}
	s.reconcile()
}

// --- probe fallback ---------------------------------------------------------

// noteProbeMiss records one detected hardware-probe miss (pending I/O
// discovered only at slice expiry while the probe claimed silence). Too
// many inside the sliding window disqualify the probe: the scheduler
// falls back to software-probe-only reclaim.
func (s *Scheduler) noteProbeMiss(slot *dpSlot) {
	d := s.defense
	now := s.engine.Now()
	s.FaultsDetected.Inc()
	if slot.wdRetries == 0 {
		// The slice expiry itself recovered the core. When the watchdog
		// already escalated this slot, resumeDP owns the recovery count —
		// incrementing here too would double-count the incident.
		s.FaultsRecovered.Inc()
	}
	if n := d.misses.add(now); n >= probeMissThreshold && d.mode == ModeNormal {
		s.ProbeFallbacks.Inc()
		d.setMode(ModeSWProbe)
		s.node.Probe.Enabled = false
		// CPU -1: like the static fallback, a scheduler-wide transition.
		// The mode-lattice audit pairs this against defense_recover rungs.
		s.node.Tracer.Emit(now, trace.KindReclaimEscalate, -1, int64(n), "sw-probe")
	}
}

// --- static partitioning ----------------------------------------------------

// enterStatic suspends lending entirely: occupants are evicted, pending
// entries aborted, and reconcile stops handing cores out. The node
// degrades to the production static-partitioning deployment — reduced CP
// throughput, but DP SLOs no longer depend on reclaim working. With the
// recovery ladder armed it also schedules the cooldown-driven exit.
func (s *Scheduler) enterStatic() {
	d := s.defense
	d.setMode(ModeStatic)
	s.StaticFallbacks.Inc()
	// CPU -1: the fallback is a scheduler-wide decision, not tied to one core.
	s.node.Tracer.Emit(s.engine.Now(), trace.KindReclaimEscalate, -1,
		int64(d.teardowns), "static")
	for _, slot := range s.slots {
		slot.available = false
		s.evict(slot)
	}
	if s.OnSuspend != nil {
		s.OnSuspend()
	}
	if d.r == nil {
		return // without the recovery ladder static is one-way
	}
	if d.generation > 0 {
		// The node recovered before and fell back again: flapping.
		s.Reescalations.Inc()
	}
	// The dwell is the current cooldown, jittered so fleet members
	// degraded by one incident do not exit in lockstep; the next static
	// episode dwells longer, so a flapping node settles static.
	d.exit.Reset(sim.Jitter(d.r, d.cooldown, recoveryJitter))
	d.cooldown = stretch(d.cooldown, recoveryCooldownFactor, recoveryMaxCooldown)
}

// evict hands slot back to its DP core: a pending entry the probe has not
// already claimed for preemption is aborted and its vCPU requeued, and
// an occupant is forced out.
func (s *Scheduler) evict(slot *dpSlot) {
	if v := slot.pendingEnter; v != nil && slot.preemptReq == 0 {
		slot.pendingEnter = nil
		s.vs(v).claimed = false
		s.enqueueReady(v)
		s.resumeDP(slot)
	}
	if slot.occupant != nil {
		slot.occupant.ForceExit(vcpu.ExitForced)
	}
}

// SetCoreDown marks a DP core hardware-offline (or back online) on behalf
// of the fault-injection layer: the occupant (if any) is evicted first so
// the dataplane core is in DP hands before it freezes, and an onlined
// core re-enters the lending pool at the next idle detection.
func (s *Scheduler) SetCoreDown(id int, down bool) {
	slot := s.slotAt(id)
	if slot == nil {
		return
	}
	if down {
		slot.available = false
		slot.dp.SetDown(true)
		s.evict(slot)
		return
	}
	slot.dp.SetDown(false)
	s.reconcile()
}

// lendable reports whether a slot may receive a vCPU under the current
// degradation mode and hardware state.
func (s *Scheduler) lendable(slot *dpSlot) bool {
	if slot.dp.Down() {
		return false
	}
	return s.defense == nil || s.defense.mode != ModeStatic
}
