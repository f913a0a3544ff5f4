package core

import (
	"fmt"

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

// DefenseConfig tunes the graceful-degradation machinery. The zero value
// of each field takes the matching DefaultDefenseConfig value.
type DefenseConfig struct {
	// ReclaimTimeout is how long a probe preemption request may stay
	// outstanding before the reclaim watchdog escalates. The fault-free
	// reclaim completes within IRQ latency + VM-exit cost (~2.5 µs), so
	// the default sits well clear of it.
	ReclaimTimeout sim.Duration
	// ReclaimRetries bounds forced-IPI escalations before vCPU teardown.
	ReclaimRetries int
	// RetryBackoff multiplies the timeout after each escalation.
	RetryBackoff float64
	// ProbeMissThreshold and ProbeMissWindow govern the fallback to the
	// software probe: that many probe misses detected within the sliding
	// window disqualify the hardware probe.
	ProbeMissThreshold int
	ProbeMissWindow    sim.Duration
	// TeardownThreshold is the vCPU-teardown count that triggers static
	// partitioning — repeated teardowns mean reclaims cannot be trusted.
	TeardownThreshold int
	// SchedWatchdogPeriod arms the kernel's lost-resched-IPI sweep
	// (kernel.StartSchedWatchdog); 0 keeps it off.
	SchedWatchdogPeriod sim.Duration
}

// DefaultDefenseConfig returns the defense tuning used by the chaos
// experiments.
func DefaultDefenseConfig() DefenseConfig {
	return DefenseConfig{
		ReclaimTimeout:      10 * sim.Microsecond,
		ReclaimRetries:      2,
		RetryBackoff:        2.0,
		ProbeMissThreshold:  10,
		ProbeMissWindow:     50 * sim.Millisecond,
		TeardownThreshold:   8,
		SchedWatchdogPeriod: 100 * sim.Microsecond,
	}
}

func (c *DefenseConfig) applyDefaults() {
	d := DefaultDefenseConfig()
	if c.ReclaimTimeout == 0 {
		c.ReclaimTimeout = d.ReclaimTimeout
	}
	if c.ReclaimRetries == 0 {
		c.ReclaimRetries = d.ReclaimRetries
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = d.RetryBackoff
	}
	if c.ProbeMissThreshold == 0 {
		c.ProbeMissThreshold = d.ProbeMissThreshold
	}
	if c.ProbeMissWindow == 0 {
		c.ProbeMissWindow = d.ProbeMissWindow
	}
	if c.TeardownThreshold == 0 {
		c.TeardownThreshold = d.TeardownThreshold
	}
}

// defenseState is the per-scheduler degradation state. It exists only
// when EnableDefense was called; the nil case is the fault-free fast path
// and must stay completely passive (no events, no RNG, no timers) so
// zero-fault runs remain byte-identical.
type defenseState struct {
	cfg       DefenseConfig
	mode      DefenseMode
	missTimes []sim.Time // probe-miss detections inside the sliding window
	teardowns int
}

// EnableDefense arms the graceful-degradation machinery: the per-slot
// reclaim watchdog, the probe-miss fallback ladder, and (optionally) the
// kernel scheduler watchdog. It is idempotent and meant to be called by
// the fault-injection layer right after the injector attaches; fault-free
// runs never call it, keeping their event streams untouched.
func (s *Scheduler) EnableDefense(cfg DefenseConfig) {
	if s.defense != nil {
		return
	}
	cfg.applyDefaults()
	s.defense = &defenseState{cfg: cfg}
	if cfg.SchedWatchdogPeriod > 0 {
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
	if s.defense == nil || slot.wdEv != (sim.Handle{}) {
		return
	}
	slot.wdEv = s.engine.ScheduleNamed(s.defense.cfg.ReclaimTimeout, "core.watchdog", func() {
		slot.wdEv = sim.Handle{}
		s.reclaimWatchdog(slot)
	})
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
	// Any watchdog escalation voids recovery probation progress and
	// counts into the overload ladder's pressure window.
	s.recoveryOnEscalation()
	s.overloadNoteEscalation()
	if slot.wdRetries < d.cfg.ReclaimRetries {
		// Escalate: a forced IPI this time, not a probe request.
		slot.wdRetries++
		s.WatchdogRetries.Inc()
		s.node.Tracer.Emit(s.engine.Now(), trace.KindReclaimEscalate, slot.dp.ID,
			int64(slot.wdRetries), "forced-ipi")
		if slot.occupant != nil {
			slot.occupant.ForceExit(vcpu.ExitForced)
		}
		timeout := s.defense.cfg.ReclaimTimeout
		for i := 0; i < slot.wdRetries; i++ {
			timeout = sim.Duration(float64(timeout) * d.cfg.RetryBackoff)
		}
		slot.wdEv = s.engine.ScheduleNamed(timeout, "core.watchdog", func() {
			slot.wdEv = sim.Handle{}
			s.reclaimWatchdog(slot)
		})
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
			delete(s.claimed, v)
			s.enqueueReady(v)
		}
		s.resumeDP(slot)
	}
	if d.teardowns >= d.cfg.TeardownThreshold && d.mode != ModeStatic {
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
	d.missTimes = append(d.missTimes, now)
	cutoff := now.Add(-d.cfg.ProbeMissWindow)
	for len(d.missTimes) > 0 && d.missTimes[0] < cutoff {
		d.missTimes = d.missTimes[1:]
	}
	if len(d.missTimes) >= d.cfg.ProbeMissThreshold && d.mode == ModeNormal {
		s.ProbeFallbacks.Inc()
		d.mode = ModeSWProbe
		s.node.Probe.Enabled = false
		// CPU -1: like the static fallback, a scheduler-wide transition.
		// The mode-lattice audit pairs this against defense_recover rungs.
		s.node.Tracer.Emit(now, trace.KindReclaimEscalate, -1,
			int64(len(d.missTimes)), "sw-probe")
		d.missTimes = nil
		s.recoveryOnDegrade()
	}
}

// --- static partitioning ----------------------------------------------------

// enterStatic suspends lending entirely: occupants are evicted, pending
// entries aborted, and reconcile stops handing cores out. The node
// degrades to the production static-partitioning deployment — reduced CP
// throughput, but DP SLOs no longer depend on reclaim working.
func (s *Scheduler) enterStatic() {
	d := s.defense
	d.mode = ModeStatic
	s.StaticFallbacks.Inc()
	// CPU -1: the fallback is a scheduler-wide decision, not tied to one core.
	s.node.Tracer.Emit(s.engine.Now(), trace.KindReclaimEscalate, -1,
		int64(d.teardowns), "static")
	for _, id := range s.order {
		slot := s.slots[id]
		slot.available = false
		if v := slot.pendingEnter; v != nil && slot.preemptReq == 0 {
			slot.pendingEnter = nil
			delete(s.claimed, v)
			s.enqueueReady(v)
			s.resumeDP(slot)
		}
		if slot.occupant != nil {
			slot.occupant.ForceExit(vcpu.ExitForced)
		}
	}
	if s.OnStaticFallback != nil {
		s.OnStaticFallback()
	}
	// Arm the cooldown-driven exit attempt (no-op unless EnableRecovery
	// armed the self-healing ladder).
	s.recoveryOnStatic()
}

// SetCoreDown marks a DP core hardware-offline (or back online) on behalf
// of the fault-injection layer: the occupant (if any) is evicted first so
// the dataplane core is in DP hands before it freezes, and an onlined
// core re-enters the lending pool at the next idle detection.
func (s *Scheduler) SetCoreDown(id int, down bool) {
	slot := s.slots[id]
	if slot == nil {
		return
	}
	if down {
		slot.available = false
		slot.dp.SetDown(true)
		if v := slot.pendingEnter; v != nil && slot.preemptReq == 0 {
			slot.pendingEnter = nil
			delete(s.claimed, v)
			s.enqueueReady(v)
			s.resumeDP(slot)
		}
		if slot.occupant != nil {
			slot.occupant.ForceExit(vcpu.ExitForced)
		}
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
