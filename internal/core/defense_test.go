package core

import (
	"testing"

	"repro/internal/controlplane"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// occupiedSlot runs hogs until some DP slot is lent out and returns it.
func occupiedSlot(t *testing.T, tc *TaiChi) *dpSlot {
	t.Helper()
	spawnHogs(tc, 8)
	for i := 0; i < 50; i++ {
		tc.Run(tc.Node.Engine.Now().Add(sim.Millisecond))
		for _, slot := range tc.Sched.slots {
			if slot.occupant != nil {
				return slot
			}
		}
	}
	t.Fatal("no DP slot was ever lent out")
	return nil
}

// TestSetCoreDownWithArmedReclaimWatchdog covers the race between the
// fault injector taking a core hardware-offline and the reclaim
// watchdog already ticking for that core's outstanding preemption:
// the offlining evicts the occupant, which completes the reclaim and
// must disarm the watchdog — no spurious escalation, no teardown.
func TestSetCoreDownWithArmedReclaimWatchdog(t *testing.T) {
	tc := newTaiChi(70, nil)
	tc.Sched.EnableDefense(DefenseConfig{SchedWatchdogPeriod: 0})
	slot := occupiedSlot(t, tc)

	// An outstanding preemption request with the watchdog armed, the
	// occupant still in place (the onProbeIRQ path without the forced
	// exit having landed yet).
	slot.preemptReq = tc.Node.Engine.Now()
	tc.Sched.armReclaimWatchdog(slot)
	if !slot.wd.Armed() {
		t.Fatal("watchdog did not arm")
	}

	tc.Sched.SetCoreDown(slot.dp.ID, true)
	tc.Run(tc.Node.Engine.Now().Add(5 * sim.Millisecond))

	if slot.occupant != nil {
		t.Fatal("occupant survived the core going down")
	}
	if !slot.dp.Down() {
		t.Fatal("core not marked down")
	}
	if slot.wd.Armed() {
		t.Fatal("watchdog still armed after the reclaim completed")
	}
	if got := tc.Sched.WatchdogTeardowns.Value(); got != 0 {
		t.Fatalf("%d spurious teardowns", got)
	}
	if got := tc.Sched.WatchdogRetries.Value(); got != 0 {
		t.Fatalf("%d spurious watchdog escalations", got)
	}
	if tc.Sched.DefenseMode() != ModeNormal {
		t.Fatalf("mode %v; a clean eviction must not walk the ladder", tc.Sched.DefenseMode())
	}
}

// TestProbeMissWindowBoundary pins the sliding-window comparison in
// noteProbeMiss: a miss exactly probeMissWindow old still counts toward
// the threshold (eviction is strictly-older-than), while one nanosecond
// beyond the window it ages out and the probe survives.
func TestProbeMissWindowBoundary(t *testing.T) {
	first := sim.Time(10 * sim.Microsecond)
	run := func(seed int64, lastAt sim.Time) *TaiChi {
		tc := newTaiChi(seed, nil)
		tc.Sched.EnableDefense(DefenseConfig{SchedWatchdogPeriod: 0})
		slot := tc.Sched.slots[0]
		// probeMissThreshold misses: the first, the rest but one spread
		// across the window, and the last at lastAt.
		at := []sim.Time{first}
		for i := 1; i < probeMissThreshold-1; i++ {
			at = append(at, first.Add(sim.Duration(i)*probeMissWindow/probeMissThreshold))
		}
		at = append(at, lastAt)
		for _, a := range at {
			tc.Node.Engine.At(a, func() { tc.Sched.noteProbeMiss(slot) })
		}
		tc.Run(lastAt.Add(sim.Millisecond))
		return tc
	}

	// Last miss exactly one window after the first: the first miss sits
	// exactly at the cutoff, is kept, and the threshold fires.
	at := run(71, first.Add(probeMissWindow))
	if at.Sched.DefenseMode() != ModeSWProbe || at.Sched.ProbeFallbacks.Value() != 1 {
		t.Fatalf("boundary miss discarded: mode=%v fallbacks=%d",
			at.Sched.DefenseMode(), at.Sched.ProbeFallbacks.Value())
	}
	if at.Node.Probe.Enabled {
		t.Fatal("hardware probe still enabled after fallback")
	}

	// One nanosecond past the window: the first miss ages out, one short
	// of the threshold remain, and the probe survives.
	past := run(72, first.Add(probeMissWindow+sim.Nanosecond))
	if past.Sched.DefenseMode() != ModeNormal || past.Sched.ProbeFallbacks.Value() != 0 {
		t.Fatalf("miss outside the window still tripped the fallback: mode=%v fallbacks=%d",
			past.Sched.DefenseMode(), past.Sched.ProbeFallbacks.Value())
	}
	if !past.Node.Probe.Enabled {
		t.Fatal("hardware probe disabled without reaching the threshold")
	}
}

// TestStaticFallbackDuringActiveAudit covers entering static
// partitioning while an audit holds a dedicated vCPU. Static mode
// suspends lending, so vCPUs — the audit vCPU included — stop being
// hosted; the fallback must detach the audit gracefully (affinity back
// to the CP pCPUs) instead of leaving the pinned thread starving on a
// vCPU that will never run again.
func TestStaticFallbackDuringActiveAudit(t *testing.T) {
	tc := newTaiChi(73, nil)
	tc.Sched.EnableDefense(DefenseConfig{SchedWatchdogPeriod: 0})

	cfg := controlplane.DefaultSynthCP()
	cfg.Total = 20 * sim.Millisecond
	target := tc.SpawnCP("target", controlplane.SynthCP(cfg, tc.Stream("target")))
	audit, err := tc.StartAudit(target)
	if err != nil {
		t.Fatalf("StartAudit: %v", err)
	}

	// Let the audit get going, then collapse the ladder mid-flight.
	tc.Run(sim.Time(2 * sim.Millisecond))
	tc.Node.Engine.Schedule(0, func() { tc.Sched.enterStatic() })
	tc.Run(sim.Time(3 * sim.Second))

	if tc.Sched.DefenseMode() != ModeStatic {
		t.Fatalf("mode %v, want static", tc.Sched.DefenseMode())
	}
	if audit.Active() {
		t.Fatal("audit still pinned to a vCPU that static mode will never host")
	}
	if target.State() != kernel.StateDone {
		t.Fatalf("audited thread starved after static fallback (state %v, cpu %v)",
			target.State(), target.CPUTime)
	}
	if audit.UserPhases == 0 {
		t.Fatal("observer recorded nothing before the fallback")
	}
	// No DP core may be lent while static.
	for _, slot := range tc.Sched.slots {
		if slot.occupant != nil || slot.pendingEnter != nil {
			t.Fatalf("core %d still lent out in static mode", slot.dp.ID)
		}
	}
}
