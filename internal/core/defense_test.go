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
		for _, id := range tc.Sched.order {
			if slot := tc.Sched.slots[id]; slot.occupant != nil {
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
	if slot.wdEv == (sim.Handle{}) {
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
	if slot.wdEv != (sim.Handle{}) {
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
// noteProbeMiss: a miss exactly ProbeMissWindow old still counts toward
// the threshold (eviction is strictly-older-than), while one nanosecond
// beyond the window it ages out and the probe survives.
func TestProbeMissWindowBoundary(t *testing.T) {
	run := func(seed int64, thirdAt sim.Time) *TaiChi {
		tc := newTaiChi(seed, nil)
		tc.Sched.EnableDefense(DefenseConfig{
			ProbeMissThreshold:  3,
			ProbeMissWindow:     sim.Millisecond,
			SchedWatchdogPeriod: 0,
		})
		slot := tc.Sched.slots[tc.Sched.order[0]]
		for _, at := range []sim.Time{
			sim.Time(10 * sim.Microsecond),
			sim.Time(510 * sim.Microsecond),
			thirdAt,
		} {
			tc.Node.Engine.At(at, func() { tc.Sched.noteProbeMiss(slot) })
		}
		tc.Run(sim.Time(2 * sim.Millisecond))
		return tc
	}

	// Third miss exactly one window after the first: the first miss sits
	// exactly at the cutoff, is kept, and the threshold fires.
	at := run(71, sim.Time(10*sim.Microsecond).Add(sim.Millisecond))
	if at.Sched.DefenseMode() != ModeSWProbe || at.Sched.ProbeFallbacks.Value() != 1 {
		t.Fatalf("boundary miss discarded: mode=%v fallbacks=%d",
			at.Sched.DefenseMode(), at.Sched.ProbeFallbacks.Value())
	}
	if at.Node.Probe.Enabled {
		t.Fatal("hardware probe still enabled after fallback")
	}

	// One nanosecond past the window: the first miss ages out, only two
	// remain, and the probe survives.
	past := run(72, sim.Time(10*sim.Microsecond).Add(sim.Millisecond+sim.Nanosecond))
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
	for _, id := range tc.Sched.order {
		if slot := tc.Sched.slots[id]; slot.occupant != nil || slot.pendingEnter != nil {
			t.Fatalf("core %d still lent out in static mode", id)
		}
	}
}
