package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/vcpu"
)

// TestSliceExpiryRecoveryCountsOnce pins the FaultsRecovered ownership
// rule: when the watchdog already escalated a slot's reclaim, the
// slice-expiry path (noteProbeMiss) must not also count the incident —
// resumeDP owns the recovery count for escalated reclaims. One incident,
// one count.
func TestSliceExpiryRecoveryCountsOnce(t *testing.T) {
	tc := newTaiChi(73, nil)
	tc.Sched.EnableDefense(DefenseConfig{SchedWatchdogPeriod: 0})
	slot := tc.Sched.slots[0]

	// Escalated incident: the watchdog already retried this slot when the
	// slice expiry lands, then the reclaim completes.
	slot.wdRetries = 1
	tc.Sched.noteProbeMiss(slot)
	tc.Sched.resumeDP(slot)
	if got := tc.Sched.FaultsRecovered.Value(); got != 1 {
		t.Fatalf("escalated incident counted %d recoveries, want exactly 1", got)
	}

	// Unescalated incident: the slice expiry itself is the recovery.
	slot2 := tc.Sched.slots[1]
	tc.Sched.noteProbeMiss(slot2)
	if got := tc.Sched.FaultsRecovered.Value(); got != 2 {
		t.Fatalf("clean slice-expiry recovery not counted: total %d, want 2", got)
	}
}

// runFlap drives one node through a pulsed fault schedule: every 50ms of
// simulated time the first 10ms wedge every VM exit by 5ms — far past
// the reclaim watchdog's budget — and the remaining 40ms are clean. The
// node oscillates normal↔static with the recovery ladder armed on its
// default tuning, over a horizon long enough for the static dwell to
// reach its cap.
func runFlap(seed int64) *TaiChi {
	tc := newTaiChi(seed, nil)
	tc.Sched.EnableDefense(DefaultDefenseConfig())
	tc.Sched.EnableRecovery(DefaultRecoveryPolicy())
	spawnHogs(tc, 8)

	pulsed := func() bool {
		phase := sim.Duration(tc.Node.Engine.Now()) % (50 * sim.Millisecond)
		return phase < 10*sim.Millisecond
	}
	for _, v := range tc.Sched.VCPUs() {
		v.ExitStall = func(*vcpu.VCPU) sim.Duration {
			if pulsed() {
				return 5 * sim.Millisecond
			}
			return 0
		}
	}

	// Deterministic traffic (no RNG): a packet on every net core each
	// 200µs keeps the lend/reclaim cycle turning so both the escalation
	// and the probation rungs see evidence.
	var tick func()
	tick = func() {
		for _, c := range tc.Node.Net.Cores() {
			tc.Node.Pipe.Inject(&accel.Packet{Core: c.ID, Work: sim.Microsecond})
		}
		tc.Node.Engine.Schedule(200*sim.Microsecond, tick)
	}
	tc.Node.Engine.Schedule(sim.Microsecond, tick)

	tc.Run(sim.Time(600 * sim.Millisecond))
	return tc
}

// flapLine renders the run's recovery outcome deterministically for the
// worker-count byte-identity check.
func flapLine(tc *TaiChi) string {
	rs := tc.Sched.RecoveryStats()
	return fmt.Sprintf("mode=%s static_fb=%d recoveries=%d reescalations=%d gen=%d next_cooldown=%v rejoined=%v detected=%d recovered=%d",
		tc.Sched.DefenseMode(), tc.Sched.StaticFallbacks.Value(),
		tc.Sched.DefenseRecoveries.Value(), tc.Sched.Reescalations.Value(),
		rs.Generation, rs.NextCooldown, rs.Rejoined,
		tc.Sched.FaultsDetected.Value(), tc.Sched.FaultsRecovered.Value())
}

// flapPinned is the rendered outcome of four flapping members (seeds
// MemberSeed(81, 0..3)). Every rung change, window reset, cooldown draw
// and stretch shows in these counters, so any drift in the ladder's
// order of operations breaks the pin.
const flapPinned = `mode=static static_fb=6 recoveries=10 reescalations=5 gen=5 next_cooldown=500ms rejoined=false detected=145 recovered=49
mode=static static_fb=6 recoveries=10 reescalations=5 gen=5 next_cooldown=500ms rejoined=false detected=145 recovered=49
mode=static static_fb=6 recoveries=10 reescalations=5 gen=5 next_cooldown=500ms rejoined=false detected=145 recovered=49
mode=static static_fb=6 recoveries=10 reescalations=5 gen=5 next_cooldown=500ms rejoined=false detected=145 recovered=49`

// TestRecoveryLadderFlapping is the flapping acceptance test: under the
// pulsed schedule the node must oscillate (multiple static fallbacks,
// multiple recoveries, at least one re-escalation) and the exponential
// cooldown must have grown to its cap — the settling mechanism — while
// rendering
// exactly flapPinned and staying byte-identical across 1 and 8 fleet
// workers.
func TestRecoveryLadderFlapping(t *testing.T) {
	t.Parallel()
	tc := runFlap(fleet.MemberSeed(81, 0))
	line := flapLine(tc)
	if tc.Sched.StaticFallbacks.Value() < 2 {
		t.Fatalf("node never oscillated into static twice: %s", line)
	}
	if tc.Sched.DefenseRecoveries.Value() < 3 {
		t.Fatalf("ladder barely climbed (want at least one full static→normal walk plus a retry): %s", line)
	}
	if tc.Sched.Reescalations.Value() < 1 {
		t.Fatalf("flapping never detected: %s", line)
	}
	rs := tc.Sched.RecoveryStats()
	if rs.NextCooldown <= recoveryCooldown {
		t.Fatalf("cooldown never grew — flapping unpenalized: %s", line)
	}
	if rs.NextCooldown > recoveryMaxCooldown {
		t.Fatalf("cooldown exceeded its cap: %s", line)
	}
	if rs.NextCooldown != recoveryMaxCooldown {
		t.Fatalf("cooldown never reached its cap: %s", line)
	}

	render := func(workers int) string {
		lines := make([]string, 4)
		fleet.ForEach(len(lines), workers, func(i int) {
			lines[i] = flapLine(runFlap(fleet.MemberSeed(81, i)))
		})
		return strings.Join(lines, "\n")
	}
	sequential := render(1)
	if sequential != flapPinned {
		t.Fatalf("flapping runs drifted from the pin:\n--- got\n%s\n--- want\n%s", sequential, flapPinned)
	}
	if parallel := render(8); parallel != sequential {
		t.Fatalf("flapping runs differ between 1 and 8 workers:\n--- 1\n%s\n--- 8\n%s", sequential, parallel)
	}
}

// TestRecoveryUnarmedIsPassive: without EnableRecovery the stats stay
// zero and entering static schedules no exit.
func TestRecoveryUnarmedIsPassive(t *testing.T) {
	tc := newTaiChi(74, nil)
	tc.Sched.EnableDefense(DefenseConfig{SchedWatchdogPeriod: 0})
	if rs := tc.Sched.RecoveryStats(); rs.Enabled {
		t.Fatal("recovery reported enabled without EnableRecovery")
	}
	tc.Sched.enterStatic()
	tc.Run(sim.Time(2 * sim.Second))
	if tc.Sched.DefenseMode() != ModeStatic {
		t.Fatalf("mode %v; static must be one-way without the recovery ladder", tc.Sched.DefenseMode())
	}
	if tc.Sched.DefenseRecoveries.Value() != 0 {
		t.Fatal("recoveries counted without the ladder armed")
	}
}

// TestEnableRecoveryIdempotent: re-arming creates no second RNG stream.
func TestEnableRecoveryIdempotent(t *testing.T) {
	tc := newTaiChi(75, nil)
	tc.Sched.EnableRecovery(DefaultRecoveryPolicy())
	if tc.Sched.defense == nil {
		t.Fatal("EnableRecovery must arm the defense state")
	}
	first := tc.Sched.defense.r
	tc.Sched.EnableRecovery(DefaultRecoveryPolicy())
	if tc.Sched.defense.r != first {
		t.Fatal("EnableRecovery replaced the armed stream")
	}
}
