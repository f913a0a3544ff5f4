//go:build go1.23

package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestWindowBoundary: an instant exactly span old still counts, one a
// nanosecond older does not, and reset empties the window.
func TestWindowBoundary(t *testing.T) {
	const span = sim.Millisecond
	w := window{span: span}
	w.add(0)
	if got := w.count(sim.Time(span)); got != 1 {
		t.Fatalf("instant exactly span old: count %d, want 1", got)
	}
	if got := w.count(sim.Time(span + 1)); got != 0 {
		t.Fatalf("instant span+1ns old: count %d, want 0", got)
	}
	w.add(sim.Time(2 * span))
	w.add(sim.Time(2 * span))
	if got := w.count(sim.Time(2 * span)); got != 2 {
		t.Fatalf("count %d, want 2", got)
	}
	w.reset()
	if got := w.count(sim.Time(2 * span)); got != 0 {
		t.Fatalf("count after reset %d, want 0", got)
	}
}

// TestWindowTrimOnAddMatchesTrimOnCount: add evicts as it records, the
// overload ladder reads the count only at its next sample; the count
// seen then must equal one taken from a window that only appended.
func TestWindowTrimOnAddMatchesTrimOnCount(t *testing.T) {
	const span = 5 * sim.Millisecond
	w := window{span: span}
	var lazy []sim.Time
	for i, at := range []sim.Duration{0, 1, 2, 4, 6, 6, 9, 12, 20, 21} {
		now := sim.Time(at * sim.Millisecond)
		w.add(now)
		lazy = append(lazy, now)
		// Sample a little after each add, as the sampler would.
		later := now.Add(sim.Duration(i%3) * sim.Millisecond)
		ref := window{span: span, times: append([]sim.Time(nil), lazy...)}
		if got, want := w.count(later), ref.count(later); got != want {
			t.Fatalf("after add at %v, count at %v = %d, trim-on-count window says %d", now, later, got, want)
		}
	}
}

// TestRecoveryCooldownOrder: the recovery ladder dwells first and then
// stretches. The first static entry waits the jittered cooldown, and
// only the next one is quoted cooldown×factor.
func TestRecoveryCooldownOrder(t *testing.T) {
	tc := newTaiChi(77, nil)
	tc.Sched.EnableRecovery(DefaultRecoveryPolicy())
	start := tc.Node.Engine.Now()
	tc.Sched.enterStatic()
	want := sim.Duration(float64(recoveryCooldown) * recoveryCooldownFactor)
	if got := tc.Sched.RecoveryStats().NextCooldown; got != want {
		t.Fatalf("NextCooldown after the first static entry = %v, want cooldown×factor = %v", got, want)
	}
	tc.Run(start.Add(2 * want))
	var exit sim.Time = -1
	for e := range tc.Node.Tracer.All() {
		if e.Kind == trace.KindDefenseRecover {
			exit = e.At
			break
		}
	}
	if exit < 0 {
		t.Fatal("static was never left")
	}
	lo := sim.Duration(float64(recoveryCooldown) * (1 - recoveryJitter))
	hi := sim.Duration(float64(recoveryCooldown) * (1 + recoveryJitter))
	if dwell := exit.Sub(start); dwell < lo || dwell > hi {
		t.Fatalf("first static dwell %v, want the jittered cooldown in [%v, %v]", dwell, lo, hi)
	}
}

// TestOverloadCooldownOrder: the overload ladder stretches when it
// escalates, so the first de-escalation already waits cooldown×factor
// (4 ms), not the base cooldown.
func TestOverloadCooldownOrder(t *testing.T) {
	tc := newTaiChi(78, nil)
	tc.Sched.EnableOverload(DefaultOverloadPolicy())
	start := tc.Node.Engine.Now()
	tc.Sched.overloadEscalate()
	dwell := sim.Duration(float64(overloadCooldown) * overloadCooldownFactor)
	if dwell != 4*sim.Millisecond {
		t.Fatalf("default first dwell %v, want 4ms", dwell)
	}
	tc.Run(start.Add(2 * dwell))
	var exit sim.Time = -1
	for e := range tc.Node.Tracer.All() {
		if e.Kind == trace.KindOverloadExit {
			exit = e.At
			break
		}
	}
	if exit < 0 {
		t.Fatal("an idle node never de-escalated")
	}
	// The sampler fires every overloadSamplePeriod (±overloadJitter), so
	// the exit lands on the first sample at or after the dwell.
	late := sim.Duration(float64(overloadSamplePeriod) * (1 + overloadJitter))
	if got := exit.Sub(start); got < dwell || got > dwell+late {
		t.Fatalf("first de-escalation after %v, want within [%v, %v]", got, dwell, dwell+late)
	}
}
