//go:build go1.23

package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestBrownoutDuringArmedReclaimWatchdog covers the interaction between
// the overload ladder's top rung and a reclaim watchdog already armed
// for an outstanding preemption: brownout must not disarm or confuse the
// watchdog — it still fires, escalates, and its escalation feeds the
// pressure window — and the climb that got there stays lattice-legal
// (one overload_enter per rung).
func TestBrownoutDuringArmedReclaimWatchdog(t *testing.T) {
	tc := newTaiChi(76, nil)
	tc.Sched.EnableDefense(DefenseConfig{SchedWatchdogPeriod: 0})
	tc.Sched.EnableOverload(DefaultOverloadPolicy())
	slot := occupiedSlot(t, tc)

	// An outstanding preemption with the watchdog ticking (the
	// onProbeIRQ path without the exit having landed).
	slot.preemptReq = tc.Node.Engine.Now()
	tc.Sched.armReclaimWatchdog(slot)
	if slot.wdEv == (sim.Handle{}) {
		t.Fatal("watchdog did not arm")
	}

	// Walk the ladder to brownout by hand, one rung at a time.
	for tc.Sched.OverloadState() != OverloadBrownout {
		tc.Sched.overloadEscalate()
	}
	if !tc.Sched.overloadBrownedOut() {
		t.Fatal("brownout rung reached but optional work not suspended")
	}
	escBefore := len(tc.Sched.overload.esc.times)

	// The watchdog timeout (10 µs default) elapses well inside 30 µs:
	// it must still fire under brownout and escalate via forced IPI.
	tc.Run(tc.Node.Engine.Now().Add(30 * sim.Microsecond))
	if got := tc.Sched.WatchdogRetries.Value(); got == 0 {
		t.Fatal("armed watchdog never escalated under brownout")
	}
	if got := len(tc.Sched.overload.esc.times); got <= escBefore {
		t.Fatalf("escalation window has %d entries, want more than %d — watchdog pressure must keep feeding the ladder",
			got, escBefore)
	}

	// Keep running: the sampler, the watchdog ladder and the brownout
	// state must coexist without panics, and the peak must stick.
	tc.Run(tc.Node.Engine.Now().Add(10 * sim.Millisecond))
	if got := tc.Sched.OverloadStats().Peak; got != OverloadBrownout {
		t.Fatalf("peak rung = %v, want brownout", got)
	}

	// The manual climb must look exactly like a real one in the trace:
	// rungs 1, 2, 3 in order, each climbing exactly one.
	var rungs []int64
	for e := range tc.Node.Tracer.All() {
		if e.Kind == trace.KindOverloadEnter {
			rungs = append(rungs, e.Arg)
		}
	}
	if len(rungs) < 3 || rungs[0] != 1 || rungs[1] != 2 || rungs[2] != 3 {
		t.Fatalf("overload_enter rungs = %v, want the legal climb 1,2,3", rungs)
	}
}
