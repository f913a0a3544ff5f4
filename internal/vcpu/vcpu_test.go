package vcpu

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
)

func newFixture() (*sim.Engine, *kernel.Kernel, *VCPU) {
	e := sim.NewEngine()
	k := kernel.New(e, trace.New(0))
	c := k.AddCPU(0, true)
	c.SetOnline(true)
	v := New(k, c, DefaultCosts(), k.Tracer())
	return e, k, v
}

func guestWork(k *kernel.Kernel, d sim.Duration, cpus ...kernel.CPUID) *kernel.Thread {
	return k.Spawn("guest", &kernel.SliceProgram{Segments: []kernel.Segment{
		{Kind: kernel.SegCompute, Dur: d},
	}}, cpus...)
}

// A negative VM-entry or VM-exit cost is rejected by name; zero is a
// legal (free) transition.
func TestMalformedCostsRejected(t *testing.T) {
	for _, tc := range []struct {
		field string
		costs Costs
	}{
		{"Entry", Costs{Entry: -sim.Microsecond, Exit: 2 * sim.Microsecond}},
		{"Exit", Costs{Entry: sim.Microsecond, Exit: -1}},
	} {
		if err := tc.costs.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Validate(%+v) = %v, want an error naming the field", tc.field, tc.costs, err)
		}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "Costs."+tc.field) {
					t.Errorf("%s: New panicked with %v, want the field named", tc.field, r)
				}
			}()
			k := kernel.New(sim.NewEngine(), trace.New(0))
			New(k, k.AddCPU(0, true), tc.costs, k.Tracer())
		}()
	}
	if err := (Costs{}).Validate(); err != nil {
		t.Fatalf("zero costs must be legal: %v", err)
	}
}

func TestEnterRunsGuestAfterEntryCost(t *testing.T) {
	e, k, v := newFixture()
	th := guestWork(k, 100*sim.Microsecond)
	v.MarkReady()
	var exitedWith ExitReason = 255
	v.Enter(3, 0, func(_ *VCPU, r ExitReason) { exitedWith = r })
	e.Run(sim.Time(10 * sim.Millisecond))
	if th.State() != kernel.StateDone {
		t.Fatalf("guest state %v", th.State())
	}
	// Entry cost 1µs + ctx switch 1µs + 100µs work => finish ≥ 102µs.
	if th.FinishedAt < sim.Time(102*sim.Microsecond) {
		t.Fatalf("finished at %v, entry cost not charged", th.FinishedAt)
	}
	if exitedWith != ExitHalt {
		t.Fatalf("exit reason %v, want halt after guest idles", exitedWith)
	}
	if v.State() != StateHalted {
		t.Fatalf("state %v, want halted", v.State())
	}
	if v.Core() != -1 {
		t.Fatal("core not released")
	}
}

func TestSliceTimerExpiry(t *testing.T) {
	e, k, v := newFixture()
	guestWork(k, 10*sim.Millisecond)
	v.MarkReady()
	var reason ExitReason = 255
	var exitAt sim.Time
	v.Enter(0, 50*sim.Microsecond, func(_ *VCPU, r ExitReason) {
		reason = r
		exitAt = e.Now()
	})
	e.Run(sim.Time(sim.Millisecond))
	if reason != ExitTimer {
		t.Fatalf("reason %v, want timer", reason)
	}
	// Entry(1µs) + slice(50µs) + exit(2µs) = 53µs.
	want := sim.Time(53 * sim.Microsecond)
	if exitAt != want {
		t.Fatalf("exit completed at %v, want %v", exitAt, want)
	}
	if v.ExitsByWhy[ExitTimer] != 1 {
		t.Fatal("exit accounting")
	}
}

func TestForceExitProbe(t *testing.T) {
	e, k, v := newFixture()
	th := guestWork(k, 10*sim.Millisecond)
	v.MarkReady()
	var reason ExitReason = 255
	v.Enter(0, 0, func(_ *VCPU, r ExitReason) { reason = r })
	e.At(sim.Time(20*sim.Microsecond), func() { v.ForceExit(ExitProbe) })
	e.Run(sim.Time(sim.Millisecond))
	if reason != ExitProbe {
		t.Fatalf("reason %v", reason)
	}
	if v.State() != StateReady {
		t.Fatalf("state %v, want ready (work remains)", v.State())
	}
	if th.State() == kernel.StateDone {
		t.Fatal("guest cannot have finished")
	}
}

func TestWorkResumesAcrossEnterExitCycles(t *testing.T) {
	e, k, v := newFixture()
	th := guestWork(k, 300*sim.Microsecond)
	v.MarkReady()
	var drive func(v *VCPU, r ExitReason)
	entries := 0
	drive = func(vv *VCPU, r ExitReason) {
		if r == ExitHalt {
			return
		}
		entries++
		if entries > 100 {
			t.Fatal("too many cycles")
		}
		vv.Enter(0, 50*sim.Microsecond, drive)
	}
	v.Enter(0, 50*sim.Microsecond, drive)
	e.Run(sim.Time(10 * sim.Millisecond))
	if th.State() != kernel.StateDone {
		t.Fatalf("guest state %v after %d entries", th.State(), entries)
	}
	if th.CPUTime != 300*sim.Microsecond {
		t.Fatalf("CPUTime %v, want exactly 300µs", th.CPUTime)
	}
	if entries < 5 {
		t.Fatalf("expected several slice cycles, got %d", entries)
	}
}

func TestHaltThenWakeViaInterrupt(t *testing.T) {
	e, k, v := newFixture()
	v.MarkReady()
	v.Enter(0, 0, func(*VCPU, ExitReason) {})
	e.Run(sim.Time(sim.Millisecond)) // no work → halts
	if v.State() != StateHalted {
		t.Fatalf("state %v, want halted", v.State())
	}
	woke := false
	delivered := false
	v.OnWake = func(*VCPU) { woke = true }
	v.InjectInterrupt(func() { delivered = true })
	if !woke || !delivered {
		t.Fatalf("woke=%v delivered=%v", woke, delivered)
	}
	if v.State() != StateReady {
		t.Fatalf("state %v, want ready", v.State())
	}
	_ = k
}

func TestPostedInterruptNoExit(t *testing.T) {
	e, k, v := newFixture()
	guestWork(k, 10*sim.Millisecond)
	v.MarkReady()
	v.Enter(0, 0, func(*VCPU, ExitReason) {})
	e.At(sim.Time(50*sim.Microsecond), func() {
		delivered := false
		v.InjectInterrupt(func() { delivered = true })
		if !delivered {
			t.Error("posted interrupt not delivered")
		}
		if v.State() != StateRunning {
			t.Errorf("posted interrupt caused state %v", v.State())
		}
	})
	e.Run(sim.Time(sim.Millisecond))
	if v.Exits != 0 {
		t.Fatalf("posted interrupt caused %d exits", v.Exits)
	}
}

func TestUnpostedInterruptForcesExit(t *testing.T) {
	e := sim.NewEngine()
	k := kernel.New(e, trace.New(0))
	c := k.AddCPU(0, true)
	c.SetOnline(true)
	costs := DefaultCosts()
	costs.PostedInterrupts = false
	v := New(k, c, costs, k.Tracer())
	guestWork(k, 10*sim.Millisecond)
	v.MarkReady()
	v.Enter(0, 0, func(*VCPU, ExitReason) {})
	e.At(sim.Time(50*sim.Microsecond), func() {
		v.InjectInterrupt(func() {})
	})
	e.Run(sim.Time(sim.Millisecond))
	if v.ExitsByWhy[ExitIPI] != 1 {
		t.Fatalf("exits by IPI = %d, want 1", v.ExitsByWhy[ExitIPI])
	}
}

func TestRevokeMidEntry(t *testing.T) {
	e, k, v := newFixture()
	guestWork(k, sim.Millisecond)
	v.MarkReady()
	var reason ExitReason = 255
	v.Enter(0, 0, func(_ *VCPU, r ExitReason) { reason = r })
	// Revoke before the 1µs entry completes.
	e.At(sim.Time(500*sim.Nanosecond), func() { v.ForceExit(ExitForced) })
	e.Run(sim.Time(sim.Millisecond))
	if reason != ExitForced {
		t.Fatalf("reason %v", reason)
	}
	if v.State() != StateReady {
		t.Fatalf("state %v", v.State())
	}
	_ = k
}

func TestEnterInWrongStatePanics(t *testing.T) {
	_, _, v := newFixture()
	defer func() {
		if recover() == nil {
			t.Fatal("Enter on halted vCPU did not panic")
		}
	}()
	v.Enter(0, 0, nil) // still halted, not ready
}

func TestNonVirtualCPUPanics(t *testing.T) {
	e := sim.NewEngine()
	k := kernel.New(e, trace.New(0))
	c := k.AddCPU(0, false)
	defer func() {
		if recover() == nil {
			t.Fatal("wrapping a physical CPU did not panic")
		}
	}()
	New(k, c, DefaultCosts(), nil)
}

func TestExitReasonStrings(t *testing.T) {
	for r, want := range map[ExitReason]string{
		ExitTimer: "timer", ExitProbe: "probe", ExitHalt: "halt",
		ExitIPI: "ipi", ExitForced: "forced",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q", r, r.String())
		}
	}
	if StateRunning.String() != "running" {
		t.Error("state string")
	}
}

// Property: arbitrary interleavings of Enter, ForceExit, and interrupt
// injection never lose guest work — the thread's CPU time on completion
// equals its demand exactly, and the vCPU ends in a legal parked state.
func TestPropertyChaoticScheduling(t *testing.T) {
	run := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		k := kernel.New(e, trace.New(0))
		c := k.AddCPU(0, true)
		c.SetOnline(true)
		v := New(k, c, DefaultCosts(), k.Tracer())

		const demand = 2 * sim.Millisecond
		th := k.Spawn("guest", &kernel.SliceProgram{Segments: []kernel.Segment{
			{Kind: kernel.SegCompute, Dur: demand / 4},
			{Kind: kernel.SegNonPreempt, Dur: demand / 4},
			{Kind: kernel.SegSyscall, Dur: demand / 4},
			{Kind: kernel.SegCompute, Dur: demand / 4},
		}}, 0)

		// Driver: always re-enter while work remains; chaos injector
		// randomly force-exits and injects interrupts.
		var drive func(v *VCPU, r ExitReason)
		drive = func(vv *VCPU, _ ExitReason) {
			if th.State() == kernel.StateDone {
				return
			}
			if vv.State() == StateReady {
				slice := sim.Duration(10+rng.Intn(100)) * sim.Microsecond
				vv.Enter(0, slice, drive)
			}
		}
		v.OnWake = func(vv *VCPU) { drive(vv, ExitHalt) }
		v.MarkReady()
		v.Enter(0, 50*sim.Microsecond, drive)

		var chaos func()
		chaos = func() {
			if th.State() == kernel.StateDone {
				return
			}
			switch rng.Intn(3) {
			case 0:
				v.ForceExit(ExitProbe)
			case 1:
				v.ForceExit(ExitForced)
			case 2:
				v.InjectInterrupt(func() {})
			}
			e.Schedule(sim.Duration(1+rng.Intn(30))*sim.Microsecond, chaos)
		}
		e.Schedule(sim.Microsecond, chaos)

		e.Run(sim.Time(sim.Minute))
		if th.State() != kernel.StateDone || th.CPUTime != demand {
			return false
		}
		return v.State() == StateHalted || v.State() == StateReady
	}
	for seed := int64(0); seed < 40; seed++ {
		if !run(seed) {
			t.Fatalf("chaotic scheduling lost work at seed %d", seed)
		}
	}
}

// Once warm, a VM-entry/VM-exit cycle allocates nothing: the entry and
// exit events are bound once per vCPU, and the exit callback is the
// caller's. The guest has no work, so it halts as soon as it resumes.
func TestEnterExitAllocFree(t *testing.T) {
	e, _, v := newFixture()
	exits := 0
	onExit := func(*VCPU, ExitReason) { exits++ }
	cycle := func() {
		v.MarkReady()
		v.Enter(0, 10*sim.Microsecond, onExit)
		e.Run(e.Now().Add(20 * sim.Microsecond))
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("enter+halt+exit allocates %v per cycle, want 0", allocs)
	}
	if exits != 102 || v.ExitsByWhy[ExitHalt] != 102 { // warm-up, AllocsPerRun's own warm-up, 100 runs
		t.Fatalf("%d exits, %d by halt; want 102, 102", exits, v.ExitsByWhy[ExitHalt])
	}
}

// An entry revoked and re-issued inside the entry window leaves two entry
// events queued. They fire in Enter order and each takes its own Enter's
// slice: the revoked entry's event resumes the guest, early, under the
// revoked entry's 50 µs slice, and the later event finds the vCPU already
// running and does nothing. Pinned because seeded runs depend on it.
func TestRevokedEntryArmsItsOwnSlice(t *testing.T) {
	e, k, v := newFixture()
	guestWork(k, 10*sim.Millisecond)
	v.MarkReady()
	v.Enter(0, 50*sim.Microsecond, func(*VCPU, ExitReason) {})
	e.Run(sim.Time(500 * sim.Nanosecond))
	v.ForceExit(ExitForced)
	var reason ExitReason = 255
	var exitAt sim.Time
	v.Enter(1, 200*sim.Microsecond, func(_ *VCPU, r ExitReason) {
		reason, exitAt = r, e.Now()
	})
	e.Run(sim.Time(sim.Millisecond))
	// First entry event at 1 µs, slice to 51 µs, 2 µs exit.
	if reason != ExitTimer || exitAt != sim.Time(53*sim.Microsecond) {
		t.Fatalf("exit %v at %v, want timer at 53µs", reason, exitAt)
	}
}
