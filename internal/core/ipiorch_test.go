package core

import (
	"testing"

	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vcpu"
)

func orchFixture() (*sim.Engine, *kernel.Kernel, *Orchestrator, *vcpu.VCPU) {
	e := sim.NewEngine()
	k := kernel.New(e, trace.New(0))
	k.AddCPU(0, false) // pCPU
	c := k.AddCPU(100, true)
	o := NewOrchestrator(k)
	v := vcpu.New(k, c, vcpu.DefaultCosts(), k.Tracer())
	o.Register(v)
	e.RunUntilIdle() // boot IPI sequence
	return e, k, o, v
}

func TestBootIPIOnlinesVCPU(t *testing.T) {
	_, k, _, v := orchFixture()
	if !k.CPU(100).Online() {
		t.Fatal("vCPU not online after boot IPI")
	}
	if v.State() != vcpu.StateHalted {
		t.Fatalf("vCPU state %v after boot, want halted", v.State())
	}
}

func TestDoubleRegisterPanics(t *testing.T) {
	_, k, o, _ := orchFixture()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c := k.CPU(100)
	o.Register(vcpu.New(k, c, vcpu.DefaultCosts(), nil))
}

func TestRouteToPCPUFallsThrough(t *testing.T) {
	e, k, o, _ := orchFixture()
	got := 0
	k.RegisterIPIHandler(kernel.VecUser, func(kernel.CPUID, int64) { got++ })
	k.SendIPI(-1, 0, kernel.VecUser, 0)
	e.RunUntilIdle()
	if got != 1 {
		t.Fatalf("pCPU delivery count %d", got)
	}
	if o.Routed == 0 {
		t.Fatal("orchestrator did not see the send")
	}
}

func TestRouteToHaltedVCPUWakes(t *testing.T) {
	e, k, _, v := orchFixture()
	woke := false
	v.OnWake = func(*vcpu.VCPU) { woke = true }
	got := 0
	k.RegisterIPIHandler(kernel.VecUser, func(cpu kernel.CPUID, _ int64) { got++ })
	k.SendIPI(0, 100, kernel.VecUser, 0)
	e.RunUntilIdle()
	if !woke {
		t.Fatal("halted vCPU not woken by IPI")
	}
	if v.State() != vcpu.StateReady {
		t.Fatalf("state %v", v.State())
	}
	// The interrupt posts; it is delivered when the vCPU is next backed.
	if got != 0 {
		t.Fatal("interrupt delivered before the vCPU was backed")
	}
	v.Enter(0, 0, func(*vcpu.VCPU, vcpu.ExitReason) {})
	e.RunUntilIdle()
	if got != 1 {
		t.Fatalf("posted interrupt not drained on entry; got %d", got)
	}
}

func TestRouteToRunningVCPUPostsDirectly(t *testing.T) {
	e, k, _, v := orchFixture()
	// Give the guest endless work so it stays running.
	k.Spawn("guest", kernel.ProgramFunc(func(*kernel.Thread) (kernel.Segment, bool) {
		return kernel.Segment{Kind: kernel.SegCompute, Dur: sim.Millisecond}, true
	}), 100)
	v.MarkReady()
	v.Enter(0, 0, func(*vcpu.VCPU, vcpu.ExitReason) {})
	e.Run(sim.Time(100 * sim.Microsecond))
	got := 0
	k.RegisterIPIHandler(kernel.VecUser, func(kernel.CPUID, int64) { got++ })
	k.SendIPI(0, 100, kernel.VecUser, 0)
	e.Run(e.Now().Add(sim.Duration(100 * sim.Microsecond)))
	if got != 1 {
		t.Fatalf("posted-interrupt delivery count %d", got)
	}
	if v.Exits != 0 {
		t.Fatalf("posted interrupt caused %d exits", v.Exits)
	}
}

func TestSourceExitCostDelaysDelivery(t *testing.T) {
	e, k, o, v := orchFixture()
	o.SourceExitCost = 2 * sim.Microsecond
	// Guest busy so the source vCPU is running when it sends.
	k.Spawn("guest", kernel.ProgramFunc(func(*kernel.Thread) (kernel.Segment, bool) {
		return kernel.Segment{Kind: kernel.SegCompute, Dur: sim.Millisecond}, true
	}), 100)
	v.MarkReady()
	v.Enter(0, 0, func(*vcpu.VCPU, vcpu.ExitReason) {})
	e.Run(sim.Time(100 * sim.Microsecond))

	var deliveredAt sim.Time
	k.RegisterIPIHandler(kernel.VecUser, func(kernel.CPUID, int64) { deliveredAt = e.Now() })
	sentAt := e.Now()
	k.SendIPI(100, 0, kernel.VecUser, 0) // vCPU → pCPU
	e.Run(e.Now().Add(sim.Duration(100 * sim.Microsecond)))
	if o.SourceExits != 1 {
		t.Fatalf("source exits %d", o.SourceExits)
	}
	lat := deliveredAt.Sub(sentAt)
	want := o.SourceExitCost + kernel.IPILatency
	if lat != want {
		t.Fatalf("delivery latency %v, want %v", lat, want)
	}
}
