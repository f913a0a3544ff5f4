package controlplane

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
)

func newKernel(cpus int) (*sim.Engine, *kernel.Kernel) {
	e := sim.NewEngine()
	k := kernel.New(e, trace.New(0))
	for i := 0; i < cpus; i++ {
		k.AddCPU(kernel.CPUID(i), false)
	}
	return e, k
}

func TestNonPreemptibleDurationsShape(t *testing.T) {
	d := NonPreemptibleDurations()
	r := rand.New(rand.NewSource(1))
	in15, total := 0, 100000
	var max sim.Duration
	for i := 0; i < total; i++ {
		v := d.Sample(r)
		if v < sim.Millisecond || v > 67*sim.Millisecond {
			t.Fatalf("sample %v outside [1ms, 67ms]", v)
		}
		if v <= 5*sim.Millisecond {
			in15++
		}
		if v > max {
			max = v
		}
	}
	frac := float64(in15) / float64(total)
	if frac < 0.93 || frac < 0.90 {
		if frac < 0.90 || frac > 0.97 {
			t.Fatalf("1-5ms share %.3f, want ~0.945 (Figure 5)", frac)
		}
	}
	if max < 40*sim.Millisecond {
		t.Fatalf("max %v; tail missing", max)
	}
}

func TestSynthCPConsumesExactBudget(t *testing.T) {
	e, k := newKernel(1)
	cfg := DefaultSynthCP()
	th := k.Spawn("synth", SynthCP(cfg, rand.New(rand.NewSource(2))))
	e.Run(sim.Time(sim.Second))
	if th.State() != kernel.StateDone {
		t.Fatalf("state %v", th.State())
	}
	if th.CPUTime != cfg.Total {
		t.Fatalf("CPUTime %v, want exactly %v", th.CPUTime, cfg.Total)
	}
}

func TestSynthCPEmitsNonPreemptibleSections(t *testing.T) {
	e, k := newKernel(2)
	cfg := DefaultSynthCP()
	cfg.NonPreemptFrac = 0.5
	for i := 0; i < 8; i++ {
		k.Spawn("synth", SynthCP(cfg, rand.New(rand.NewSource(int64(i)))))
	}
	e.Run(sim.Time(2 * sim.Second))
	if k.Tracer().NonPreemptibleCensus().Count() == 0 {
		t.Fatal("no non-preemptible sections recorded")
	}
}

func TestSynthCPWithSharedLockSerializes(t *testing.T) {
	e, k := newKernel(2)
	lock := kernel.NewSpinLock("drv")
	cfg := DefaultSynthCP()
	cfg.Total = 10 * sim.Millisecond
	cfg.NonPreemptFrac = 0.6
	cfg.Lock = lock
	a := k.Spawn("a", SynthCP(cfg, rand.New(rand.NewSource(5))))
	b := k.Spawn("b", SynthCP(cfg, rand.New(rand.NewSource(6))))
	e.Run(sim.Time(sim.Second))
	if a.State() != kernel.StateDone || b.State() != kernel.StateDone {
		t.Fatal("tasks incomplete")
	}
	if lock.AcquireCount == 0 {
		t.Fatal("lock never used")
	}
	if lock.Locked() {
		t.Fatal("lock leaked")
	}
}

type fakeCoord struct {
	calls int
	delay sim.Duration
	e     *sim.Engine
}

func (f *fakeCoord) ConfigureDevice(flow int, done func(ok bool)) {
	f.calls++
	f.e.Schedule(f.delay, func() { done(true) })
}

func TestDeviceInitJobWalksAllDevices(t *testing.T) {
	e, k := newKernel(2)
	lock := kernel.NewSpinLock("drv")
	coord := &fakeCoord{delay: 10 * sim.Microsecond, e: e}
	devs := DefaultVMDevices()
	completed := false
	th := k.Spawn("devinit", DeviceInitJob(devs, nil, lock, coord, rand.New(rand.NewSource(7)), nil, nil, func() { completed = true }))
	e.Run(sim.Time(sim.Second))
	if !completed || th.State() != kernel.StateDone {
		t.Fatalf("job incomplete: %v / %v", completed, th.State())
	}
	wantQueues := 0
	for _, d := range devs {
		wantQueues += d.Queues
	}
	if coord.calls != wantQueues {
		t.Fatalf("coordinator called %d times, want %d (one per queue)", coord.calls, wantQueues)
	}
	if lock.AcquireCount != uint64(len(devs)) {
		t.Fatalf("lock acquired %d times, want %d (one per device)", lock.AcquireCount, len(devs))
	}
}

func TestDeviceInitJobBlocksOnSlowCoordinator(t *testing.T) {
	e, k := newKernel(1)
	lock := kernel.NewSpinLock("drv")
	slow := &fakeCoord{delay: 5 * sim.Millisecond, e: e}
	fastDone, slowDone := sim.Time(0), sim.Time(0)
	k.Spawn("slow", DeviceInitJob(DefaultVMDevices(), nil, lock, slow, rand.New(rand.NewSource(8)), nil, nil, func() { slowDone = e.Now() }))
	e.Run(sim.Time(sim.Second))

	e2, k2 := newKernel(1)
	lock2 := kernel.NewSpinLock("drv")
	fast := &fakeCoord{delay: 10 * sim.Microsecond, e: e2}
	k2.Spawn("fast", DeviceInitJob(DefaultVMDevices(), nil, lock2, fast, rand.New(rand.NewSource(8)), nil, nil, func() { fastDone = e2.Now() }))
	e2.Run(sim.Time(sim.Second))

	if slowDone <= fastDone {
		t.Fatalf("slow coordinator (%v) should delay completion past fast (%v)", slowDone, fastDone)
	}
	// 6 queues × ~5ms extra ≈ 30ms difference.
	if diff := slowDone.Sub(fastDone); diff < 20*sim.Millisecond {
		t.Fatalf("RPC-style delay only added %v", diff)
	}
}

func TestMonitorPeriodicity(t *testing.T) {
	e, k := newKernel(1)
	th := k.Spawn("mon", Monitor(rand.New(rand.NewSource(9))))
	e.Run(sim.Time(2 * sim.Second))
	if th.State() == kernel.StateDone {
		t.Fatal("monitor should never exit")
	}
	// ~20 periods × (compute+syscall) ≈ 10ms of CPU over 2s.
	if th.CPUTime < 5*sim.Millisecond || th.CPUTime > 60*sim.Millisecond {
		t.Fatalf("monitor CPU time %v out of expected band", th.CPUTime)
	}
}

// Property: SynthCP always consumes exactly its budget regardless of
// seed and non-preemptible fraction.
func TestPropertySynthCPBudget(t *testing.T) {
	f := func(seed int64, fracRaw uint8) bool {
		e, k := newKernel(1)
		cfg := DefaultSynthCP()
		cfg.Total = 10 * sim.Millisecond
		cfg.NonPreemptFrac = float64(fracRaw) / 255
		th := k.Spawn("synth", SynthCP(cfg, rand.New(rand.NewSource(seed))))
		e.Run(sim.Time(5 * sim.Second))
		return th.State() == kernel.StateDone && th.CPUTime == cfg.Total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceDeinitJobTearsDownAllDevices(t *testing.T) {
	e, k := newKernel(1)
	lock := kernel.NewSpinLock("drv")
	coord := &fakeCoord{delay: 10 * sim.Microsecond, e: e}
	devs := DefaultVMDevices()
	var gone []int
	completed := false
	th := k.Spawn("deinit", DeviceDeinitJob(devs, lock, coord, rand.New(rand.NewSource(11)),
		func(i int) { gone = append(gone, i) }, func() { completed = true }))
	e.Run(sim.Time(sim.Second))
	if !completed || th.State() != kernel.StateDone {
		t.Fatalf("deinit incomplete: %v/%v", completed, th.State())
	}
	if len(gone) != len(devs) {
		t.Fatalf("tore down %d devices, want %d", len(gone), len(devs))
	}
	if coord.calls != len(devs) {
		t.Fatalf("coordinator released %d times, want one per device", coord.calls)
	}
	// Deinit is cheaper than init: ~a third of the per-device cost.
	if th.CPUTime > 40*sim.Millisecond {
		t.Fatalf("deinit CPU %v; should be well under the ~70ms init cost", th.CPUTime)
	}
}
