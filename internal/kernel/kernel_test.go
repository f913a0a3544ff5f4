package kernel

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func newTestKernel(nPhys, nVirt int) (*sim.Engine, *Kernel) {
	e := sim.NewEngine()
	k := New(e, trace.New(0))
	for i := 0; i < nPhys; i++ {
		k.AddCPU(CPUID(i), false)
	}
	for i := 0; i < nVirt; i++ {
		k.AddCPU(CPUID(nPhys+i), true)
	}
	return e, k
}

func computeProg(n int, each sim.Duration) Program {
	segs := make([]Segment, n)
	for i := range segs {
		segs[i] = Segment{Kind: SegCompute, Dur: each}
	}
	return &SliceProgram{Segments: segs}
}

func TestSingleThreadCompletes(t *testing.T) {
	e, k := newTestKernel(1, 0)
	th := k.Spawn("worker", computeProg(3, sim.Millisecond))
	e.Run(sim.Time(100 * sim.Millisecond))
	if th.State() != StateDone {
		t.Fatalf("state = %v, want done", th.State())
	}
	if th.CPUTime != 3*sim.Millisecond {
		t.Fatalf("CPUTime = %v, want 3ms", th.CPUTime)
	}
	if th.FinishedAt < sim.Time(3*sim.Millisecond) {
		t.Fatalf("finished too early: %v", th.FinishedAt)
	}
}

func TestFairSharingTwoThreads(t *testing.T) {
	e, k := newTestKernel(1, 0)
	a := k.Spawn("a", computeProg(20, sim.Millisecond))
	b := k.Spawn("b", computeProg(20, sim.Millisecond))
	e.Run(sim.Time(200 * sim.Millisecond))
	if a.State() != StateDone || b.State() != StateDone {
		t.Fatalf("states %v/%v", a.State(), b.State())
	}
	// Fair sharing: both finish within a quantum-ish of each other.
	diff := a.FinishedAt.Sub(b.FinishedAt)
	if diff < 0 {
		diff = -diff
	}
	if diff > 10*sim.Millisecond {
		t.Fatalf("unfair finish skew: %v", diff)
	}
}

func TestTwoCPUsParallel(t *testing.T) {
	e, k := newTestKernel(2, 0)
	a := k.Spawn("a", computeProg(10, sim.Millisecond))
	b := k.Spawn("b", computeProg(10, sim.Millisecond))
	e.Run(sim.Time(50 * sim.Millisecond))
	// Each on its own CPU: both finish around 10ms, not 20.
	for _, th := range []*Thread{a, b} {
		if th.FinishedAt > sim.Time(12*sim.Millisecond) {
			t.Fatalf("%s finished at %v; no parallelism?", th.Name, th.FinishedAt)
		}
	}
}

func TestQuantumPreemptionMidSegment(t *testing.T) {
	e, k := newTestKernel(1, 0)
	long := k.Spawn("long", computeProg(1, 50*sim.Millisecond))
	short := k.Spawn("short", computeProg(1, sim.Millisecond))
	e.Run(sim.Time(100 * sim.Millisecond))
	if short.State() != StateDone || long.State() != StateDone {
		t.Fatal("threads did not finish")
	}
	// Short must not wait for the whole 50ms segment: preemption at the
	// quantum lets it in within ~quantum + epsilon.
	if short.FinishedAt > sim.Time(10*sim.Millisecond) {
		t.Fatalf("short finished at %v; quantum preemption broken", short.FinishedAt)
	}
	if k.Preemptions.Value() == 0 {
		t.Fatal("no preemptions recorded")
	}
}

func TestNonPreemptibleBlocksPreemption(t *testing.T) {
	e, k := newTestKernel(1, 0)
	np := k.Spawn("np", &SliceProgram{Segments: []Segment{
		{Kind: SegNonPreempt, Dur: 20 * sim.Millisecond, Note: "driver"},
	}})
	victim := k.Spawn("victim", computeProg(1, sim.Millisecond))
	e.Run(sim.Time(100 * sim.Millisecond))
	if np.State() != StateDone || victim.State() != StateDone {
		t.Fatal("threads did not finish")
	}
	// Victim cannot start until the non-preemptible section ends.
	if victim.FinishedAt < sim.Time(20*sim.Millisecond) {
		t.Fatalf("victim finished at %v, inside the non-preemptible window", victim.FinishedAt)
	}
}

func TestSleepReleasesCPU(t *testing.T) {
	e, k := newTestKernel(1, 0)
	sleeper := k.Spawn("sleeper", &SliceProgram{Segments: []Segment{
		{Kind: SegSleep, Dur: 30 * sim.Millisecond},
		{Kind: SegCompute, Dur: sim.Millisecond},
	}})
	worker := k.Spawn("worker", computeProg(1, sim.Millisecond))
	e.Run(sim.Time(100 * sim.Millisecond))
	if worker.FinishedAt > sim.Time(5*sim.Millisecond) {
		t.Fatalf("worker delayed to %v by a sleeping thread", worker.FinishedAt)
	}
	if sleeper.FinishedAt < sim.Time(30*sim.Millisecond) {
		t.Fatalf("sleeper woke early: %v", sleeper.FinishedAt)
	}
	if sleeper.CPUTime > 2*sim.Millisecond {
		t.Fatalf("sleep charged CPU time: %v", sleeper.CPUTime)
	}
}

func TestWaitAndSignal(t *testing.T) {
	e, k := newTestKernel(1, 0)
	waiter := k.Spawn("waiter", &SliceProgram{Segments: []Segment{
		{Kind: SegWait},
		{Kind: SegCompute, Dur: sim.Millisecond},
	}})
	e.At(sim.Time(10*sim.Millisecond), func() { waiter.Signal() })
	e.Run(sim.Time(100 * sim.Millisecond))
	if waiter.State() != StateDone {
		t.Fatalf("waiter state %v", waiter.State())
	}
	if waiter.FinishedAt < sim.Time(10*sim.Millisecond) {
		t.Fatalf("waiter ran before signal: %v", waiter.FinishedAt)
	}
}

func TestSignalBeforeWaitNotLost(t *testing.T) {
	e, k := newTestKernel(1, 0)
	var th *Thread
	th = k.Spawn("racer", &SliceProgram{Segments: []Segment{
		{Kind: SegCompute, Dur: 5 * sim.Millisecond, OnStart: func() {
			// Signal arrives while we are still computing, before SegWait.
			th.Signal()
		}},
		{Kind: SegWait},
		{Kind: SegCompute, Dur: sim.Millisecond},
	}})
	e.Run(sim.Time(100 * sim.Millisecond))
	if th.State() != StateDone {
		t.Fatalf("pre-wait signal lost; state %v", th.State())
	}
}

func TestLockContentionSerializes(t *testing.T) {
	e, k := newTestKernel(2, 0)
	l := NewSpinLock("driver")
	a := k.Spawn("a", &SliceProgram{Segments: []Segment{
		{Kind: SegLock, Lock: l, Dur: 10 * sim.Millisecond},
	}})
	b := k.Spawn("b", &SliceProgram{Segments: []Segment{
		{Kind: SegLock, Lock: l, Dur: 10 * sim.Millisecond},
	}})
	e.Run(sim.Time(100 * sim.Millisecond))
	if a.State() != StateDone || b.State() != StateDone {
		t.Fatal("lock users did not finish")
	}
	// Serialized holds: the second finisher ends no earlier than ~20ms.
	late := a.FinishedAt
	if b.FinishedAt > late {
		late = b.FinishedAt
	}
	if late < sim.Time(20*sim.Millisecond) {
		t.Fatalf("critical sections overlapped; last finished %v", late)
	}
	if l.Locked() {
		t.Fatal("lock leaked")
	}
	if l.ContendedCount == 0 {
		t.Fatal("expected contention")
	}
	// The spinner burned CPU while waiting: its CPU time exceeds its hold.
	spinner := a
	if b.CPUTime > a.CPUTime {
		spinner = b
	}
	if spinner.CPUTime < 15*sim.Millisecond {
		t.Fatalf("spin time not charged: %v", spinner.CPUTime)
	}
}

func TestAffinityRespected(t *testing.T) {
	e, k := newTestKernel(2, 0)
	var ranOn CPUID = -1
	th := k.Spawn("pinned", &SliceProgram{Segments: []Segment{
		{Kind: SegCompute, Dur: sim.Millisecond},
	}}, 1)
	th.OnExit = func(t *Thread) {}
	// Observe placement via the CPU that executes it.
	e.At(sim.Time(500*sim.Microsecond), func() {
		for _, c := range k.CPUs() {
			if c.Current() == th {
				ranOn = c.ID
			}
		}
	})
	e.Run(sim.Time(10 * sim.Millisecond))
	if ranOn != 1 {
		t.Fatalf("pinned thread observed on cpu%d, want cpu1", ranOn)
	}
	if !th.AllowedOn(1) || th.AllowedOn(0) {
		t.Fatal("affinity mask wrong")
	}
}

// The affinity set answers AllowedOn exactly as a set of CPU ids would,
// including ids of 64 and above (the vCPU pool starts at 100) and the
// CPU -1 of hardware-originated sends.
func TestAffinitySet(t *testing.T) {
	probe := []CPUID{-1, 0, 1, 5, 63, 64, 65, 100, 107, 127, 128, 300}
	for _, tc := range []struct {
		name string
		set  []CPUID // nil: SetAffinity never called
		any  bool
	}{
		{"never set", nil, true},
		{"empty set", []CPUID{}, true},
		{"one low id", []CPUID{5}, false},
		{"duplicates", []CPUID{1, 1, 64, 1, 64}, false},
		{"word edges", []CPUID{0, 63, 64, 127, 128}, false},
		{"vCPU pool", []CPUID{8, 9, 10, 11, 100, 101, 102, 103, 104, 105, 106, 107}, false},
		{"high id only", []CPUID{300}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, k := newTestKernel(1, 0)
			th := k.Spawn("w", computeProg(1, sim.Millisecond))
			if tc.set != nil {
				th.SetAffinity(tc.set...)
			}
			want := map[CPUID]bool{}
			for _, c := range tc.set {
				want[c] = true
			}
			for _, c := range probe {
				if got := th.AllowedOn(c); got != (tc.any || want[c]) {
					t.Errorf("AllowedOn(%d) = %v with affinity %v", c, got, tc.set)
				}
			}
		})
	}
}

func TestAffinityNegativeIDPanics(t *testing.T) {
	_, k := newTestKernel(1, 0)
	th := k.Spawn("w", computeProg(1, sim.Millisecond))
	defer func() {
		if recover() == nil {
			t.Fatal("SetAffinity(-1) did not panic")
		}
	}()
	th.SetAffinity(0, -1)
}

// IPI trace notes name the vector, and a send's note its destination;
// each is formatted once, and a delivery note never takes a send's slot.
func TestIPINotes(t *testing.T) {
	_, k := newTestKernel(1, 0)
	for _, tc := range []struct {
		vec  Vector
		dst  CPUID
		send bool
		want string
	}{
		{VecResched, 0, true, "vec=0 dst=0"},
		{VecResched, 0, false, "vec=0"},
		{VecUser, 107, true, "vec=3 dst=107"},
		{VecUser, 107, false, "vec=3"},
		{VecUser, 2, true, "vec=3 dst=2"},
		{VecCall, -1, true, "vec=1 dst=-1"},
		{VecResched, 0, true, "vec=0 dst=0"},
	} {
		if got := k.ipiNote(tc.vec, tc.dst, tc.send); got != tc.want {
			t.Errorf("ipiNote(%d, %d, %v) = %q, want %q", tc.vec, tc.dst, tc.send, got, tc.want)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { k.ipiNote(VecUser, 107, true) }); allocs != 0 {
		t.Fatalf("a formatted note allocates %v per ask, want 0", allocs)
	}
}

func TestVCPUFreezeThawPreservesWork(t *testing.T) {
	e, k := newTestKernel(0, 1)
	vc := k.CPU(0)
	vc.SetOnline(true)
	th := k.Spawn("guest", computeProg(1, 10*sim.Millisecond))
	vc.PowerOn()
	// Freeze after 3ms, thaw at 50ms.
	e.At(sim.Time(3*sim.Millisecond), func() { vc.PowerOff() })
	e.At(sim.Time(50*sim.Millisecond), func() { vc.PowerOn() })
	e.Run(sim.Time(100 * sim.Millisecond))
	if th.State() != StateDone {
		t.Fatalf("state %v", th.State())
	}
	if th.CPUTime != 10*sim.Millisecond {
		t.Fatalf("CPUTime = %v, want exactly 10ms", th.CPUTime)
	}
	// 3ms ran before freeze, 7ms after thaw at 50ms => finish ≥ 57ms.
	if th.FinishedAt < sim.Time(57*sim.Millisecond) {
		t.Fatalf("finished at %v; frozen time not excluded", th.FinishedAt)
	}
}

func TestVCPUFreezeInsideNonPreemptible(t *testing.T) {
	e, k := newTestKernel(0, 1)
	vc := k.CPU(0)
	vc.SetOnline(true)
	th := k.Spawn("guest", &SliceProgram{Segments: []Segment{
		{Kind: SegNonPreempt, Dur: 10 * sim.Millisecond, Note: "spinlockish"},
	}})
	vc.PowerOn()
	e.At(sim.Time(2*sim.Millisecond), func() {
		if !vc.InNonPreemptibleSection() {
			t.Error("expected non-preemptible section")
		}
		vc.PowerOff() // VM-exit works even here — the paper's key property
	})
	e.At(sim.Time(20*sim.Millisecond), func() { vc.PowerOn() })
	e.Run(sim.Time(100 * sim.Millisecond))
	if th.State() != StateDone || th.CPUTime != 10*sim.Millisecond {
		t.Fatalf("state=%v cpu=%v", th.State(), th.CPUTime)
	}
}

func TestFrozenLockHolderDetectedAsStuck(t *testing.T) {
	e, k := newTestKernel(1, 1)
	vc := k.CPU(1)
	vc.SetOnline(true)
	l := NewSpinLock("shared")
	holder := k.Spawn("holder", &SliceProgram{Segments: []Segment{
		{Kind: SegLock, Lock: l, Dur: 10 * sim.Millisecond},
	}}, 1)
	vc.PowerOn()
	// Freeze the vCPU mid-hold, then a pCPU thread spins on the lock.
	e.At(sim.Time(1*sim.Millisecond), func() { vc.PowerOff() })
	e.At(sim.Time(2*sim.Millisecond), func() {
		k.Spawn("spinner", &SliceProgram{Segments: []Segment{
			{Kind: SegLock, Lock: l, Dur: sim.Millisecond},
		}}, 0)
	})
	var stuck []StuckSpinner
	e.At(sim.Time(10*sim.Millisecond), func() { stuck = k.DetectStuckSpinners() })
	// Rescue: thaw the holder.
	e.At(sim.Time(15*sim.Millisecond), func() { vc.PowerOn() })
	e.Run(sim.Time(200 * sim.Millisecond))
	if len(stuck) != 1 || stuck[0].Owner != holder {
		t.Fatalf("stuck = %+v, want holder detected", stuck)
	}
	if l.Locked() {
		t.Fatal("lock leaked after thaw")
	}
	for _, th := range k.Threads() {
		if th.State() != StateDone {
			t.Fatalf("%s state %v; forward progress failed", th.Name, th.State())
		}
	}
}

func TestIPIDelivery(t *testing.T) {
	e, k := newTestKernel(2, 0)
	var deliveredAt sim.Time
	var deliveredOn CPUID = -1
	k.RegisterIPIHandler(VecUser, func(cpu CPUID, arg int64) {
		deliveredAt = e.Now()
		deliveredOn = cpu
		if arg != 42 {
			t.Errorf("arg = %d", arg)
		}
	})
	e.At(sim.Time(sim.Millisecond), func() { k.SendIPI(0, 1, VecUser, 42) })
	e.Run(sim.Time(10 * sim.Millisecond))
	if deliveredOn != 1 {
		t.Fatalf("delivered on cpu%d", deliveredOn)
	}
	wantAt := sim.Time(sim.Millisecond).Add(IPILatency)
	if deliveredAt != wantAt {
		t.Fatalf("delivered at %v, want %v", deliveredAt, wantAt)
	}
}

func TestIPIToUnpoweredCPUPosts(t *testing.T) {
	e, k := newTestKernel(0, 1)
	vc := k.CPU(0)
	vc.SetOnline(true)
	got := 0
	k.RegisterIPIHandler(VecUser, func(CPUID, int64) { got++ })
	k.SendIPI(-1, 0, VecUser, 0)
	e.Run(sim.Time(sim.Millisecond))
	if got != 0 {
		t.Fatal("IPI delivered to unpowered CPU")
	}
	if k.IPIsDeferred.Value() != 1 {
		t.Fatalf("IPIsDeferred = %d", k.IPIsDeferred.Value())
	}
	vc.PowerOn()
	e.Run(sim.Time(2 * sim.Millisecond))
	if got != 1 {
		t.Fatalf("posted IPI not drained on PowerOn; got %d", got)
	}
}

func TestIPIRouterInterception(t *testing.T) {
	e, k := newTestKernel(2, 0)
	intercepted := 0
	k.Router = func(src, dst CPUID, vec Vector, arg int64) bool {
		intercepted++
		return true // swallow
	}
	direct := 0
	k.RegisterIPIHandler(VecUser, func(CPUID, int64) { direct++ })
	k.SendIPI(0, 1, VecUser, 0)
	e.Run(sim.Time(sim.Millisecond))
	if intercepted != 1 || direct != 0 {
		t.Fatalf("intercepted=%d direct=%d", intercepted, direct)
	}
}

func TestSoftirq(t *testing.T) {
	e, k := newTestKernel(1, 0)
	var ranOn CPUID = -1
	k.RegisterSoftirq(VecUser, func(cpu CPUID) { ranOn = cpu })
	k.RaiseSoftirq(0, VecUser)
	e.Run(sim.Time(sim.Millisecond))
	if ranOn != 0 {
		t.Fatalf("softirq ran on %d", ranOn)
	}
}

// Softirqs run one softirqLatency after they are raised, in raise order,
// each on its own CPU with its own vector, also when the pending ring
// wraps and grows.
func TestSoftirqsRunInRaiseOrder(t *testing.T) {
	e, k := newTestKernel(2, 0)
	type run struct {
		cpu CPUID
		vec Vector
		at  sim.Time
	}
	var got []run
	for _, vec := range []Vector{VecUser, VecUser + 1} {
		vec := vec
		k.RegisterSoftirq(vec, func(cpu CPUID) { got = append(got, run{cpu, vec, e.Now()}) })
	}
	var want []run
	lat := softirqLatency
	for i := 0; i < 40; i++ {
		cpu, vec := CPUID(i%2), VecUser+Vector(i/3%2)
		k.RaiseSoftirq(cpu, vec)
		want = append(want, run{cpu, vec, e.Now().Add(lat)})
		if i%7 == 6 {
			e.Run(e.Now().Add(lat / 2)) // let some raises overlap, not all
		}
	}
	e.Run(e.Now().Add(sim.Millisecond))
	if len(got) != len(want) {
		t.Fatalf("ran %d softirqs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("softirq %d ran as %+v, want %+v", i, got[i], want[i])
		}
	}
}

// Once the pending ring has grown, raising and running a softirq
// allocates nothing.
func TestRaiseSoftirqAllocFree(t *testing.T) {
	e, k := newTestKernel(1, 0)
	ran := 0
	k.RegisterSoftirq(VecUser, func(CPUID) { ran++ })
	cycle := func() {
		k.RaiseSoftirq(0, VecUser)
		k.RaiseSoftirq(0, VecUser)
		e.Run(e.Now().Add(sim.Microsecond))
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("raise+run of two softirqs allocates %v, want 0", allocs)
	}
	if ran != 2*102 {
		t.Fatalf("ran %d softirqs, want %d", ran, 2*102)
	}
}

func TestLoopProgramBudget(t *testing.T) {
	e, k := newTestKernel(1, 0)
	p := &LoopProgram{
		Total: 10 * sim.Millisecond,
		Gen: func(sim.Duration) Segment {
			return Segment{Kind: SegCompute, Dur: 3 * sim.Millisecond}
		},
	}
	th := k.Spawn("loop", p)
	e.Run(sim.Time(100 * sim.Millisecond))
	if th.State() != StateDone {
		t.Fatalf("state %v", th.State())
	}
	if th.CPUTime != 10*sim.Millisecond {
		t.Fatalf("CPUTime = %v, want exactly the 10ms budget", th.CPUTime)
	}
}

func TestOnEnqueueHookFires(t *testing.T) {
	e, k := newTestKernel(1, 0)
	hooks := 0
	k.OnEnqueue = func(*Thread) { hooks++ }
	k.Spawn("w", computeProg(1, sim.Millisecond))
	e.Run(sim.Time(10 * sim.Millisecond))
	if hooks == 0 {
		t.Fatal("OnEnqueue never fired")
	}
}

func TestTraceRecordsNonPreemptible(t *testing.T) {
	e, k := newTestKernel(1, 0)
	k.Spawn("np", &SliceProgram{Segments: []Segment{
		{Kind: SegNonPreempt, Dur: 2 * sim.Millisecond, Note: "drv"},
	}})
	e.Run(sim.Time(10 * sim.Millisecond))
	census := k.Tracer().NonPreemptibleCensus()
	if census.Count() != 1 {
		t.Fatalf("census count = %d", census.Count())
	}
	if m := census.Mean(); m < sim.Duration(float64(2*sim.Millisecond)*0.9) {
		t.Fatalf("census mean = %v, want ~2ms", m)
	}
}

func TestThreadTurnaround(t *testing.T) {
	e, k := newTestKernel(1, 0)
	th := k.Spawn("w", computeProg(1, 5*sim.Millisecond))
	e.Run(sim.Time(100 * sim.Millisecond))
	ta := th.Turnaround()
	if ta < 5*sim.Millisecond || ta > 6*sim.Millisecond {
		t.Fatalf("turnaround = %v, want ~5ms", ta)
	}
}

func TestWeightedFairShare(t *testing.T) {
	e, k := newTestKernel(1, 0)
	heavy := k.Spawn("heavy", computeProg(100, sim.Millisecond))
	light := k.Spawn("light", computeProg(100, sim.Millisecond))
	heavy.SetWeight(3)
	e.Run(sim.Time(60 * sim.Millisecond))
	// With a 3:1 weight the heavy thread should have ~3x the CPU time.
	ratio := float64(heavy.CPUTime) / float64(light.CPUTime)
	if ratio < 2.0 || ratio > 4.5 {
		t.Fatalf("weighted share ratio %.2f, want ~3", ratio)
	}
}

func TestWeightClamp(t *testing.T) {
	_, k := newTestKernel(1, 0)
	th := k.Spawn("w", computeProg(1, sim.Millisecond))
	th.SetWeight(-5)
	if th.Weight() != 1 {
		t.Fatalf("weight %d, want clamp to 1", th.Weight())
	}
	th.SetWeight(4)
	if th.Weight() != 4 {
		t.Fatal("SetWeight")
	}
}
