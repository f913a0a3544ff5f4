package core

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/controlplane"
	"repro/internal/kernel"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/vcpu"
)

func newTaiChi(seed int64, mut func(*platform.Options, *Config)) *TaiChi {
	opts := platform.DefaultOptions()
	opts.Seed = seed
	cfg := DefaultConfig()
	if mut != nil {
		mut(&opts, &cfg)
	}
	return New(platform.NewNode(opts), cfg)
}

func TestVCPUsRegisteredAsNativeCPUs(t *testing.T) {
	tc := newTaiChi(1, nil)
	tc.Run(sim.Time(sim.Millisecond))
	online := 0
	for _, c := range tc.Node.Kernel.CPUs() {
		if c.Virtual && c.Online() {
			online++
		}
	}
	if online != tc.Cfg.VCPUs {
		t.Fatalf("%d vCPUs online, want %d", online, tc.Cfg.VCPUs)
	}
}

func TestCPTaskRunsOnIdleDPCores(t *testing.T) {
	tc := newTaiChi(2, nil)
	// Saturate the CP pCPUs with long tasks, then add one more task: with
	// idle DP cores lent out, it must finish far sooner than waiting for
	// a CP core.
	for i := 0; i < 4; i++ {
		tc.SpawnCP("hog", &kernel.SliceProgram{Segments: []kernel.Segment{
			{Kind: kernel.SegCompute, Dur: 100 * sim.Millisecond},
		}})
	}
	extra := tc.SpawnCP("extra", &kernel.SliceProgram{Segments: []kernel.Segment{
		{Kind: kernel.SegCompute, Dur: 10 * sim.Millisecond},
	}})
	tc.Run(sim.Time(500 * sim.Millisecond))
	if extra.State() != kernel.StateDone {
		t.Fatalf("extra task state %v", extra.State())
	}
	// On an idle DP core it runs nearly immediately; without vCPUs it
	// would wait behind a 100ms hog (fair-share ≥ 50ms).
	if extra.FinishedAt > sim.Time(30*sim.Millisecond) {
		t.Fatalf("extra finished at %v; DP cores not exploited", extra.FinishedAt)
	}
	if tc.Sched.Yields.Value() == 0 {
		t.Fatal("no DP-to-CP yields recorded")
	}
}

func TestAllTasksCompleteAndConserveCPUTime(t *testing.T) {
	tc := newTaiChi(3, nil)
	var tasks []*kernel.Thread
	for i := 0; i < 16; i++ {
		tasks = append(tasks, tc.SpawnCP("synth",
			controlplane.SynthCP(controlplane.DefaultSynthCP(), tc.Stream("synth"))))
	}
	tc.Run(sim.Time(2 * sim.Second))
	for _, th := range tasks {
		if th.State() != kernel.StateDone {
			t.Fatalf("%s not done (state %v, cpu %v)", th.Name, th.State(), th.CPUTime)
		}
		if th.CPUTime < 50*sim.Millisecond {
			t.Fatalf("task undercharged: %v", th.CPUTime)
		}
	}
}

// spawnHogs saturates the CP pCPUs and spills extra hogs onto vCPUs.
func spawnHogs(tc *TaiChi, n int) {
	for i := 0; i < n; i++ {
		tc.SpawnCP("hog", &kernel.SliceProgram{Segments: []kernel.Segment{
			{Kind: kernel.SegCompute, Dur: sim.Duration(10 * sim.Second)},
		}})
	}
}

// findVStateCore returns a net DP core currently lent to a vCPU, or nil.
func findVStateCore(tc *TaiChi) *int {
	for _, c := range tc.Node.DPCores() {
		if c.State().String() == "yielded" {
			id := c.ID
			return &id
		}
	}
	return nil
}

func TestProbePreemptionRestoresDPQuickly(t *testing.T) {
	tc := newTaiChi(4, nil)
	// Oversubscribe CP so hogs spill onto vCPUs hosted by DP cores.
	spawnHogs(tc, 8)
	tc.Run(sim.Time(10 * sim.Millisecond)) // let it settle into V-state
	cid := findVStateCore(tc)
	if cid == nil {
		t.Fatal("no DP core in V-state after settling")
	}
	core0 := tc.Node.DPCore(*cid)
	if tc.Node.Probe.State(core0.ID) != accel.VState {
		t.Fatalf("core %d yielded but probe says %v", core0.ID, tc.Node.Probe.State(core0.ID))
	}
	// Inject a packet for that core and measure completion latency.
	var doneAt sim.Time
	start := tc.Node.Now()
	tc.Node.Pipe.Inject(&accel.Packet{Core: core0.ID, Work: sim.Microsecond,
		Done: func(_ *accel.Packet, at sim.Time) { doneAt = at }})
	tc.Run(start.Add(sim.Duration(sim.Millisecond)))
	if doneAt == 0 {
		t.Fatal("packet never processed")
	}
	lat := doneAt.Sub(start)
	// Pipeline floor: 3.2µs + 1µs work = 4.2µs. The 2µs exit overlaps the
	// window, so the total must stay close to the floor.
	if lat > 6*sim.Microsecond {
		t.Fatalf("probe-preempted packet latency %v, want ≤6µs", lat)
	}
	if tc.Sched.Preempts.Value() == 0 {
		t.Fatal("no preempts recorded")
	}
}

func TestWithoutProbeLatencyBoundedBySlice(t *testing.T) {
	tc := newTaiChi(5, func(o *platform.Options, c *Config) {
		o.HWProbe = false
		c.MaxSlice = 100 * sim.Microsecond
	})
	spawnHogs(tc, 8)
	tc.Run(sim.Time(10 * sim.Millisecond))
	cid := findVStateCore(tc)
	if cid == nil {
		t.Fatal("no DP core yielded")
	}
	core0 := tc.Node.DPCore(*cid)
	var doneAt sim.Time
	start := tc.Node.Now()
	tc.Node.Pipe.Inject(&accel.Packet{Core: core0.ID, Work: sim.Microsecond,
		Done: func(_ *accel.Packet, at sim.Time) { doneAt = at }})
	tc.Run(start.Add(sim.Duration(5 * sim.Millisecond)))
	if doneAt == 0 {
		t.Fatal("packet never processed without probe")
	}
	lat := doneAt.Sub(start)
	if lat <= 6*sim.Microsecond {
		t.Fatalf("latency %v suspiciously low without probe", lat)
	}
	// Bounded by max slice + exit cost + work + pipeline.
	if lat > 120*sim.Microsecond {
		t.Fatalf("latency %v exceeds slice bound", lat)
	}
}

func TestAdaptiveSliceGrowsOnIdle(t *testing.T) {
	tc := newTaiChi(6, nil)
	spawnHogs(tc, 8)
	tc.Run(sim.Time(20 * sim.Millisecond))
	grew := false
	for _, slot := range tc.Sched.slots {
		if slot.slice > tc.Cfg.InitialSlice {
			grew = true
		}
		if slot.slice > tc.Cfg.MaxSlice {
			t.Fatalf("slice %v exceeds cap", slot.slice)
		}
	}
	if !grew {
		t.Fatal("no slice grew despite sustained idleness")
	}
	if tc.Sched.SWProbe().Drops == 0 {
		t.Fatal("yield threshold never dropped despite sustained idleness")
	}
}

func TestAdaptiveYieldRaisesOnFalsePositive(t *testing.T) {
	tc := newTaiChi(7, nil)
	spawnHogs(tc, 8)
	tc.Run(sim.Time(5 * sim.Millisecond))
	cid := findVStateCore(tc)
	if cid == nil {
		t.Fatal("no yielded core")
	}
	coreID := *cid
	before := tc.Sched.SWProbe().Threshold(coreID)
	// Hammer the core with packets to force probe preemptions. The yields
	// in between keep getting punished as false positives.
	for i := 0; i < 40; i++ {
		at := tc.Node.Now().Add(sim.Duration(i) * 200 * sim.Microsecond)
		tc.Node.Engine.At(at, func() {
			tc.Node.Pipe.Inject(&accel.Packet{Core: coreID, Work: sim.Microsecond})
		})
	}
	tc.Run(tc.Node.Now().Add(sim.Duration(20 * sim.Millisecond)))
	after := tc.Sched.SWProbe().Threshold(coreID)
	if after <= before {
		t.Fatalf("threshold %d → %d; no adaptation to false positives", before, after)
	}
}

func TestLockRescueKeepsForwardProgress(t *testing.T) {
	tc := newTaiChi(8, nil)
	lock := tc.DriverLock
	// Many lock-hungry tasks across vCPUs and pCPUs; packets force
	// preemptions mid-hold.
	cfg := controlplane.DefaultSynthCP()
	cfg.Total = 20 * sim.Millisecond
	cfg.NonPreemptFrac = 0.5
	cfg.Lock = lock
	var tasks []*kernel.Thread
	for i := 0; i < 10; i++ {
		tasks = append(tasks, tc.SpawnCP("locker", controlplane.SynthCP(cfg, tc.Stream("locker"))))
	}
	// Background packet stream to trigger probe preemptions.
	r := tc.Stream("pkts")
	var pump func()
	pump = func() {
		tc.Node.InjectNet(r.Intn(64), sim.Microsecond, nil)
		tc.Node.Engine.Schedule(sim.Exponential(r, 50*sim.Microsecond), pump)
	}
	tc.Node.Engine.Schedule(1, pump)

	stuckChecks := 0
	tc.Node.Engine.NewTicker(sim.Millisecond, func() {
		if st := tc.Node.Kernel.DetectStuckSpinners(); len(st) > 0 {
			stuckChecks++
		}
	})
	tc.Run(sim.Time(3 * sim.Second))
	for _, th := range tasks {
		if th.State() != kernel.StateDone {
			t.Fatalf("%s stuck in state %v (CPUTime %v); lock rescue failed", th.Name, th.State(), th.CPUTime)
		}
	}
	if lock.Locked() {
		t.Fatal("driver lock leaked")
	}
	// Transient stuck observations are tolerable; persistent ones are not.
	if stuckChecks > 100 {
		t.Fatalf("spinners observed stuck on %d ms-ticks", stuckChecks)
	}
}

func TestDetachMigratesPreemptibleThreads(t *testing.T) {
	tc := newTaiChi(9, nil)
	// One long task: starts on some CPU (likely a vCPU via DP idle).
	th := tc.SpawnCP("roamer", &kernel.SliceProgram{Segments: []kernel.Segment{
		{Kind: kernel.SegCompute, Dur: 30 * sim.Millisecond},
	}})
	// Packet storm evicts vCPUs constantly; the thread must keep moving.
	r := tc.Stream("storm")
	var pump func()
	pump = func() {
		for f := 0; f < 8; f++ {
			tc.Node.InjectNet(f, 2*sim.Microsecond, nil)
		}
		tc.Node.Engine.Schedule(sim.Exponential(r, 30*sim.Microsecond), pump)
	}
	tc.Node.Engine.Schedule(1, pump)
	tc.Run(sim.Time(500 * sim.Millisecond))
	if th.State() != kernel.StateDone {
		t.Fatalf("roamer state %v, CPUTime %v", th.State(), th.CPUTime)
	}
	if th.CPUTime != 30*sim.Millisecond {
		t.Fatalf("CPUTime %v, want exactly 30ms", th.CPUTime)
	}
}

func TestIPIBetweenPCPUAndVCPU(t *testing.T) {
	tc := newTaiChi(10, nil)
	tc.Run(sim.Time(sim.Millisecond)) // boot vCPUs
	k := tc.Node.Kernel
	got := 0
	k.RegisterIPIHandler(kernel.VecUser+1, func(cpu kernel.CPUID, arg int64) { got++ })
	// pCPU → vCPU (halted: must wake + post) and pCPU → pCPU.
	vid := tc.Sched.VCPUIDs()[0]
	k.SendIPI(8, vid, kernel.VecUser+1, 1)
	k.SendIPI(8, 9, kernel.VecUser+1, 2)
	tc.Run(tc.Node.Now().Add(sim.Duration(5 * sim.Millisecond)))
	if got < 1 {
		t.Fatalf("IPIs delivered: %d", got)
	}
	if tc.Sched.Orchestrator().Routed == 0 {
		t.Fatal("orchestrator did not route")
	}
}

func TestDeviceInitJobCompletesViaNativeIPC(t *testing.T) {
	tc := newTaiChi(11, nil)
	coord := NewNetCoordinator(tc.Node)
	done := false
	prog := controlplane.DeviceInitJob(controlplane.DefaultVMDevices(), nil, tc.DriverLock,
		coord, tc.Stream("dev"), nil, nil, func() { done = true })
	th := tc.SpawnCP("devinit", prog)
	tc.Run(sim.Time(sim.Second))
	if !done || th.State() != kernel.StateDone {
		t.Fatalf("device init incomplete: done=%v state=%v", done, th.State())
	}
	// 5 devices × ~2ms driver work each plus coordination: tens of ms max.
	if th.FinishedAt > sim.Time(100*sim.Millisecond) {
		t.Fatalf("device init took %v", th.FinishedAt)
	}
}

func TestNaiveModeSuffersMsScaleSpikes(t *testing.T) {
	mk := func(naive bool) sim.Duration {
		tc := newTaiChi(12, func(o *platform.Options, c *Config) {
			c.NaiveCoSchedule = naive
			// Long NP sections would trip lock-rescue hosting; keep the
			// comparison about preemption latency on the measured core.
			c.LockRescue = false
		})
		// CP tasks alternating 3ms non-preemptible driver routines with
		// short preemptible syscalls (the Figure 4 shape); enough of them
		// to spill onto vCPUs hosted by DP cores.
		for i := 0; i < 8; i++ {
			step := 0
			tc.SpawnCP("np", kernel.ProgramFunc(func(*kernel.Thread) (kernel.Segment, bool) {
				step++
				if step%2 == 1 {
					return kernel.Segment{Kind: kernel.SegNonPreempt, Dur: 3 * sim.Millisecond, Note: "drv"}, true
				}
				return kernel.Segment{Kind: kernel.SegSyscall, Dur: 100 * sim.Microsecond}, true
			}))
		}
		tc.Run(sim.Time(10 * sim.Millisecond))
		var worst sim.Duration
		for i := 0; i < 20; i++ {
			cid := findVStateCore(tc)
			if cid == nil {
				tc.Run(tc.Node.Now().Add(sim.Duration(sim.Millisecond)))
				continue
			}
			var doneAt sim.Time
			start := tc.Node.Now()
			tc.Node.Pipe.Inject(&accel.Packet{Core: *cid, Work: sim.Microsecond,
				Done: func(_ *accel.Packet, at sim.Time) { doneAt = at }})
			tc.Run(start.Add(sim.Duration(20 * sim.Millisecond)))
			if doneAt == 0 {
				continue
			}
			if lat := doneAt.Sub(start); lat > worst {
				worst = lat
			}
			tc.Run(tc.Node.Now().Add(sim.Duration(2 * sim.Millisecond)))
		}
		return worst
	}
	naive := mk(true)
	taichi := mk(false)
	if naive < 500*sim.Microsecond {
		t.Fatalf("naive co-scheduling worst latency %v; expected ms-scale spikes", naive)
	}
	if taichi > 50*sim.Microsecond {
		t.Fatalf("Tai Chi worst latency %v; expected µs-scale", taichi)
	}
}

func TestHaltedVCPUsDontChurn(t *testing.T) {
	tc := newTaiChi(13, nil)
	// No CP work at all: vCPUs must not be entered/exited in a loop.
	tc.Run(sim.Time(100 * sim.Millisecond))
	var entries uint64
	for _, v := range tc.Sched.VCPUs() {
		entries += v.Entries
	}
	if entries > 20 {
		t.Fatalf("%d VM-entries with zero CP work; idle churn", entries)
	}
	_ = vcpu.StateHalted
}

// Once warm, lending idle DP cores to vCPUs and reclaiming them allocates
// nothing: the scheduler's exit callback, the vCPU's entry and exit
// events, the kernel's run, tick and softirq events and the segment a
// thread resumes are all bound or buffered once.
func TestLendCycleAllocFree(t *testing.T) {
	tc := newTaiChi(2, nil)
	for i := 0; i < 12; i++ {
		tc.SpawnCP("hog", &kernel.LoopProgram{Total: 10 * sim.Second, Gen: func(sim.Duration) kernel.Segment {
			return kernel.Segment{Kind: kernel.SegCompute, Dur: 200 * sim.Microsecond}
		}})
	}
	tc.Run(sim.Time(50 * sim.Millisecond))
	entries := func() (n uint64) {
		for _, v := range tc.Sched.VCPUs() {
			n += v.Entries
		}
		return n
	}
	before := entries()
	allocs := testing.AllocsPerRun(20, func() { tc.Run(tc.Engine().Now().Add(sim.Millisecond)) })
	if lends := entries() - before; lends < 21*10 {
		t.Fatalf("%d lends in 21 ms, want a steady lend/reclaim cycle", lends)
	}
	if allocs != 0 {
		t.Fatalf("lend/reclaim cycles allocate %v per simulated ms, want 0", allocs)
	}
}
