// Package controlplane models the SmartNIC's control-plane task ecosystem
// (§2.3): device-management jobs that gate VM startup, performance
// monitors, and the synth_cp stress benchmark of §6.1. Tasks are kernel thread programs whose segment mix reproduces
// the production characteristics of §3.2 — frequent syscalls and
// millisecond-scale non-preemptible routines (94.5% of the >1 ms ones in
// 1-5 ms, max 67 ms; Figure 5).
package controlplane

import (
	"math/rand"

	"repro/internal/dist"
	"repro/internal/kernel"
	"repro/internal/sim"
)

// NonPreemptibleDurations returns the Figure 5-calibrated distribution of
// long non-preemptible routine durations: of sections exceeding 1 ms,
// 94.5% last 1-5 ms and the tail reaches 67 ms.
func NonPreemptibleDurations() *dist.Empirical {
	return dist.NewEmpirical([]dist.Bucket{
		{Lo: 1 * sim.Millisecond, Hi: 5 * sim.Millisecond, Weight: 94.5},
		{Lo: 5 * sim.Millisecond, Hi: 10 * sim.Millisecond, Weight: 3.4},
		{Lo: 10 * sim.Millisecond, Hi: 20 * sim.Millisecond, Weight: 1.2},
		{Lo: 20 * sim.Millisecond, Hi: 40 * sim.Millisecond, Weight: 0.6},
		{Lo: 40 * sim.Millisecond, Hi: 67 * sim.Millisecond, Weight: 0.3},
	})
}

// SynthCPConfig parameterizes the synth_cp benchmark task.
type SynthCPConfig struct {
	// Total is the task's CPU-time demand (the paper tunes it to 50 ms).
	Total sim.Duration
	// NonPreemptFrac is the fraction of iterations entering a long
	// non-preemptible routine (lock-protected driver work).
	NonPreemptFrac float64
	// Lock, when non-nil, serializes the non-preemptible routines the way
	// a shared driver lock does in production.
	Lock *kernel.SpinLock
}

// synthComputeMean / synthSyscallMean size synth_cp's alternating
// user/kernel phases.
const (
	synthComputeMean = 400 * sim.Microsecond
	synthSyscallMean = 150 * sim.Microsecond
)

// DefaultSynthCP mirrors §6.1: 50 ms tasks emulating classic CP tasks
// that access non-preemptible kernel routines.
func DefaultSynthCP() SynthCPConfig {
	return SynthCPConfig{
		Total:          50 * sim.Millisecond,
		NonPreemptFrac: 0.04,
	}
}

// SynthCP builds one synth_cp task program. r must be a dedicated stream.
func SynthCP(cfg SynthCPConfig, r *rand.Rand) kernel.Program {
	npDist := NonPreemptibleDurations()
	step := 0
	return &kernel.LoopProgram{
		Total: cfg.Total,
		Gen: func(remaining sim.Duration) kernel.Segment {
			step++
			if step%2 == 0 {
				if r.Float64() < cfg.NonPreemptFrac {
					d := npDist.Sample(r)
					if cfg.Lock != nil {
						return kernel.Segment{Kind: kernel.SegLock, Lock: cfg.Lock, Dur: d, Note: "drv"}
					}
					return kernel.Segment{Kind: kernel.SegNonPreempt, Dur: d, Note: "drv"}
				}
				return kernel.Segment{Kind: kernel.SegSyscall, Dur: sim.Exponential(r, synthSyscallMean)}
			}
			return kernel.Segment{Kind: kernel.SegCompute, Dur: sim.Exponential(r, synthComputeMean)}
		},
	}
}

// DPCoordinator abstracts how a CP task asks a data-plane service to apply
// a device-configuration operation and waits for the acknowledgment. The
// Tai Chi and static configurations use native IPC (shared memory + IPI,
// near-zero framework latency); the type-2 baseline replaces it with an
// RPC hop whose round-trip cost models virtio-serial/vsock marshalling.
type DPCoordinator interface {
	// ConfigureDevice asks the data plane to initialize one emulated
	// device queue; done reports the outcome once the DP core has
	// answered. done(false) is a provisioning NACK or a breaker
	// rejection; done may never fire at all when the op is lost in
	// transit (coordinator timeout) — the request layer's attempt
	// deadline is the backstop for that case. Native IPC and RPC
	// coordinators always report true.
	ConfigureDevice(flow int, done func(ok bool))
}

// DeviceSpec describes one emulated device to provision for a VM.
type DeviceSpec struct {
	// Queues is the number of DP-side queue configurations required.
	Queues int
	// DriverWork is the per-device non-preemptible driver initialization
	// time (lock-protected).
	DriverWork sim.Duration
	// SetupWork is the preemptible kernel work (sysfs, allocation).
	SetupWork sim.Duration
}

// DefaultVMDevices mirrors Table 4's VM shape: one dual-queue virtio-net
// NIC and four virtio-blk devices.
func DefaultVMDevices() []DeviceSpec {
	devs := []DeviceSpec{{Queues: 2, DriverWork: 1500 * sim.Microsecond, SetupWork: 12 * sim.Millisecond}}
	for i := 0; i < 4; i++ {
		devs = append(devs, DeviceSpec{Queues: 1, DriverWork: 1200 * sim.Microsecond, SetupWork: 12 * sim.Millisecond})
	}
	return devs
}

// DeviceInitJob builds the device-management program that provisions all
// devices for one VM (Figure 1c red path, steps 2-4): parse the request,
// then per device take the driver lock for its non-preemptible init,
// coordinate the DP service per queue, and finish with bookkeeping
// syscalls. onDevice (optional) fires as each device finishes its queue
// configuration — the moment the inventory can mark it Active; onComplete
// fires when every device is ready — the moment CP notifies QEMU to
// instantiate the VM.
//
// skip and onFail serve retry attempts. skip[i], when non-nil, marks
// devices that already reached Active in a previous attempt: re-issuing
// their configuration is a no-op, so the resumed job replaces their full
// init sequence with a single cheap verification syscall (idempotent
// re-provisioning). onFail, when non-nil, fires if a DP configure op is
// NACKed or rejected; the program abandons its remaining segments so the
// attempt fails fast instead of provisioning against a refusing data
// plane.
func DeviceInitJob(devices []DeviceSpec, skip []bool, lock *kernel.SpinLock, coord DPCoordinator, r *rand.Rand,
	onDevice func(i int), onFail func(i int), onComplete func()) kernel.Program {
	prog := &SliceProgramWithThread{}
	var segs []kernel.Segment
	// Step 2: parse the cluster manager's instruction.
	segs = append(segs, kernel.Segment{Kind: kernel.SegCompute, Dur: sim.Jitter(r, 300*sim.Microsecond, 0.2), Note: "parse"})
	for di, dev := range devices {
		di := di
		if di < len(skip) && skip[di] {
			// Already Active from a previous attempt: verify and move on.
			segs = append(segs, kernel.Segment{Kind: kernel.SegSyscall, Dur: 15 * sim.Microsecond, Note: "verify_active"})
			continue
		}
		// Preemptible kernel setup (allocations, sysfs plumbing).
		segs = append(segs, kernel.Segment{Kind: kernel.SegSyscall, Dur: sim.Jitter(r, dev.SetupWork, 0.2), Note: "setup"})
		// Driver init under the shared driver lock — the non-preemptible
		// routine of Figure 4.
		segs = append(segs, kernel.Segment{Kind: kernel.SegLock, Lock: lock, Dur: sim.Jitter(r, dev.DriverWork, 0.2), Note: "drv_init"})
		// Coordinate the data plane per queue: issue the op, then wait
		// for its ack (native IPC or RPC depending on the coordinator).
		for q := 0; q < dev.Queues; q++ {
			flow := di*8 + q
			issue := kernel.Segment{Kind: kernel.SegSyscall, Dur: 30 * sim.Microsecond, Note: "dp_issue"}
			issue.OnDone = func() {
				t := prog.Thread
				coord.ConfigureDevice(flow, func(ok bool) {
					if !ok {
						prog.Abandon()
						if onFail != nil {
							onFail(di)
						}
					}
					if t != nil {
						t.Signal()
					}
				})
			}
			segs = append(segs, issue, kernel.Segment{Kind: kernel.SegWait, Note: "dp_ack"})
		}
		if onDevice != nil {
			segs = append(segs, kernel.Segment{Kind: kernel.SegSyscall, Dur: 20 * sim.Microsecond, Note: "dev_ready",
				OnDone: func() { onDevice(di) }})
		}
	}
	// Final bookkeeping before notifying QEMU (step 5).
	segs = append(segs, kernel.Segment{Kind: kernel.SegSyscall, Dur: sim.Jitter(r, 200*sim.Microsecond, 0.2), Note: "commit",
		OnDone: onComplete})
	prog.Segments = segs
	return prog
}

// DeviceDeinitJob builds the teardown counterpart for VM destruction
// (§2.3: device management covers both creation and destruction): per
// device a driver-lock-protected deinit and a DP queue release, roughly a
// third of the provisioning cost. onDevice fires per device torn down.
// The release's outcome is ignored: a rejected release must not wedge
// the deinit workflow.
func DeviceDeinitJob(devices []DeviceSpec, lock *kernel.SpinLock, coord DPCoordinator, r *rand.Rand,
	onDevice func(i int), onComplete func()) kernel.Program {
	prog := &SliceProgramWithThread{}
	var segs []kernel.Segment
	for di, dev := range devices {
		di := di
		segs = append(segs, kernel.Segment{Kind: kernel.SegSyscall, Dur: sim.Jitter(r, dev.SetupWork/3, 0.2), Note: "teardown"})
		segs = append(segs, kernel.Segment{Kind: kernel.SegLock, Lock: lock, Dur: sim.Jitter(r, dev.DriverWork/3, 0.2), Note: "drv_deinit"})
		// One DP op releases all the device's queues.
		issue := kernel.Segment{Kind: kernel.SegSyscall, Dur: 20 * sim.Microsecond, Note: "dp_release"}
		issue.OnDone = func() {
			t := prog.Thread
			coord.ConfigureDevice(di*8, func(bool) {
				if t != nil {
					t.Signal()
				}
			})
		}
		segs = append(segs, issue, kernel.Segment{Kind: kernel.SegWait, Note: "dp_release_ack"})
		if onDevice != nil {
			segs = append(segs, kernel.Segment{Kind: kernel.SegSyscall, Dur: 10 * sim.Microsecond, Note: "dev_gone",
				OnDone: func() { onDevice(di) }})
		}
	}
	segs = append(segs, kernel.Segment{Kind: kernel.SegSyscall, Dur: sim.Jitter(r, 100*sim.Microsecond, 0.2), Note: "deinit_commit",
		OnDone: onComplete})
	prog.Segments = segs
	return prog
}

// SliceProgramWithThread is a SliceProgram that records the executing
// thread, so OnDone closures created before the thread exists can reach
// it (needed for IPC reply Signal routing).
type SliceProgramWithThread struct {
	Segments []kernel.Segment
	pos      int
	Thread   *kernel.Thread

	abandoned bool
}

// Abandon makes the program report completion at the next segment
// boundary, dropping its remaining segments (and their OnDone hooks).
// The failure paths use it to end an attempt early without tearing the
// thread down mid-segment.
func (p *SliceProgramWithThread) Abandon() { p.abandoned = true }

// Next implements kernel.Program.
func (p *SliceProgramWithThread) Next(t *kernel.Thread) (kernel.Segment, bool) {
	p.Thread = t
	if p.abandoned || p.pos >= len(p.Segments) {
		return kernel.Segment{}, false
	}
	s := p.Segments[p.pos]
	p.pos++
	return s, true
}

// A monitor is a periodic performance-monitoring task: metric scraping
// plus a log flush every 100 ms.
const (
	monitorPeriod      = 100 * sim.Millisecond
	monitorComputeWork = 300 * sim.Microsecond
	monitorSyscallWork = 200 * sim.Microsecond
	// monitorNonPreemptEvery makes one in N flushes take a long
	// non-preemptible logging path.
	monitorNonPreemptEvery = 25
)

// Monitor builds an endless periodic monitoring program.
func Monitor(r *rand.Rand) kernel.Program {
	npDist := NonPreemptibleDurations()
	iter := 0
	phase := 0
	return kernel.ProgramFunc(func(*kernel.Thread) (kernel.Segment, bool) {
		phase++
		switch phase % 3 {
		case 1:
			return kernel.Segment{Kind: kernel.SegSleep, Dur: sim.Jitter(r, monitorPeriod, 0.1)}, true
		case 2:
			return kernel.Segment{Kind: kernel.SegCompute, Dur: sim.Jitter(r, monitorComputeWork, 0.3)}, true
		default:
			iter++
			if iter%monitorNonPreemptEvery == 0 {
				return kernel.Segment{Kind: kernel.SegNonPreempt, Dur: npDist.Sample(r), Note: "log_flush"}, true
			}
			return kernel.Segment{Kind: kernel.SegSyscall, Dur: sim.Jitter(r, monitorSyscallWork, 0.3)}, true
		}
	})
}
