package faults

import (
	"math/rand"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vcpu"
)

// Injector wires a Spec into an assembled Tai Chi node. Each fault class
// draws from its own named RNG stream (derived from the node's seed), so
// enabling one class never perturbs another's sequence and a given
// (seed, spec) pair replays bit-for-bit.
//
// Attaching a zero Spec is a complete no-op: no hooks installed, no
// events scheduled, no streams created — the node's behaviour stays
// byte-identical to an injector-free run (enforced by regression test).
type Injector struct {
	// Spec is the fault profile; fixed at construction.
	Spec Spec
	// Counts tallies injected faults per class, in a deterministic
	// registration order: probe-miss, spurious, ipi-drop, ipi-delay,
	// exit-stall, lock-stall, offline, cp-crash, cp-hang, nack,
	// partial-init, coord-timeout.
	Counts *metrics.Group

	tc       *core.TaiChi
	attached bool
	stopped  bool
	cpRNG    *rand.Rand

	probeMiss, spurious, ipiDrop, ipiDelay *metrics.Counter
	exitStall, lockStall, offline          *metrics.Counter
	cpCrash, cpHang                        *metrics.Counter
	nack, partialInit, coordTimeout        *metrics.Counter
}

// NewInjector builds an injector for the given spec. Intensity means
// left zero default to the DefaultSpec values for any armed class.
func NewInjector(spec Spec) *Injector {
	spec.applyMeanDefaults()
	g := metrics.NewGroup("faults")
	return &Injector{
		Spec:         spec,
		Counts:       g,
		probeMiss:    g.Counter("probe-miss"),
		spurious:     g.Counter("spurious"),
		ipiDrop:      g.Counter("ipi-drop"),
		ipiDelay:     g.Counter("ipi-delay"),
		exitStall:    g.Counter("exit-stall"),
		lockStall:    g.Counter("lock-stall"),
		offline:      g.Counter("offline"),
		cpCrash:      g.Counter("cp-crash"),
		cpHang:       g.Counter("cp-hang"),
		nack:         g.Counter("nack"),
		partialInit:  g.Counter("partial-init"),
		coordTimeout: g.Counter("coord-timeout"),
	}
}

// Attach installs the armed fault classes into the node's component
// hooks and enables the scheduler's defense machinery. Idempotent; a
// zero spec attaches nothing and arms nothing.
func (i *Injector) Attach(tc *core.TaiChi) {
	if i.attached {
		return
	}
	i.tc = tc
	i.attached = true
	if i.Spec.Zero() {
		return
	}

	// Every armed injector gets the full defense: reclaim watchdog,
	// probe fallback ladder, lost-IPI sweep.
	tc.Sched.EnableDefense(core.DefaultDefenseConfig())

	node := tc.Node
	s := i.Spec

	// Hardware-probe IRQ loss.
	if s.ProbeMissRate > 0 && node.Probe != nil {
		r := node.Stream("faults.probe")
		node.Probe.MissCheck = func(int) bool {
			if i.stopped {
				return false
			}
			if r.Float64() < s.ProbeMissRate {
				i.probeMiss.Inc()
				return true
			}
			return false
		}
	}

	// Spurious reclaims: probe IRQs with no traffic behind them.
	if s.SpuriousReclaimMTBF > 0 && node.Probe != nil {
		r := node.Stream("faults.spurious")
		cores := node.DPCores()
		var arm func()
		arm = func() {
			node.Engine.Schedule(sim.Exponential(r, s.SpuriousReclaimMTBF), func() {
				if i.stopped {
					return
				}
				if node.Probe.InjectSpurious(cores[r.Intn(len(cores))].ID) {
					i.spurious.Inc()
				}
				arm()
			})
		}
		arm()
	}

	// IPI loss and delay.
	if s.IPIDropRate > 0 || s.IPIDelayRate > 0 {
		r := node.Stream("faults.ipi")
		node.Kernel.IPIFault = func(kernel.CPUID, kernel.Vector) (bool, sim.Duration) {
			if i.stopped {
				return false, 0
			}
			if s.IPIDropRate > 0 && r.Float64() < s.IPIDropRate {
				i.ipiDrop.Inc()
				return true, 0
			}
			if s.IPIDelayRate > 0 && r.Float64() < s.IPIDelayRate {
				i.ipiDelay.Inc()
				return false, sim.Exponential(r, s.IPIDelayMean)
			}
			return false, 0
		}
	}

	// VM-exit stalls past the 2 µs envelope. One shared stream keeps the
	// draw sequence independent of which vCPU happens to exit.
	if s.ExitStallRate > 0 {
		r := node.Stream("faults.exit")
		for _, v := range tc.Sched.VCPUs() {
			v.ExitStall = func(*vcpu.VCPU) sim.Duration {
				if i.stopped {
					return 0
				}
				if r.Float64() < s.ExitStallRate {
					i.exitStall.Inc()
					return sim.Exponential(r, s.ExitStallMean)
				}
				return 0
			}
		}
	}

	// Lock-holder stalls: non-preemptible sections overstay.
	if s.LockStallRate > 0 {
		r := node.Stream("faults.lock")
		node.Kernel.SegStretch = func(_ *kernel.Thread, kind kernel.SegKind, dur sim.Duration) sim.Duration {
			if i.stopped {
				return dur
			}
			if (kind == kernel.SegNonPreempt || kind == kernel.SegLock) &&
				r.Float64() < s.LockStallRate {
				i.lockStall.Inc()
				return dur + sim.Exponential(r, s.LockStallMean)
			}
			return dur
		}
	}

	// DP core offline/online events.
	if s.CoreOfflineMTBF > 0 {
		r := node.Stream("faults.offline")
		cores := node.DPCores()
		var arm func()
		arm = func() {
			node.Engine.Schedule(sim.Exponential(r, s.CoreOfflineMTBF), func() {
				if i.stopped {
					return
				}
				dp := cores[r.Intn(len(cores))]
				if !dp.Down() {
					i.offline.Inc()
					tc.Sched.SetCoreDown(dp.ID, true)
					node.Engine.Schedule(sim.Exponential(r, s.CoreOfflineMean), func() {
						tc.Sched.SetCoreDown(dp.ID, false)
					})
				}
				arm()
			})
		}
		arm()
	}

	// CP crash/hang draws share one stream across all wrapped tasks.
	if s.CPCrashRate > 0 || s.CPHangRate > 0 {
		i.cpRNG = node.Stream("faults.cp")
	}

	// CP→DP coordination faults: interpose the fault wrapper between CP
	// jobs and the native coordinator, then a circuit breaker on top so
	// the injected failures trip it the way a refusing DP service would.
	// Draws ride one stream in op-issue order, so a given (seed, spec)
	// replays bit-for-bit regardless of which VM's job issues the op.
	if s.CoordFaultsArmed() {
		i.tc.SetCoordinator(&coordFaults{
			inj:    i,
			inner:  i.tc.Coordinator(),
			engine: node.Engine,
			r:      node.Stream("faults.coord"),
		})
		i.tc.InstallBreaker(controlplane.DefaultBreakerConfig())
	}
}

// coordFaults injects provisioning NACKs, partial device inits (op
// applied, ack lost) and coordinator timeouts (op lost entirely) into
// the CP→DP configuration path.
type coordFaults struct {
	inj    *Injector
	inner  controlplane.DPCoordinator
	engine *sim.Engine
	r      *rand.Rand
}

// nackLatency is how long the DP service takes to refuse an op — a
// prompt rejection, far under any ack timeout.
const nackLatency = 5 * sim.Microsecond

// ConfigureDevice implements controlplane.DPCoordinator.
func (c *coordFaults) ConfigureDevice(flow int, done func(ok bool)) {
	if c.inj.stopped {
		c.inner.ConfigureDevice(flow, done)
		return
	}
	s := c.inj.Spec
	if s.ProvisionNackRate > 0 && c.r.Float64() < s.ProvisionNackRate {
		c.inj.nack.Inc()
		c.engine.Schedule(nackLatency, func() { done(false) })
		return
	}
	if s.CoordTimeoutRate > 0 && c.r.Float64() < s.CoordTimeoutRate {
		// Lost before reaching the DP: no work, no ack, ever.
		c.inj.coordTimeout.Inc()
		return
	}
	if s.PartialInitRate > 0 && c.r.Float64() < s.PartialInitRate {
		// The DP applies the op but the completion ack is lost.
		c.inj.partialInit.Inc()
		c.inner.ConfigureDevice(flow, func(bool) {})
		return
	}
	c.inner.ConfigureDevice(flow, done)
}

// Stop quiesces every armed fault class from the current instant on:
// the hooks stay installed but inject nothing further, and the
// self-re-arming event loops (spurious reclaims, core offlines) unwind
// at their next firing. Intensities already in flight — an outage whose
// re-online is scheduled, a CP hang segment already drawn — run to
// completion, matching how a real incident tails off rather than
// vanishing. Stopping draws no randomness, so a (seed, spec, stop-time)
// triple replays bit-for-bit. The chaos re-convergence sweep uses this
// to bound injection to the front of the horizon and measure whether
// the recovery ladder climbs back once the weather clears.
func (i *Injector) Stop() { i.stopped = true }

// WrapCP wraps a CP task program with the crash and hang fault classes:
// at each segment boundary the task may die outright (crash) or wedge in
// a long busy segment (hang) before resuming its real program. Returns
// prog unchanged when those classes are unarmed or Attach has not run.
func (i *Injector) WrapCP(prog kernel.Program) kernel.Program {
	if i.cpRNG == nil {
		return prog
	}
	r := i.cpRNG
	s := i.Spec
	return kernel.ProgramFunc(func(t *kernel.Thread) (kernel.Segment, bool) {
		if i.stopped {
			return prog.Next(t)
		}
		if s.CPCrashRate > 0 && r.Float64() < s.CPCrashRate {
			i.cpCrash.Inc()
			return kernel.Segment{}, false
		}
		if s.CPHangRate > 0 && r.Float64() < s.CPHangRate {
			i.cpHang.Inc()
			return kernel.Segment{
				Kind: kernel.SegCompute,
				Dur:  sim.Exponential(r, s.CPHangMean),
				Note: "fault-hang",
			}, true
		}
		return prog.Next(t)
	})
}
