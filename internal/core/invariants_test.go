package core

import (
	"testing"

	"repro/internal/controlplane"
	"repro/internal/dataplane"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runMixed drives a full Tai Chi node with mixed DP traffic and CP load
// and returns a fingerprint of its observable state.
func runMixed(seed int64) (fingerprint [6]uint64) {
	tc := newTaiChi(seed, nil)
	bg := workload.NewBackground(tc.Node, workload.DefaultBackground(0.3))
	bg.Start()
	cfg := controlplane.DefaultSynthCP()
	cfg.Total = 10 * sim.Millisecond
	for i := 0; i < 12; i++ {
		tc.SpawnCP("synth", controlplane.SynthCP(cfg, tc.Stream("synth")))
	}
	tc.Run(sim.Time(500 * sim.Millisecond))
	var exits uint64
	for _, v := range tc.Sched.VCPUs() {
		exits += v.Exits
	}
	return [6]uint64{
		tc.Node.Engine.Fired(),
		tc.Sched.Yields.Value(),
		tc.Sched.Preempts.Value(),
		exits,
		tc.Node.Net.TotalProcessed(),
		uint64(tc.Node.Kernel.CtxSwitches.Value()),
	}
}

// TestFullNodeDeterminism: the whole stack — engine, kernel, scheduler,
// probes, workloads — must be bit-for-bit repeatable for a given seed.
func TestFullNodeDeterminism(t *testing.T) {
	a := runMixed(1234)
	b := runMixed(1234)
	if a != b {
		t.Fatalf("nondeterministic run:\n  %v\n  %v", a, b)
	}
	c := runMixed(5678)
	if a == c {
		t.Fatal("different seeds produced identical fingerprints (RNG not wired?)")
	}
}

// TestProbeNeverFiresForPState: the hardware probe must stay silent for
// cores in P-state — the condition that prevents interrupt storms on
// busy DP cores (§4.3).
func TestProbeNeverFiresForPState(t *testing.T) {
	tc := newTaiChi(77, nil)
	probe := tc.Node.Probe
	origIRQ := probe.OnIRQ
	violations := 0
	probe.OnIRQ = func(core int) {
		// At IRQ delivery the scheduler may already have flipped the state
		// back; check against the slot bookkeeping instead: an IRQ is only
		// legitimate if the core was lent out (occupied or entering).
		slot := tc.Sched.slotAt(core)
		if slot == nil || (slot.occupant == nil && slot.pendingEnter == nil && slot.preemptReq == 0) {
			violations++
		}
		origIRQ(core)
	}
	spawnHogs(tc, 10)
	bg := workload.NewBackground(tc.Node, workload.DefaultBackground(0.4))
	bg.Start()
	tc.Run(sim.Time(500 * sim.Millisecond))
	if violations > 0 {
		t.Fatalf("%d probe IRQs fired for cores not lent out", violations)
	}
	if tc.Sched.Preempts.Value() == 0 {
		t.Fatal("scenario produced no preempts; invariant untested")
	}
}

// TestPreemptLatencyBounded: with the hardware probe fitted, the time
// from preemption request to DP restoration must never exceed the
// VM-exit cost plus scheduling slack — the µs-scale guarantee.
func TestPreemptLatencyBounded(t *testing.T) {
	tc := newTaiChi(78, nil)
	spawnHogs(tc, 10)
	bg := workload.NewBackground(tc.Node, workload.DefaultBackground(0.35))
	bg.Start()
	tc.Run(sim.Time(sim.Second))
	if tc.Sched.PreemptLatency.Count() == 0 {
		t.Fatal("no preemptions recorded")
	}
	max := tc.Sched.PreemptLatency.Max()
	bound := tc.Cfg.Costs.Exit + 3*sim.Microsecond
	if max > bound {
		t.Fatalf("worst preemption latency %v exceeds bound %v", max, bound)
	}
}

// TestNoYieldWithPipelineInFlight: with the §9 in-flight check, the
// scheduler never lends a core that has packets inside the accelerator.
func TestNoYieldWithPipelineInFlight(t *testing.T) {
	tc := newTaiChi(79, nil)
	spawnHogs(tc, 10)
	violations := 0
	r := tc.Stream("traffic")
	var pump func()
	pump = func() {
		tc.Node.InjectNet(r.Intn(16), 2*sim.Microsecond, nil)
		tc.Node.Engine.Schedule(sim.Exponential(r, 150*sim.Microsecond), pump)
	}
	tc.Node.Engine.Schedule(1, pump)
	tick := tc.Node.Engine.NewTimer(10*sim.Microsecond, "", func() {
		for _, dp := range tc.Node.DPCores() {
			slot := tc.Sched.slotAt(dp.ID)
			if slot.pendingEnter != nil && tc.Node.Pipe.InFlight(dp.ID) > 0 && slot.preemptReq == 0 {
				// A pending entry with traffic in flight and no abort
				// request pending means the gate failed.
				violations++
			}
		}
	})
	tick.Reset(10 * sim.Microsecond)
	tc.Run(sim.Time(300 * sim.Millisecond))
	tick.Stop()
	if violations > 0 {
		t.Fatalf("%d yield decisions ignored in-flight pipeline traffic", violations)
	}
}

// TestDPCoreStateConsistency: a core is yielded iff the scheduler
// believes it lent the core out.
func TestDPCoreStateConsistency(t *testing.T) {
	tc := newTaiChi(80, nil)
	spawnHogs(tc, 10)
	bg := workload.NewBackground(tc.Node, workload.DefaultBackground(0.3))
	bg.Start()
	bad := 0
	tc.Node.Engine.NewTimer(50*sim.Microsecond, "", func() {
		for _, dp := range tc.Node.DPCores() {
			slot := tc.Sched.slotAt(dp.ID)
			if slot.occupant != nil && dp.State() != dataplane.Yielded {
				bad++
			}
		}
	}).Reset(50 * sim.Microsecond)
	tc.Run(sim.Time(300 * sim.Millisecond))
	if bad > 0 {
		t.Fatalf("%d ticks with scheduler/DP state divergence", bad)
	}
}

// TestChaosMixedWorkload throws everything at one node for an extended
// run — bursty DP traffic, CP churn with shared locks, device
// provisioning, probe preemptions — and asserts the global invariants:
// all finite work completes, preemption stays bounded, no lock leaks, no
// stuck spinners at the end, and the node remains deterministic.
func TestChaosMixedWorkload(t *testing.T) {
	run := func(seed int64) (fired uint64, done int) {
		tc := newTaiChi(seed, nil)
		bg := workload.NewBackground(tc.Node, workload.DefaultBackground(0.35))
		bg.Start()

		cfg := controlplane.DefaultSynthCP()
		cfg.Total = 15 * sim.Millisecond
		cfg.NonPreemptFrac = 0.25
		cfg.Lock = tc.DriverLock
		var tasks []*kernel.Thread
		r := tc.Stream("chaos")
		var churn func(i int)
		churn = func(i int) {
			if i >= 60 {
				return
			}
			tasks = append(tasks, tc.SpawnCP("chaos", controlplane.SynthCP(cfg, r)))
			tc.Node.Engine.Schedule(sim.Exponential(r, 15*sim.Millisecond), func() { churn(i + 1) })
		}
		churn(0)

		tc.Run(sim.Time(3 * sim.Second))

		for _, th := range tasks {
			if th.State() == kernel.StateDone {
				done++
			}
		}
		if tc.DriverLock.Locked() {
			t.Fatal("driver lock leaked")
		}
		if st := tc.Node.Kernel.DetectStuckSpinners(); len(st) > 0 {
			t.Fatalf("%d spinners stuck at quiescence", len(st))
		}
		if max := tc.Sched.PreemptLatency.Max(); max > tc.Cfg.Costs.Exit+3*sim.Microsecond {
			t.Fatalf("preempt latency %v exceeded bound under chaos", max)
		}
		return tc.Node.Engine.Fired(), done
	}
	f1, d1 := run(99)
	if d1 != 60 {
		t.Fatalf("only %d/60 chaos tasks completed", d1)
	}
	f2, d2 := run(99)
	if f1 != f2 || d1 != d2 {
		t.Fatal("chaos run not deterministic")
	}
}
