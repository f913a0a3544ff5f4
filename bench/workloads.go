package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/workload"
)

// workloadSpec is one benchmark input: a fixed shape run over a set of
// simulator seeds. Every random draw comes from the library's own seeded
// constructors; the benchmark only picks the seeds.
type workloadSpec struct {
	name string
	// seeds is how many simulator seeds one rep runs, back to back.
	seeds int
	// readsTrace puts the audit replay, span derivation and Chrome export
	// inside the timed region; elsewhere the audit runs after it.
	readsTrace bool
	setup      func(r *seedRun, seed int64)
}

// workloads are the benchmark's inputs, each stressing a different layer;
// README.md gives the reasons and the measured shares. Seed counts are
// set so that a rep's work and peak memory vary little between seed sets
// and between reps: a rep reports the mean of its seed runs' peak memory,
// so one seed that placed unusually many VMs, or whose collector ran
// late, moves it by a share of its excess.
var workloads = []workloadSpec{
	// The vCPU lend/reclaim and kernel paths do the work; the packet path
	// is idle.
	{name: "lend-vmstart", seeds: 20, setup: lendVMStart},
	// Per-packet and per-event engine cost dominate.
	{name: "packet-overload", seeds: 4, setup: packetOverload},
	// The only workload whose engines advance in parallel.
	{name: "fleet-place", seeds: 3, setup: fleetPlace(4, 2)},
	// Reading the trace is most of the work.
	{name: "trace-export", seeds: 3, readsTrace: true, setup: traceExport},
}

// workloadByName returns the named workload.
func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (have: lend-vmstart, packet-overload, fleet-place, trace-export)", name)
}

// simSeeds maps the -seed argument to the workload's simulator seeds:
// seed s runs seeds (s-1)*k+1 … s*k, so distinct -seed values never share
// a simulator seed.
func (w workloadSpec) simSeeds(seed int64) []int64 {
	out := make([]int64, w.seeds)
	for i := range out {
		out[i] = (seed-1)*int64(w.seeds) + 1 + int64(i)
	}
	return out
}

// lendVMStart is the Figure 17 shape: a density-4 VM-startup wave on a
// Tai Chi node, VMs never torn down, 2 s simulated.
func lendVMStart(r *seedRun, seed int64) {
	n := r.newNode(seed)
	r.timed(setupCluster, func() {
		cfg := cluster.DefaultConfig(4)
		cfg.VMLifetime = 0
		n.mgr = cluster.NewManager(n.tc, cfg)
		n.mgr.Start()
	})
	r.run = func() { n.runUntil(sim.Time(2 * sim.Second)) }
}

// packetOverload is the overload shape: 48 VMs at 3× density through the
// admission gate and brownout ladder, 0.9 DP background for the first
// 600 ms, drained until every request settles.
func packetOverload(r *seedRun, seed int64) {
	n := r.newNode(seed)
	r.timed(setupPlatform, func() { n.tc.Sched.EnableOverload(core.DefaultOverloadPolicy()) })
	r.timed(setupWorkload, func() {
		bg := workload.NewBackground(n.tc.Node, workload.DefaultBackground(0.9))
		bg.Start()
		n.tc.Engine().At(sim.Time(600*sim.Millisecond), bg.Stop)
	})
	const vms = 48
	r.timed(setupCluster, func() {
		cfg := cluster.DefaultConfig(3)
		cfg.VMs = vms
		cfg.VMLifetime = 0
		cfg.Retry = cluster.DefaultRetryPolicy()
		cfg.Admission = cluster.DefaultAdmissionPolicy()
		cfg.Classify = cluster.DefaultClassify
		cfg.OverloadLevel = func() int { return int(n.tc.Sched.OverloadState()) }
		n.mgr = cluster.NewManager(n.tc, cfg)
		n.mgr.Start()
	})
	r.run = func() {
		// Drain in fixed chunks until every request settles; the step
		// bound is a runaway backstop.
		for step := 0; step < 120; step++ {
			n.runUntil(n.tc.Engine().Now().Add(500 * sim.Millisecond))
			if int(n.mgr.Issued) >= vms && n.mgr.Settled() {
				return
			}
		}
	}
}

// fleetPlace returns the placed-fleet shape: three Tai Chi members at 0.25
// DP background under the pressure policy with rebalancing, advancing on
// a pool of the given size. VMs keep arriving at the default 12/s for all
// of the given number of 250 ms scans, so every seed simulates the same
// span; a run that drained a fixed VM count instead would last as long as
// the seed's arrival gaps happened to sum to.
func fleetPlace(scans, workers int) func(*seedRun, int64) {
	return func(r *seedRun, seed int64) {
		const members = 3
		ifaces := make([]placement.Member, members)
		for i := range ifaces {
			n := r.newNode(fleet.MemberSeed(seed, i))
			r.timed(setupPlatform, func() { n.tc.Sched.EnableOverload(core.DefaultOverloadPolicy()) })
			r.timed(setupWorkload, func() {
				workload.NewBackground(n.tc.Node, workload.DefaultBackground(0.25)).Start()
			})
			r.timed(setupCluster, func() {
				cfg := cluster.DefaultConfig(1)
				cfg.VMLifetime = 0
				cfg.Retry = cluster.DefaultRetryPolicy()
				cfg.Placement = cluster.DefaultPlacementPolicy()
				n.mgr = cluster.NewManager(n.tc, cfg)
				n.mgr.Start()
			})
			r.timed(setupPlacement, func() { ifaces[i] = r.member(n) })
		}
		r.timed(setupPlacement, func() {
			cfg := placement.DefaultConfig()
			cfg.MaxScans = scans
			cfg.Workers = workers
			r.placer = placement.NewEngine(seed, cfg, ifaces)
		})
		r.workers = workers
		r.run = func() { r.placer.Run() }
	}
}

// traceEvents is the trace size at which a trace-export seed run stops:
// about 3 s simulated. A fixed span instead gave traces whose size, and so
// the cost of reading them, varied by 13% (coefficient of variation) from
// seed to seed.
const traceEvents = 360_000

// traceExport is faulted VM churn: density-4 startups with retries under
// faults.DefaultSpec and the recovery ladder, simulated in 10 ms steps
// until the trace holds traceEvents events. The harness then audits,
// derives and exports the trace inside the timed region.
func traceExport(r *seedRun, seed int64) {
	n := r.newNode(seed)
	r.timed(setupWorkload, func() {
		n.inj = faults.NewInjector(faults.DefaultSpec())
		n.inj.Attach(n.tc)
	})
	r.timed(setupPlatform, func() { n.tc.Sched.EnableRecovery(core.DefaultRecoveryPolicy()) })
	r.timed(setupCluster, func() {
		cfg := cluster.DefaultConfig(4)
		cfg.Retry = cluster.DefaultRetryPolicy()
		cfg.WrapCP = n.inj.WrapCP
		n.mgr = cluster.NewManager(n.tc, cfg)
		n.mgr.Start()
	})
	r.run = func() {
		// The step bound, 30 s simulated, is a runaway backstop.
		for step := 0; step < 3000 && n.tc.Node.Tracer.Len() < traceEvents; step++ {
			n.runUntil(n.tc.Engine().Now().Add(10 * sim.Millisecond))
		}
	}
}
