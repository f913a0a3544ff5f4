// Quickstart: build a Tai Chi SmartNIC, run bursty data-plane traffic
// alongside a burst of control-plane jobs, and watch the framework lend
// idle DP cores to the CP at microsecond granularity without hurting
// data-plane latency.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	taichi "repro"
	"repro/internal/accel"
	"repro/internal/controlplane"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	// A production-like node: 4 net + 4 storage + 4 CP cores, 8 vCPUs,
	// hardware workload probe fitted.
	sys := taichi.New(42)
	node := sys.Node

	// Bursty background traffic at the fleet's ~30% operating point.
	bg := workload.NewBackground(node, workload.DefaultBackground(0.30))
	bg.Start()

	// Measure data-plane latency with a steady probe flow.
	lat := metrics.NewHistogram("dp.latency")
	r := node.Stream("probe")
	var probe *sim.Timer
	probe = node.Engine.NewTimer(0, "quickstart.probe", func() {
		start := node.Now()
		node.Pipe.Inject(&accel.Packet{Core: 0, Work: sim.Microsecond,
			Done: func(_ *accel.Packet, at sim.Time) { lat.Record(at.Sub(start)) }})
		probe.Reset(sim.Exponential(r, 200*sim.Microsecond))
	})
	probe.Reset(1)

	// A burst of 24 control-plane jobs (50 ms each) — six times more than
	// the dedicated CP cores could run at once. Deployment is just a
	// thread spawn with standard CPU affinity: zero code modifications.
	var jobs []*kernel.Thread
	cfg := controlplane.DefaultSynthCP()
	for i := 0; i < 24; i++ {
		jobs = append(jobs, sys.SpawnCP(fmt.Sprintf("job%d", i),
			controlplane.SynthCP(cfg, node.Stream(fmt.Sprintf("qs.job%d", i)))))
	}

	sys.Run(taichi.Seconds(2))

	done := 0
	turnaround := metrics.NewHistogram("cp.turnaround")
	for _, j := range jobs {
		if j.State() == kernel.StateDone {
			done++
			turnaround.Record(j.Turnaround())
		}
	}
	fmt.Printf("control plane: %d/%d jobs done, mean turnaround %v (50ms of work each)\n",
		done, len(jobs), turnaround.Mean())
	fmt.Printf("  dedicated CP cores alone would need %v of wall time for this batch\n",
		sim.Duration(24*50/4)*sim.Millisecond)
	fmt.Printf("data plane: latency mean %v p99 %v max %v across %d packets\n",
		lat.Mean(), lat.Quantile(0.99), lat.Max(), lat.Count())
	fmt.Printf("tai chi: %d yields, %d probe preempts, preemption latency p99 %v\n",
		sys.Sched.Yields.Value(), sys.Sched.Preempts.Value(),
		sys.Sched.PreemptLatency.Quantile(0.99))
	fmt.Printf("net DP utilization %.1f%% (useful work)\n", 100*node.Net.MeanUtilization())
}
