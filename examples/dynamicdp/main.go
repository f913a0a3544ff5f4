// Enhanced data-plane performance — the paper's §8 proof of concept,
// inverted Tai Chi: in low-density deployments the CP needs fewer
// dedicated cores, so half of them are repartitioned to the data plane.
// The control plane keeps its performance anyway by borrowing idle DP
// cycles, while peak network and storage throughput grow with the extra
// cores.
//
//	go run ./examples/dynamicdp
package main

import (
	"fmt"

	taichi "repro"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/workload"
)

func main() {
	defCPS, defIOPS, defCP := run(false)
	repCPS, repIOPS, repCP := run(true)

	fmt.Println("config                        CPS        IOPS       CP batch turnaround")
	fmt.Printf("default   (8 DP / 4 CP)   %9.0f  %9.0f  %v\n", defCPS, defIOPS, defCP)
	fmt.Printf("repartitioned (10 DP / 2 CP) %6.0f  %9.0f  %v\n", repCPS, repIOPS, repCP)
	fmt.Printf("\npeak gains: %+.1f%% CPS, %+.1f%% IOPS (paper §8: +43%% / +39%%)\n",
		100*(repCPS/defCPS-1), 100*(repIOPS/defIOPS-1))
	fmt.Println("CP turnaround measured after the peak test, when idle DP cycles are")
	fmt.Println("available again — which is why the smaller CP partition keeps its SLO.")
}

func run(repartition bool) (cps, iops float64, cpTurnaround metrics.Summary) {
	opts := platform.DefaultOptions()
	opts.Seed = 88
	if repartition {
		opts.Topology = platform.Topology{
			NetCores:  []int{0, 1, 2, 3, 8},
			StorCores: []int{4, 5, 6, 7, 9},
			CPCores:   []int{10, 11},
		}
	}
	sys := core.New(platform.NewNode(opts), core.DefaultConfig())
	node := sys.Node

	// Phase 1: peak throughput with saturating benchmarks.
	crr := workload.NewCRR(node, workload.DefaultCRR())
	fio := workload.NewFio(node)
	crr.Start()
	fio.Start()
	sys.Run(taichi.Seconds(1))
	cps = crr.CPS(node.Now())
	iops = fio.IOPS(node.Now())
	crr.Stop()
	fio.Stop()

	// Phase 2: verify CP performance with the DP back at normal load.
	bg := workload.NewBackground(node, workload.DefaultBackground(0.30))
	bg.Start()
	cfg := controlplane.DefaultSynthCP()
	var jobs []*kernel.Thread
	for i := 0; i < 8; i++ {
		jobs = append(jobs, sys.SpawnCP(fmt.Sprintf("job%d", i),
			controlplane.SynthCP(cfg, node.Stream(fmt.Sprintf("dyndp.job%d", i)))))
	}
	sys.Run(node.Now().Add(taichi.Seconds(1).Sub(0)))
	h := metrics.NewHistogram("cp")
	for _, j := range jobs {
		if j.State() == kernel.StateDone {
			h.Record(j.Turnaround())
		}
	}
	return cps, iops, h.Summarize()
}
