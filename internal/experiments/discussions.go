package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Sec8RealtimeContext reproduces the §8 "always-preemptible kernel-space
// context" discussion: the classic priority-inversion problem where a
// high-priority real-time task cannot preempt low-priority tasks stuck in
// non-preemptible kernel routines. Under the stock kernel the RT task's
// wakeup latency inherits the ms-scale routine tails; under Tai Chi the
// low-priority tasks are confined to vCPU contexts that the hypervisor
// exits in ~2 µs, keeping the physical cores deterministically available.
func Sec8RealtimeContext(scale Scale) *Result {
	res := newResult("Section 8: always-preemptible kernel context (RT wakeup latency)")
	tbl := metrics.NewTable("Section 8 RT", "system", "p50", "p99", "max")

	horizon := scale.dur(8 * sim.Second)

	run := func(taichi bool) metrics.Summary {
		var spawnLow func(name string, prog kernel.Program) *kernel.Thread
		var spawnRT func(name string, prog kernel.Program) *kernel.Thread
		lat := metrics.NewHistogram("rt.latency")

		if taichi {
			tc := core.NewDefault(2700)
			// Low-priority kernel-heavy tasks are confined to vCPUs; the
			// RT task owns the physical CP cores.
			vcpus := tc.Sched.VCPUIDs()
			spawnLow = func(name string, prog kernel.Program) *kernel.Thread {
				return tc.Node.Kernel.Spawn(name, prog, vcpus...)
			}
			cpIDs := make([]kernel.CPUID, 0, 4)
			for _, c := range tc.Node.Opts.Topology.CPCores {
				cpIDs = append(cpIDs, kernel.CPUID(c))
			}
			spawnRT = func(name string, prog kernel.Program) *kernel.Thread {
				th := tc.Node.Kernel.Spawn(name, prog, cpIDs...)
				th.SetWeight(8)
				return th
			}
			deployRT(tc.Node.Engine, spawnLow, spawnRT, lat, horizon)
			tc.Run(sim.Time(horizon))
		} else {
			b := baseline.NewStaticDefault(2700)
			spawnLow = b.SpawnCP
			spawnRT = func(name string, prog kernel.Program) *kernel.Thread {
				th := b.SpawnCP(name, prog)
				th.SetWeight(8)
				return th
			}
			deployRT(b.Node.Engine, spawnLow, spawnRT, lat, horizon)
			b.Run(sim.Time(horizon))
		}
		return lat.Summarize()
	}

	static := run(false)
	tch := run(true)
	tbl.AddRow("stock kernel (static)", static.P50.String(), static.P99.String(), static.Max.String())
	tbl.AddRow("Tai Chi hybrid context", tch.P50.String(), tch.P99.String(), tch.Max.String())
	res.Tables = append(res.Tables, tbl)
	res.Values["static_p99_us"] = static.P99.Microseconds()
	res.Values["taichi_p99_us"] = tch.P99.Microseconds()
	res.Notes = append(res.Notes,
		"§8: hybrid virtualization gives low-priority kernel work an always-preemptible context,"+
			" so RT wakeups stop inheriting non-preemptible routine tails")
	return res
}

// deployRT starts 8 low-priority NP-heavy hogs and one periodic RT task
// whose wakeup-to-completion latency lands in lat.
func deployRT(engine *sim.Engine, spawnLow, spawnRT func(string, kernel.Program) *kernel.Thread,
	lat *metrics.Histogram, horizon sim.Duration) {
	npDist := controlplane.NonPreemptibleDurations()
	for i := 0; i < 8; i++ {
		seed := int64(i)
		step := 0
		spawnLow(fmt.Sprintf("low%d", i), kernel.ProgramFunc(func(*kernel.Thread) (kernel.Segment, bool) {
			step++
			if step%2 == 1 {
				return kernel.Segment{Kind: kernel.SegCompute, Dur: 300 * sim.Microsecond}, true
			}
			// NP-heavy kernel path, deterministic per task.
			d := npDist.Mean() + sim.Duration(seed)*100*sim.Microsecond
			return kernel.Segment{Kind: kernel.SegNonPreempt, Dur: d, Note: "low_np"}, true
		}))
	}
	// Periodic RT job: 5 ms period, 200 µs of work; latency is measured
	// from the period edge to job completion.
	i := 0
	var next *sim.Timer
	fire := func() {
		if sim.Duration(i)*5*sim.Millisecond >= horizon {
			return
		}
		start := engine.Now()
		spawnRT(fmt.Sprintf("rt%d", i), &kernel.SliceProgram{Segments: []kernel.Segment{
			{Kind: kernel.SegCompute, Dur: 200 * sim.Microsecond, OnDone: func() {
				lat.Record(engine.Now().Sub(start))
			}},
		}})
		i++
		next.Reset(5 * sim.Millisecond)
	}
	next = engine.NewTimer(0, "experiments.sec8-rt", fire)
	fire()
}
