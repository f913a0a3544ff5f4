package experiments

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fleet"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig02Motivation reproduces Figure 2: on the static baseline, VM startup
// time and device-management CP execution time versus instance density.
// The paper reports CP execution degrading 8× and startup exceeding the
// SLO by 3.1× at 4× density.
func Fig02Motivation(scale Scale) *Result {
	res := newResult("Figure 2: VM startup & CP exec time vs instance density (static baseline)")
	tbl := metrics.NewTable("Figure 2", "density", "norm_startup(SLO=1)", "cp_exec_ms", "cp_exec_vs_1x")
	startupSeries := &metrics.Series{Name: "fig2.startup", XLabel: "density", YLabel: "startup/SLO"}
	cpSeries := &metrics.Series{Name: "fig2.cp_exec", XLabel: "density", YLabel: "cp exec (ms)"}

	densities := []float64{1, 2, 3, 4}
	type point struct{ norm, cpMs float64 }
	points := make([]point, len(densities))
	// Each density is an independent simulation; sweep them on the worker
	// pool and assemble the table in density order afterwards.
	fleet.ForEach(len(densities), scale.Workers, func(i int) {
		density := densities[i]
		b := baseline.NewStaticDefault(100 + int64(density))
		bg := workload.NewBackground(b.Node, coarseBackground(0.30))
		bg.Start()
		mgr := cluster.NewManager(b, cluster.DefaultConfig(density))
		mgr.Start()
		b.Run(sim.Time(scale.dur(20 * sim.Second)))
		points[i] = point{norm: mgr.NormalizedStartup(), cpMs: mgr.MeanCPExec().Milliseconds()}
	})
	cpBase := points[0].cpMs
	for i, density := range densities {
		norm, cpMs := points[i].norm, points[i].cpMs
		tbl.AddRow(density, norm, cpMs, cpMs/cpBase)
		startupSeries.Add(density, norm)
		cpSeries.Add(density, cpMs)
		res.Values[fmt.Sprintf("startup_norm_%gx", density)] = norm
		res.Values[fmt.Sprintf("cp_exec_ms_%gx", density)] = cpMs
	}
	res.Tables = append(res.Tables, tbl)
	res.Series = append(res.Series, startupSeries, cpSeries)
	res.Notes = append(res.Notes,
		"paper: CP exec 8x worse and startup 3.1x over SLO at 4x density")
	return res
}

// Fig03UtilizationCDF reproduces Figure 3: the CDF of per-interval DP CPU
// utilization under production-like bursty traffic. The paper reports
// 99.68% of samples below 32.5%. Sampling windows are scaled from 1 s to
// 10 ms (and per-packet work scaled up accordingly) so the simulation
// covers enough windows cheaply; the CDF shape is rate-normalized so this
// preserves it.
func Fig03UtilizationCDF(scale Scale) *Result {
	res := newResult("Figure 3: CDF of data-plane CPU utilization (fleet-wide)")

	members := int(8 * scale.Factor)
	if members < 2 {
		members = 2
	}
	perNode := scale.dur(30 * sim.Second)

	agg := fleet.RunWorkers(members, 303, scale.Workers, func(idx int, seed int64, agg *fleet.Aggregates) {
		opts := platform.DefaultOptions()
		opts.Seed = seed
		opts.HWProbe = false
		// Scale down packet rates (up per-packet work) so long traces stay
		// cheap; utilization is work/time and unaffected.
		opts.Net.Burst = 64
		node := platform.NewNode(opts)

		// Epoch-modulated offered load: most epochs draw a calm utilization
		// from a right-skewed distribution (fleet diurnal mix); rare epochs
		// burst toward saturation.
		cores := node.Net.Cores()
		work := 9 * sim.Microsecond
		calmDist := dist.NewLognormalFromMeanP99(
			sim.Duration(0.10*float64(sim.Second)), // mean util 10% (in "util·1s" units)
			sim.Duration(0.24*float64(sim.Second)), // p99 util 24%
		)

		window := 10 * sim.Millisecond
		epoch := 200 * sim.Millisecond

		// Per-core Poisson generators whose rate is re-drawn each epoch.
		for i, c := range cores {
			c := c
			cr := node.Stream(fmt.Sprintf("fig3.core%d", i))
			var target float64
			redraw := func() {
				if cr.Float64() < 0.004 {
					target = 0.55 + 0.4*cr.Float64() // rare burst epoch
				} else {
					target = float64(calmDist.Sample(cr)) / float64(sim.Second)
					if target > 0.42 {
						target = 0.42
					}
					if target < 0.01 {
						target = 0.01
					}
				}
			}
			redraw()
			node.Engine.NewTicker(epoch, redraw)
			var pump func()
			pump = func() {
				gap := sim.Duration(float64(work) / target)
				node.Engine.Schedule(sim.Exponential(cr, gap), func() {
					node.Pipe.Inject(&accel.Packet{Core: c.ID, Work: work})
					pump()
				})
			}
			pump()
		}

		// Sample per-window utilization of every core, in parts-per-million
		// so the duration-keyed histogram can hold fractions.
		hist := metrics.NewHistogram("dp_util_ppm")
		node.Engine.NewTicker(window, func() {
			for _, c := range cores {
				u := c.Utilization()
				hist.Record(sim.Duration(u * 1e6))
				c.Gauge.ResetWindow(node.Now())
			}
		})
		node.Run(sim.Time(perNode))
		agg.Merge("dp_util_ppm", hist)
	})

	hist := agg.Histogram("dp_util_ppm")
	below := hist.FractionBelow(sim.Duration(0.325 * 1e6))
	res.Values["frac_below_32.5pct"] = below
	res.Values["samples"] = float64(hist.Count())

	tbl := metrics.NewTable("Figure 3", "threshold_util", "fraction_below")
	for _, th := range []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.325, 0.40, 0.60, 0.80} {
		tbl.AddRow(th, hist.FractionBelow(sim.Duration(th*1e6)))
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		fmt.Sprintf("%.2f%% of %d samples below 32.5%% utilization across %d nodes (paper: 99.68%% over hundreds of nodes)",
			100*below, hist.Count(), agg.Members))
	return res
}

// Fig04SpikeAnatomy reproduces Figure 4: the timeline of one latency
// spike when a CP task's non-preemptible routine holds a co-scheduled DP
// core (naive co-scheduling), versus Tai Chi breaking the routine with a
// VM-exit.
func Fig04SpikeAnatomy(scale Scale) *Result {
	res := newResult("Figure 4: latency-spike anatomy (naive co-scheduling vs Tai Chi)")

	run := func(naive bool) (worst sim.Duration, timeline string) {
		var tc *core.TaiChi
		if naive {
			tc = baseline.NewNaive(404)
		} else {
			tc = core.NewDefault(404)
		}
		// The Figure 4 CP task: user compute, then a driver spinlock hold.
		for i := 0; i < 8; i++ {
			step := 0
			tc.SpawnCP("cp", kernel.ProgramFunc(func(*kernel.Thread) (kernel.Segment, bool) {
				step++
				if step%2 == 1 {
					return kernel.Segment{Kind: kernel.SegCompute, Dur: 200 * sim.Microsecond, Note: "user"}, true
				}
				// A single driver routine per iteration (the T1-T3 window
				// of Figure 4); private sections keep the anatomy clean of
				// lock convoys.
				return kernel.Segment{Kind: kernel.SegNonPreempt, Dur: 3 * sim.Millisecond, Note: "drv_spinlock"}, true
			}))
		}
		tc.Run(sim.Time(10 * sim.Millisecond))
		probes := 0
		for probes < 40 {
			probes++
			var target *int
			for _, c := range tc.Node.DPCores() {
				if c.State().String() == "yielded" {
					id := c.ID
					target = &id
					break
				}
			}
			if target == nil {
				tc.Run(tc.Node.Now().Add(sim.Duration(sim.Millisecond)))
				continue
			}
			var doneAt sim.Time
			start := tc.Node.Now()
			tc.Node.Pipe.Inject(&accel.Packet{Core: *target, Work: sim.Microsecond,
				Done: func(_ *accel.Packet, at sim.Time) { doneAt = at }})
			tc.Run(start.Add(sim.Duration(20 * sim.Millisecond)))
			if doneAt != 0 {
				if lat := doneAt.Sub(start); lat > worst {
					worst = lat
				}
			}
			tc.Run(tc.Node.Now().Add(sim.Duration(2 * sim.Millisecond)))
		}
		return worst, ""
	}
	naiveWorst, _ := run(true)
	taichiWorst, _ := run(false)

	tbl := metrics.NewTable("Figure 4", "mechanism", "worst DP latency")
	tbl.AddRow("naive co-scheduling", naiveWorst.String())
	tbl.AddRow("Tai Chi", taichiWorst.String())
	res.Tables = append(res.Tables, tbl)
	res.Values["naive_worst_us"] = naiveWorst.Microseconds()
	res.Values["taichi_worst_us"] = taichiWorst.Microseconds()
	res.Notes = append(res.Notes,
		"naive spike is bounded by the non-preemptible hold (T2-T3 in the paper); Tai Chi stays µs-scale")
	return res
}

// Fig05Census reproduces Figure 5: the census of non-preemptible routine
// durations produced by a production-like CP mix. The paper observed
// >456k routines longer than 1 ms over 12 node-hours, 94.5% of them in
// 1-5 ms, with a 67 ms maximum.
func Fig05Census(scale Scale) *Result {
	res := newResult("Figure 5: non-preemptible routine census (fleet-wide)")

	members := int(4 * scale.Factor)
	if members < 1 {
		members = 1
	}
	horizon := scale.dur(30 * sim.Second)

	agg := fleet.RunWorkers(members, 505, scale.Workers, func(idx int, seed int64, agg *fleet.Aggregates) {
		b := baseline.NewStaticDefault(seed)
		// A production-like mix: monitors and a steady churn of synth tasks.
		deployMonitors(b, 12)
		cfg := controlplane.DefaultSynthCP()
		cfg.NonPreemptFrac = 0.06
		r := b.Node.Stream("fig5.synth")
		var churn func(i int)
		churn = func(i int) {
			b.SpawnCP(fmt.Sprintf("churn%d", i), controlplane.SynthCP(cfg, r))
			b.Node.Engine.Schedule(sim.Exponential(r, 40*sim.Millisecond), func() { churn(i + 1) })
		}
		churn(0)
		b.Run(sim.Time(horizon))
		agg.Merge("census", b.Node.Tracer.NonPreemptibleCensus())
	})

	census := agg.Histogram("census")
	buckets := trace.CensusBuckets(census)
	over1ms := census.Count() - uint64(census.FractionBelow(sim.Millisecond)*float64(census.Count()))

	tbl := metrics.NewTable("Figure 5", "duration range", "count", "share of >1ms")
	var total uint64
	for _, bk := range buckets {
		total += bk.Count
	}
	for _, bk := range buckets {
		share := 0.0
		if total > 0 {
			share = float64(bk.Count) / float64(total)
		}
		tbl.AddRow(fmt.Sprintf("%v-%v", bk.Lo, bk.Hi), bk.Count, fmt.Sprintf("%.1f%%", 100*share))
	}
	res.Tables = append(res.Tables, tbl)
	res.Values["routines_over_1ms"] = float64(over1ms)
	if total > 0 {
		res.Values["share_1_5ms"] = float64(buckets[0].Count) / float64(total)
	}
	res.Values["max_ms"] = census.Max().Milliseconds()
	res.Notes = append(res.Notes,
		fmt.Sprintf("observed %d routines >1ms across %d nodes x %v (paper: 456k over ~12h on dozens of nodes); max %v",
			over1ms, agg.Members, horizon, census.Max()))
	return res
}

// Fig06IOBreakdown reproduces Figure 6: the per-stage breakdown of I/O
// packet processing through the SmartNIC accelerator (2.7 µs preprocess,
// 0.5 µs transfer), measured from packet lifecycle trace events.
func Fig06IOBreakdown(Scale) *Result {
	res := newResult("Figure 6: I/O packet processing breakdown")
	opts := platform.DefaultOptions()
	opts.Seed = 606
	opts.HWProbe = false
	opts.TraceAll = true // the breakdown needs the packet lifecycle events
	b := baseline.NewStatic(platform.NewNode(opts))
	for i := 0; i < 200; i++ {
		i := i
		b.Node.Engine.At(sim.Time(i)*sim.Time(10*sim.Microsecond), func() {
			b.Node.InjectNet(i, sim.Microsecond, nil)
		})
	}
	b.Run(sim.Time(10 * sim.Millisecond))
	stages := b.Node.Tracer.PacketBreakdown()
	tbl := metrics.NewTable("Figure 6", "stage", "mean", "packets")
	for _, st := range stages {
		tbl.AddRow(st.Name, st.Mean.String(), st.N)
		res.Values[st.Name+"_us"] = st.Mean.Microseconds()
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		"window available to hide the 2µs vCPU switch: preprocess+transfer = 3.2µs (paper Figure 6)")
	return res
}
