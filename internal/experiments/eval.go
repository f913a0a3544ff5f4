package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Fig11SynthCP reproduces Figure 11: average synth_cp execution time
// versus concurrency, Tai Chi against the static baseline, with the data
// plane held at its production 30% utilization operating point. The paper
// reports ~4× better performance at 32 concurrent tasks.
func Fig11SynthCP(scale Scale) *Result {
	res := newResult("Figure 11: synth_cp avg execution time vs concurrency")
	tbl := metrics.NewTable("Figure 11", "concurrency", "static_ms", "taichi_ms", "speedup")
	series := &metrics.Series{Name: "fig11.speedup", XLabel: "concurrency", YLabel: "static/taichi"}

	horizon := scale.dur(8 * sim.Second)
	cfg := controlplane.DefaultSynthCP()

	run := func(conc int, taichi bool) sim.Duration {
		var host cluster.Host
		var node *platform.Node
		if taichi {
			tc := core.NewDefault(1100 + int64(conc))
			host, node = tc, tc.Node
		} else {
			b := baseline.NewStaticDefault(1100 + int64(conc))
			host, node = b, b.Node
		}
		bg := workload.NewBackground(node, coarseBackground(0.30))
		bg.Start()
		// The production CP ecosystem keeps running during the benchmark
		// (§3.2); it consumes roughly half of the dedicated CP cores.
		deployMonitors(host, 16)
		deployEcosystem(host, 2.0)
		node.Run(sim.Time(400 * sim.Millisecond)) // settle
		tasks := spawnSynthBatch(host, cfg, conc)
		node.Run(sim.Time(horizon))
		return meanTurnaround(tasks, horizon)
	}

	for _, conc := range []int{4, 8, 16, 24, 32} {
		static := run(conc, false)
		taichi := run(conc, true)
		speedup := float64(static) / float64(taichi)
		tbl.AddRow(conc, static.Milliseconds(), taichi.Milliseconds(), speedup)
		series.Add(float64(conc), speedup)
		res.Values[fmt.Sprintf("speedup_%d", conc)] = speedup
	}
	res.Tables = append(res.Tables, tbl)
	res.Series = append(res.Series, series)
	res.Notes = append(res.Notes, "paper: Tai Chi ~4x higher performance at 32 concurrent tasks")
	return res
}

// systemSpec names one of the four compared systems of §6.3.
type systemSpec struct {
	name  string
	build func(seed int64) (*platform.Node, cluster.Host)
}

func fourSystems() []systemSpec {
	return []systemSpec{
		{"baseline", func(seed int64) (*platform.Node, cluster.Host) {
			b := baseline.NewStaticDefault(seed)
			return b.Node, b
		}},
		{"taichi", func(seed int64) (*platform.Node, cluster.Host) {
			tc := core.NewDefault(seed)
			return tc.Node, tc
		}},
		{"taichi-vDP", func(seed int64) (*platform.Node, cluster.Host) {
			tc := baseline.NewType1(seed)
			return tc.Node, tc
		}},
		{"type2", func(seed int64) (*platform.Node, cluster.Host) {
			b := baseline.NewType2(seed)
			return b.Node, b
		}},
	}
}

// withCPLoad starts the standard CP ecosystem (monitors + synth churn)
// that gives vCPUs something to borrow idle DP cycles for.
func withCPLoad(host cluster.Host) {
	deployMonitors(host, 16)
	churnCP(host, host.Stream("cpchurn"), controlplane.DefaultSynthCP(), 60*sim.Millisecond)
}

// churnCP spawns synth CP task churn0 now and churn<i> after each
// exponential gap of the given mean, drawing the tasks and the gaps from
// r, on one timer.
func churnCP(host cluster.Host, r *rand.Rand, cfg controlplane.SynthCPConfig, mean sim.Duration) {
	i := 0
	var next *sim.Timer
	spawn := func() {
		host.SpawnCP(fmt.Sprintf("churn%d", i), controlplane.SynthCP(cfg, r))
		i++
		next.Reset(sim.Exponential(r, mean))
	}
	next = host.Engine().NewTimer(0, "experiments.cp-churn", spawn)
	spawn()
}

// withHeavyCPLoad is withCPLoad plus the production ecosystem and standing
// CP demand that keeps vCPUs runnable throughout a DP benchmark — the
// "CP tasks active" condition under which the paper measures DP overhead.
func withHeavyCPLoad(host cluster.Host) {
	withCPLoad(host)
	deployEcosystem(host, 2.0)
	for i := 0; i < 6; i++ {
		host.SpawnCP(fmt.Sprintf("standing%d", i), &kernel.SliceProgram{Segments: []kernel.Segment{
			{Kind: kernel.SegCompute, Dur: sim.Duration(sim.Hour)},
		}})
	}
}

// Fig12TCPCRR reproduces Figure 12: netperf tcp_crr connections/sec and
// rx/tx packets/sec across the four systems. The paper reports ~8%
// degradation for Tai Chi-vDP, ~26% for type-2, and ~0.2% for Tai Chi.
func Fig12TCPCRR(scale Scale) *Result {
	res := newResult("Figure 12: netperf tcp_crr across virtualization designs")
	tbl := metrics.NewTable("Figure 12", "system", "CPS", "avg_rx_pps", "avg_tx_pps", "vs baseline")

	horizon := scale.dur(4 * sim.Second)
	var base float64
	for _, spec := range fourSystems() {
		node, host := spec.build(1200)
		withCPLoad(host)
		crr := workload.NewCRR(node, workload.DefaultCRR())
		node.Run(sim.Time(200 * sim.Millisecond))
		crr.Start()
		node.Run(node.Now().Add(sim.Duration(horizon)))
		cps := crr.CPS(node.Now())
		pps := crr.PPS(node.Now())
		if spec.name == "baseline" {
			base = cps
		}
		tbl.AddRow(spec.name, cps, pps/2, pps/2, fmt.Sprintf("%+.2f%%", pct(base, cps)))
		res.Values["cps_"+spec.name] = cps
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes, "paper: vDP -8%, type-2 -26%, Tai Chi -0.2% network throughput")
	return res
}

// Fig13FioIOPS reproduces Figure 13: fio 4KB IOPS across the four
// systems. The paper reports ~6% degradation for Tai Chi-vDP, ~25.7% for
// type-2, and ~0.06% for Tai Chi.
func Fig13FioIOPS(scale Scale) *Result {
	res := newResult("Figure 13: fio IOPS across virtualization designs")
	tbl := metrics.NewTable("Figure 13", "system", "IOPS", "bw_MBps", "vs baseline")

	horizon := scale.dur(4 * sim.Second)
	var base float64
	for _, spec := range fourSystems() {
		node, host := spec.build(1300)
		withCPLoad(host)
		fio := workload.NewFio(node)
		node.Run(sim.Time(200 * sim.Millisecond))
		fio.Start()
		node.Run(node.Now().Add(sim.Duration(horizon)))
		iops := fio.IOPS(node.Now())
		if spec.name == "baseline" {
			base = iops
		}
		tbl.AddRow(spec.name, iops, fio.BandwidthMBps(node.Now()), fmt.Sprintf("%+.2f%%", pct(base, iops)))
		res.Values["iops_"+spec.name] = iops
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes, "paper: vDP -6%, type-2 -25.7%, Tai Chi -0.06% IOPS")
	return res
}

// Table5PingRTT reproduces Table 5: ping RTT for the baseline, Tai Chi,
// and Tai Chi without the hardware workload probe, under active CP load.
// The paper's w/o-probe row shows +23% min, +23% avg, +203% max, +80%
// mdev; Tai Chi proper is near-identical to the baseline.
func Table5PingRTT(scale Scale) *Result {
	res := newResult("Table 5: ping RTT across mechanisms")
	tbl := metrics.NewTable("Table 5", "mechanism", "min_us", "avg_us", "max_us", "mdev_us")

	count := int(20000 * scale.Factor)
	if count < 1500 {
		count = 1500
	}

	run := func(name string, build func() (*platform.Node, cluster.Host)) metrics.Summary {
		node, host := build()
		withCPLoad(host)
		// Sustained CP pressure (the "CP load active" condition of the
		// experiment): long-running hogs keep vCPUs runnable so idle DP
		// cores are actually borrowed.
		for i := 0; i < 7; i++ {
			host.SpawnCP(fmt.Sprintf("hog%d", i), &kernel.SliceProgram{Segments: []kernel.Segment{
				{Kind: kernel.SegCompute, Dur: sim.Duration(sim.Hour)},
			}})
		}
		cfg := workload.DefaultPing()
		cfg.Count = count
		p := workload.NewPing(node, cfg)
		node.Run(sim.Time(100 * sim.Millisecond))
		p.Start(nil)
		node.Run(node.Now().Add(sim.Duration(workload.PingInterval) * sim.Duration(count+100)))
		s := p.RTT.Summarize()
		tbl.AddRow(name,
			s.Min.Microseconds(), s.Mean.Microseconds(), s.Max.Microseconds(), s.Mdev.Microseconds())
		res.Values[name+"_min_us"] = s.Min.Microseconds()
		res.Values[name+"_avg_us"] = s.Mean.Microseconds()
		res.Values[name+"_max_us"] = s.Max.Microseconds()
		return s
	}

	run("baseline", func() (*platform.Node, cluster.Host) {
		b := baseline.NewStaticDefault(1500)
		return b.Node, b
	})
	run("taichi", func() (*platform.Node, cluster.Host) {
		tc := core.NewDefault(1500)
		return tc.Node, tc
	})
	run("taichi-no-hwprobe", func() (*platform.Node, cluster.Host) {
		opts := platform.DefaultOptions()
		opts.Seed = 1500
		opts.HWProbe = false
		cfg := core.DefaultConfig()
		cfg.MaxSlice = 100 * sim.Microsecond
		tc := core.New(platform.NewNode(opts), cfg)
		return tc.Node, tc
	})

	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		"paper: baseline 26/30/38/5, Tai Chi 27/30/38/5, w/o probe 32/37/115/9 (µs)")
	return res
}

// Fig14DPSuite reproduces Figure 14: the netperf/sockperf suite
// normalized to the baseline. The paper reports an average 0.6% overhead
// for Tai Chi, peaking at 1.92%.
func Fig14DPSuite(scale Scale) *Result {
	res := newResult("Figure 14: normalized DP suite (Tai Chi vs baseline)")
	tbl := metrics.NewTable("Figure 14", "case", "metric", "baseline", "taichi", "overhead")

	horizon := scale.dur(3 * sim.Second)

	runPair := func(name string, metric string, measure func(node *platform.Node, phase *workload.Phaser) float64) {
		var vals [2]float64
		for i, taichi := range []bool{false, true} {
			var node *platform.Node
			var host cluster.Host
			if taichi {
				tc := core.NewDefault(1400)
				node, host = tc.Node, tc
			} else {
				b := baseline.NewStaticDefault(1400)
				node, host = b.Node, b
			}
			withHeavyCPLoad(host)
			// Production traffic is duty-cycled: trains of requests with
			// sub-ms quiet gaps. The gaps are where Tai Chi borrows cores —
			// and where its cache/TLB pollution cost comes from (§6.5).
			phase := workload.NewPhaser(node.Engine, node.Stream("fig14.phase"), 700*sim.Microsecond, 250*sim.Microsecond)
			node.Run(sim.Time(200 * sim.Millisecond))
			vals[i] = measure(node, phase)
		}
		overhead := pct(vals[0], vals[1])
		tbl.AddRow(name, metric, vals[0], vals[1], fmt.Sprintf("%+.2f%%", overhead))
		res.Values[name+"."+metric+".baseline"] = vals[0]
		res.Values[name+"."+metric+".taichi"] = vals[1]
	}

	runPair("udp_stream", "pps", func(node *platform.Node, phase *workload.Phaser) float64 {
		cfg := workload.DefaultStream()
		cfg.Phase = phase
		s := workload.NewStream(node, cfg)
		s.Start()
		node.Run(node.Now().Add(sim.Duration(horizon)))
		return s.PPS(node.Now())
	})
	runPair("tcp_stream", "pps", func(node *platform.Node, phase *workload.Phaser) float64 {
		cfg := workload.DefaultStream()
		cfg.Window = 4
		cfg.Phase = phase
		s := workload.NewStream(node, cfg)
		s.Start()
		node.Run(node.Now().Add(sim.Duration(horizon)))
		return s.PPS(node.Now())
	})
	runPair("tcp_rr", "rps", func(node *platform.Node, phase *workload.Phaser) float64 {
		cfg := workload.DefaultRR()
		cfg.Phase = phase
		rr := workload.NewRR(node, cfg)
		rr.Start()
		node.Run(node.Now().Add(sim.Duration(horizon)))
		return rr.Rounds.RatePerSecond(sim.Duration(horizon))
	})
	runPair("sockperf_tcp", "cps", func(node *platform.Node, phase *workload.Phaser) float64 {
		cfg := workload.DefaultCRR()
		cfg.Connections = 1024
		cfg.Phase = phase
		crr := workload.NewCRR(node, cfg)
		crr.Start()
		node.Run(node.Now().Add(sim.Duration(horizon)))
		return crr.CPS(node.Now())
	})
	// sockperf udp latency at a moderate offered rate.
	for _, q := range []struct {
		metric string
		f      func(h *metrics.Histogram) float64
	}{
		{"avg_us", func(h *metrics.Histogram) float64 { return h.Mean().Microseconds() }},
		{"p99_us", func(h *metrics.Histogram) float64 { return h.Quantile(0.99).Microseconds() }},
		{"p999_us", func(h *metrics.Histogram) float64 { return h.Quantile(0.999).Microseconds() }},
	} {
		q := q
		runPair("sockperf_udp", q.metric, func(node *platform.Node, _ *workload.Phaser) float64 {
			cfg := workload.DefaultStream()
			cfg.OfferedRate = 400000
			s := workload.NewStream(node, cfg)
			s.Start()
			node.Run(node.Now().Add(sim.Duration(horizon)))
			return q.f(s.Latency)
		})
	}

	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes, "paper: avg 0.6% overhead, worst 1.92% (tcp_stream avg_tx_pps)")
	return res
}

// Fig15MySQL reproduces Figure 15: sysbench/MySQL throughput under Tai
// Chi vs the baseline. The paper reports 1.56% average overhead.
func Fig15MySQL(scale Scale) *Result {
	res := newResult("Figure 15: MySQL (192 sysbench threads)")
	tbl := metrics.NewTable("Figure 15", "metric", "baseline", "taichi", "overhead")
	horizon := scale.dur(4 * sim.Second)

	type out struct{ maxQ, avgQ, maxT, avgT float64 }
	run := func(taichi bool) out {
		var node *platform.Node
		var host cluster.Host
		if taichi {
			tc := core.NewDefault(1501)
			node, host = tc.Node, tc
		} else {
			b := baseline.NewStaticDefault(1501)
			node, host = b.Node, b
		}
		withHeavyCPLoad(host)
		mcfg := workload.DefaultMySQL()
		mcfg.Phase = workload.NewPhaser(node.Engine, node.Stream("fig15.phase"), 700*sim.Microsecond, 250*sim.Microsecond)
		m := workload.NewMySQL(node, mcfg)
		node.Run(sim.Time(200 * sim.Millisecond))
		m.Start()
		node.Run(node.Now().Add(sim.Duration(horizon)))
		return out{m.MaxQPS(), m.AvgQPS(node.Now()), m.MaxTPS(), m.AvgTPS(node.Now())}
	}
	b, tc := run(false), run(true)
	rows := []struct {
		name     string
		bv, tv   float64
		valueKey string
	}{
		{"max_query", b.maxQ, tc.maxQ, "max_query"},
		{"avg_query", b.avgQ, tc.avgQ, "avg_query"},
		{"max_trans", b.maxT, tc.maxT, "max_trans"},
		{"avg_trans", b.avgT, tc.avgT, "avg_trans"},
	}
	for _, r := range rows {
		tbl.AddRow(r.name, r.bv, r.tv, fmt.Sprintf("%+.2f%%", pct(r.bv, r.tv)))
		res.Values[r.valueKey+".baseline"] = r.bv
		res.Values[r.valueKey+".taichi"] = r.tv
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes, "paper: 1.56% average overhead (max 1.63%)")
	return res
}

// Fig16Nginx reproduces Figure 16: Nginx requests/sec under wrk with 10k
// connections, HTTP and HTTPS, long and short connections. The paper
// reports 0.51% average overhead (up to 1% for short connections).
func Fig16Nginx(scale Scale) *Result {
	res := newResult("Figure 16: Nginx (10k connections)")
	tbl := metrics.NewTable("Figure 16", "case", "baseline_rps", "taichi_rps", "overhead")
	horizon := scale.dur(3 * sim.Second)

	cases := []struct {
		name         string
		https, short bool
	}{
		{"http_long", false, false},
		{"http_short", false, true},
		{"https_long", true, false},
		{"https_short", true, true},
	}
	for _, cse := range cases {
		var vals [2]float64
		for i, taichi := range []bool{false, true} {
			var node *platform.Node
			var host cluster.Host
			if taichi {
				tc := core.NewDefault(1600)
				node, host = tc.Node, tc
			} else {
				b := baseline.NewStaticDefault(1600)
				node, host = b.Node, b
			}
			withHeavyCPLoad(host)
			cfg := workload.DefaultNginx(cse.https, cse.short)
			cfg.Phase = workload.NewPhaser(node.Engine, node.Stream("fig16.phase"), 700*sim.Microsecond, 250*sim.Microsecond)
			cfg.Connections = int(10000 * scale.Factor)
			if cfg.Connections < 2000 {
				cfg.Connections = 2000
			}
			n := workload.NewNginx(node, cfg)
			node.Run(sim.Time(200 * sim.Millisecond))
			n.Start()
			node.Run(node.Now().Add(sim.Duration(horizon)))
			vals[i] = n.RPS(node.Now())
		}
		tbl.AddRow(cse.name, vals[0], vals[1], fmt.Sprintf("%+.2f%%", pct(vals[0], vals[1])))
		res.Values[cse.name+".baseline"] = vals[0]
		res.Values[cse.name+".taichi"] = vals[1]
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes, "paper: 0.51% average overhead, up to 1% on short connections")
	return res
}

// Fig17VMStartup reproduces Figure 17: average VM startup time versus
// instance density, with and without Tai Chi, in the high-density regime.
// The paper reports a 3.1× reduction with Tai Chi.
func Fig17VMStartup(scale Scale) *Result {
	res := newResult("Figure 17: VM startup vs density, static vs Tai Chi")
	tbl := metrics.NewTable("Figure 17", "density", "static(SLO=1)", "taichi(SLO=1)", "improvement")
	series := &metrics.Series{Name: "fig17", XLabel: "density", YLabel: "startup/SLO"}
	horizon := scale.dur(20 * sim.Second)

	densities := []float64{1, 2, 3, 4}
	type pair struct{ static, taichi float64 }
	pairs := make([]pair, len(densities))
	// The static/taichi runs at each density are independent simulations;
	// sweep all of them on the worker pool, then report in density order.
	fleet.ForEach(2*len(densities), scale.Workers, func(i int) {
		density := densities[i/2]
		taichi := i%2 == 1
		var host cluster.Host
		var node *platform.Node
		if taichi {
			tc := core.NewDefault(1700 + int64(density))
			host, node = tc, tc.Node
		} else {
			b := baseline.NewStaticDefault(1700 + int64(density))
			host, node = b, b.Node
		}
		bg := workload.NewBackground(node, coarseBackground(0.30))
		bg.Start()
		mgr := cluster.NewManager(host, cluster.DefaultConfig(density))
		mgr.Start()
		node.Run(sim.Time(horizon))
		if taichi {
			pairs[i/2].taichi = mgr.NormalizedStartup()
		} else {
			pairs[i/2].static = mgr.NormalizedStartup()
		}
	})
	for i, density := range densities {
		st, tch := pairs[i].static, pairs[i].taichi
		imp := st / tch
		tbl.AddRow(density, st, tch, fmt.Sprintf("%.2fx", imp))
		series.Add(density, tch)
		res.Values[fmt.Sprintf("improvement_%gx", density)] = imp
	}
	res.Tables = append(res.Tables, tbl)
	res.Series = append(res.Series, series)
	res.Notes = append(res.Notes, "paper: 3.1x startup reduction at high density")
	return res
}

// Sec8DynamicDP reproduces the §8 proof of concept: reallocating 50% of
// the CP's physical cores to the DP (Tai Chi keeps CP whole by borrowing
// idle DP cycles back). The paper reports +39% peak IOPS and +43% CPS
// with CP performance preserved.
func Sec8DynamicDP(scale Scale) *Result {
	res := newResult("Section 8: dynamic repartition (+2 DP cores from CP)")
	tbl := metrics.NewTable("Section 8", "config", "CPS", "IOPS", "cp_exec_ms")
	horizon := scale.dur(4 * sim.Second)

	run := func(repartition bool) (cps, iops, cpms float64) {
		opts := platform.DefaultOptions()
		opts.Seed = 1800
		if repartition {
			// 50% of CP cores move to the DP: 5 net + 5 storage + 2 CP.
			opts.Topology = platform.Topology{
				NetCores:  []int{0, 1, 2, 3, 8},
				StorCores: []int{4, 5, 6, 7, 9},
				CPCores:   []int{10, 11},
			}
		}
		tc := core.New(platform.NewNode(opts), core.DefaultConfig())
		withCPLoad(tc)
		// Phase 1: peak throughput under saturating benchmarks.
		crr := workload.NewCRR(tc.Node, workload.DefaultCRR())
		fio := workload.NewFio(tc.Node)
		tc.Run(sim.Time(200 * sim.Millisecond))
		crr.Start()
		fio.Start()
		tc.Run(tc.Node.Now().Add(sim.Duration(horizon)))
		cps, iops = crr.CPS(tc.Node.Now()), fio.IOPS(tc.Node.Now())
		crr.Stop()
		fio.Stop()
		// Phase 2: CP SLO check at the normal DP operating point, where
		// the halved CP partition borrows idle DP cycles back.
		bg := workload.NewBackground(tc.Node, coarseBackground(0.30))
		bg.Start()
		synth := controlplane.DefaultSynthCP()
		synth.Total = 20 * sim.Millisecond
		tasks := spawnSynthBatch(tc, synth, 8)
		tc.Run(tc.Node.Now().Add(sim.Duration(horizon)))
		return cps, iops, meanTurnaround(tasks, horizon).Milliseconds()
	}
	c0, i0, m0 := run(false)
	c1, i1, m1 := run(true)
	tbl.AddRow("default (8 DP / 4 CP)", c0, i0, m0)
	tbl.AddRow("repartitioned (10 DP / 2 CP)", c1, i1, m1)
	res.Tables = append(res.Tables, tbl)
	res.Values["cps_gain_pct"] = pct(c0, c1)
	res.Values["iops_gain_pct"] = pct(i0, i1)
	res.Values["cp_exec_default_ms"] = m0
	res.Values["cp_exec_repart_ms"] = m1
	res.Notes = append(res.Notes, "paper: +43% CPS, +39% peak IOPS, CP performance preserved")
	return res
}
