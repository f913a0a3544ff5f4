package experiments

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Table1Granularity reproduces Table 1's quantitative axis: the measured
// preemption granularity (request-to-DP-resume latency) of a conventional
// OS-scheduler co-scheduler (the Shenango/Caladan/Concord/Skyloft/Vessel
// family, which cannot bypass non-preemptible routines) versus Tai Chi.
func Table1Granularity(scale Scale) *Result {
	res := newResult("Table 1: preemption granularity (conventional vs Tai Chi)")
	tbl := metrics.NewTable("Table 1", "framework", "p50", "p99", "max", "granularity class")

	measure := func(naive bool) metrics.Summary {
		var tc *core.TaiChi
		if naive {
			tc = baseline.NewNaive(2100)
		} else {
			tc = core.NewDefault(2100)
		}
		// CP tasks with the Figure 5 non-preemptible mix.
		cfg := controlplane.DefaultSynthCP()
		cfg.Total = sim.Duration(sim.Hour)
		cfg.NonPreemptFrac = 0.15
		for i := 0; i < 8; i++ {
			tc.SpawnCP(fmt.Sprintf("cp%d", i), controlplane.SynthCP(cfg, tc.Stream(fmt.Sprintf("cp%d", i))))
		}
		tc.Run(sim.Time(20 * sim.Millisecond))
		n := int(200 * scale.Factor)
		if n < 50 {
			n = 50
		}
		for i := 0; i < n; i++ {
			var target *int
			for _, c := range tc.Node.DPCores() {
				if c.State().String() == "yielded" {
					id := c.ID
					target = &id
					break
				}
			}
			if target != nil {
				tc.Node.Pipe.Inject(&accel.Packet{Core: *target, Work: sim.Microsecond})
			}
			tc.Run(tc.Node.Now().Add(sim.Duration(4 * sim.Millisecond)))
		}
		return tc.Sched.PreemptLatency.Summarize()
	}

	naive := measure(true)
	taichi := measure(false)
	class := func(s metrics.Summary) string {
		if s.P99 >= sim.Millisecond {
			return "ms-scale"
		}
		return "µs-scale"
	}
	tbl.AddRow("conventional (Shenango/Caladan/Concord/Skyloft/Vessel class)",
		naive.P50.String(), naive.P99.String(), naive.Max.String(), class(naive))
	tbl.AddRow("Tai Chi", taichi.P50.String(), taichi.P99.String(), taichi.Max.String(), class(taichi))
	res.Tables = append(res.Tables, tbl)
	res.Values["naive_p99_us"] = naive.P99.Microseconds()
	res.Values["taichi_p99_us"] = taichi.P99.Microseconds()
	res.Notes = append(res.Notes,
		"paper Table 1: prior systems ms-scale (cannot bypass non-preemptible routines); Tai Chi µs-scale")
	return res
}

// Table2Properties reproduces Table 2: the structural comparison between
// type-1 virtualization, type-2 virtualization, and Tai Chi — verified
// against the actual assemblies rather than asserted.
func Table2Properties(Scale) *Result {
	res := newResult("Table 2: type-1 vs type-2 vs Tai Chi properties")
	tbl := metrics.NewTable("Table 2", "property", "Type-1 (Xen-like)", "Type-2 (QEMU+KVM)", "Tai Chi")

	t1 := baseline.NewType1(2201)
	t2 := baseline.NewType2(2202)
	tc := core.NewDefault(2203)

	// DP residency: type-1 runs the DP inside vCPU contexts (tax > 1).
	dpTax := func(n *platform.Node) float64 { return n.Opts.Net.TaxFactor }
	tbl.AddRow("DP residency",
		fmt.Sprintf("guest (tax %.0f%%)", 100*(dpTax(t1.Node)-1)),
		"SmartNIC OS", "SmartNIC OS")

	// DP cores available.
	tbl.AddRow("DP cores", len(t1.Node.Opts.Topology.DPCores()),
		len(t2.Node.Opts.Topology.DPCores()), len(tc.Node.Opts.Topology.DPCores()))

	// CP residency.
	tbl.AddRow("CP residency (vCPU)", "guest OS", "guest OS", "SmartNIC OS (hybrid)")

	// OS count: type-2 carries a second kernel.
	tbl.AddRow("OS count", 1, 2, 1)

	// DP-CP IPC: measure one device-configuration round trip.
	rtt := func(h cluster.Host) sim.Duration {
		engine := h.Engine()
		start := engine.Now()
		var done sim.Time
		h.Coordinator().ConfigureDevice(0, func(bool) { done = engine.Now() })
		engine.Run(start.Add(sim.Duration(10 * sim.Millisecond)))
		return done.Sub(start)
	}
	t2RTT := rtt(t2)
	tcRTT := rtt(tc)
	tbl.AddRow("DP-CP IPC round trip", "native", t2RTT.String()+" (RPC)", tcRTT.String()+" (native)")
	res.Values["type2_ipc_us"] = t2RTT.Microseconds()
	res.Values["taichi_ipc_us"] = tcRTT.Microseconds()

	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes,
		"paper Table 2: Tai Chi keeps DP native, one OS, native IPC; type-2 breaks IPC and burns cores")
	return res
}

// AblationAdaptiveSlice compares the adaptive vCPU time slice (§4.1)
// against a fixed 50 µs slice: the adaptive policy cuts VM-exit churn
// during sustained idleness without hurting preemption latency.
func AblationAdaptiveSlice(scale Scale) *Result {
	res := newResult("Ablation: adaptive vs fixed vCPU time slice")
	tbl := metrics.NewTable("Ablation slice", "policy", "vm_exits", "timer_exits", "preempt_p99")

	run := func(adaptive bool) (exits, timer uint64, p99 sim.Duration) {
		opts := platform.DefaultOptions()
		opts.Seed = 2300
		cfg := core.DefaultConfig()
		cfg.AdaptiveSlice = adaptive
		tc := core.New(platform.NewNode(opts), cfg)
		withCPLoad(tc)
		for i := 0; i < 8; i++ {
			tc.SpawnCP(fmt.Sprintf("hog%d", i), &kernel.SliceProgram{Segments: []kernel.Segment{
				{Kind: kernel.SegCompute, Dur: sim.Duration(sim.Hour)},
			}})
		}
		bg := workload.NewBackground(tc.Node, coarseBackground(0.15))
		bg.Start()
		tc.Run(sim.Time(scale.dur(4 * sim.Second)))
		for _, v := range tc.Sched.VCPUs() {
			exits += v.Exits
			timer += v.ExitsByWhy[1] // vcpu.ExitTimer
		}
		return exits, timer, tc.Sched.PreemptLatency.Quantile(0.99)
	}
	fx, ft, fp := run(false)
	ax, at, ap := run(true)
	tbl.AddRow("fixed 50µs", fx, ft, fp.String())
	tbl.AddRow("adaptive (50µs, x2, reset)", ax, at, ap.String())
	res.Tables = append(res.Tables, tbl)
	res.Values["fixed_exits"] = float64(fx)
	res.Values["adaptive_exits"] = float64(ax)
	res.Notes = append(res.Notes, "adaptive slices reduce exit churn under sustained idleness (§4.1)")
	return res
}

// AblationAdaptiveYield compares the adaptive empty-poll threshold (§4.3)
// against a fixed threshold under shifting traffic: adaptation suppresses
// false-positive yields when traffic is steady and yields eagerly when it
// is not.
func AblationAdaptiveYield(scale Scale) *Result {
	res := newResult("Ablation: adaptive vs fixed yield threshold")
	tbl := metrics.NewTable("Ablation yield", "policy", "yields", "false_positive_preempts", "fp_ratio")

	run := func(adaptive bool) (yields, preempts uint64) {
		opts := platform.DefaultOptions()
		opts.Seed = 2400
		cfg := core.DefaultConfig()
		cfg.AdaptiveYield = adaptive
		tc := core.New(platform.NewNode(opts), cfg)
		withCPLoad(tc)
		for i := 0; i < 8; i++ {
			tc.SpawnCP(fmt.Sprintf("hog%d", i), &kernel.SliceProgram{Segments: []kernel.Segment{
				{Kind: kernel.SegCompute, Dur: sim.Duration(sim.Hour)},
			}})
		}
		bg := workload.NewBackground(tc.Node, workload.DefaultBackground(0.35))
		bg.Start()
		tc.Run(sim.Time(scale.dur(3 * sim.Second)))
		return tc.Sched.Yields.Value(), tc.Sched.Preempts.Value()
	}
	fy, fp := run(false)
	ay, ap := run(true)
	ratio := func(p, y uint64) string {
		if y == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%.2f", float64(p)/float64(y))
	}
	tbl.AddRow("fixed threshold", fy, fp, ratio(fp, fy))
	tbl.AddRow("adaptive threshold", ay, ap, ratio(ap, ay))
	res.Tables = append(res.Tables, tbl)
	res.Values["fixed_fp_ratio"] = float64(fp) / float64(fy+1)
	res.Values["adaptive_fp_ratio"] = float64(ap) / float64(ay+1)
	res.Notes = append(res.Notes, "adaptation trades yield eagerness against false-positive preemptions (§4.3)")
	return res
}

// AblationLockRescue compares lock-rescue on/off: without it, preempting
// a lock-holding vCPU strands spinners (the §4.1 deadlock hazard).
func AblationLockRescue(scale Scale) *Result {
	res := newResult("Ablation: safe lock-context rescheduling on/off")
	tbl := metrics.NewTable("Ablation rescue", "policy", "completed", "stuck_spinner_ms_ticks", "rescues")

	run := func(rescue bool) (done int, stuckTicks int, rescues uint64) {
		opts := platform.DefaultOptions()
		opts.Seed = 2500
		cfg := core.DefaultConfig()
		cfg.LockRescue = rescue
		tc := core.New(platform.NewNode(opts), cfg)
		// Lock-heavy CP tasks sharing the driver lock, oversubscribing the
		// CP cores so holders land on vCPUs.
		scfg := controlplane.DefaultSynthCP()
		scfg.Total = 20 * sim.Millisecond
		scfg.NonPreemptFrac = 0.5
		scfg.Lock = tc.DriverLock
		tasks := spawnSynthBatch(tc, scfg, 10)
		// Adversarial traffic: brief quiet windows bait yields, then a
		// saturating 3 ms burst keeps every DP core busy — without rescue
		// a preempted lock holder has nowhere to run while spinners burn
		// the CP cores.
		phase := workload.NewPhaser(tc.Node.Engine, tc.Node.Stream("rescue.phase"), 3*sim.Millisecond, 300*sim.Microsecond)
		wcfg := workload.DefaultStream()
		wcfg.Phase = phase
		stream := workload.NewStream(tc.Node, wcfg)
		stream.Start()
		tc.Node.Engine.NewTimer(sim.Millisecond, "experiments.rescue-sample", func() {
			if len(tc.Node.Kernel.DetectStuckSpinners()) > 0 {
				stuckTicks++
			}
		}).Reset(sim.Millisecond)
		tc.Run(sim.Time(scale.dur(4 * sim.Second)))
		for _, t := range tasks {
			if t.State() == kernel.StateDone {
				done++
			}
		}
		return done, stuckTicks, tc.Sched.Rescues.Value()
	}
	d0, s0, r0 := run(false)
	d1, s1, r1 := run(true)
	tbl.AddRow("rescue off", d0, s0, r0)
	tbl.AddRow("rescue on", d1, s1, r1)
	res.Tables = append(res.Tables, tbl)
	res.Values["stuck_ticks_off"] = float64(s0)
	res.Values["stuck_ticks_on"] = float64(s1)
	res.Values["done_on"] = float64(d1)
	res.Notes = append(res.Notes, "rescue guarantees forward progress for preempted lock holders (§4.1)")
	return res
}

// AblationPostedInterrupts compares posted-interrupt injection against
// exit-per-interrupt delivery (§5): without posted interrupts every IPI
// to a running vCPU costs a VM-exit.
func AblationPostedInterrupts(scale Scale) *Result {
	res := newResult("Ablation: posted interrupts on/off")
	tbl := metrics.NewTable("Ablation posted-intr", "mode", "ipi_exits", "total_exits")

	run := func(posted bool) (ipiExits, total uint64) {
		opts := platform.DefaultOptions()
		opts.Seed = 2600
		cfg := core.DefaultConfig()
		cfg.Costs.PostedInterrupts = posted
		tc := core.New(platform.NewNode(opts), cfg)
		// Standing CP demand keeps vCPUs backed on idle DP cores.
		for i := 0; i < 10; i++ {
			tc.SpawnCP(fmt.Sprintf("hog%d", i), &kernel.SliceProgram{Segments: []kernel.Segment{
				{Kind: kernel.SegCompute, Dur: sim.Duration(sim.Hour)},
			}})
		}
		tc.Run(sim.Time(20 * sim.Millisecond))
		// IPC traffic targeting running vCPUs: the destination phase of the
		// unified IPI orchestrator must inject into a live guest — via
		// posted interrupts, or via a forced VM-exit without them.
		tc.Node.Kernel.RegisterIPIHandler(kernel.VecUser+2, func(kernel.CPUID, int64) {})
		tick := tc.Node.Engine.NewTimer(100*sim.Microsecond, "experiments.posted-ipi", func() {
			for _, v := range tc.Sched.VCPUs() {
				if v.State().String() == "running" {
					tc.Node.Kernel.SendIPI(8, v.ID(), kernel.VecUser+2, 0)
					break
				}
			}
		})
		tick.Reset(100 * sim.Microsecond)
		tc.Run(tc.Node.Now().Add(sim.Duration(scale.dur(2 * sim.Second))))
		tick.Stop()
		for _, v := range tc.Sched.VCPUs() {
			ipiExits += v.ExitsByWhy[3] // vcpu.ExitIPI
			total += v.Exits
		}
		return ipiExits, total
	}
	pi, pt := run(true)
	ui, ut := run(false)
	tbl.AddRow("posted interrupts", pi, pt)
	tbl.AddRow("exit per interrupt", ui, ut)
	res.Tables = append(res.Tables, tbl)
	res.Values["posted_ipi_exits"] = float64(pi)
	res.Values["unposted_ipi_exits"] = float64(ui)
	res.Notes = append(res.Notes, "posted interrupts eliminate IPI-induced VM-exits (§5)")
	return res
}

// AblationConnTrack exercises the network DP's connection-tracking table
// (the vSwitch flow-table behind the paper's CPS numbers): a right-sized
// table adds only lookup costs, while an undersized one thrashes through
// LRU evictions on connection churn and visibly cuts connections/sec.
func AblationConnTrack(scale Scale) *Result {
	res := newResult("Ablation: DP connection-table sizing under churn")
	tbl := metrics.NewTable("Ablation conntrack", "table", "CPS", "evictions", "flows")
	horizon := scale.dur(2 * sim.Second)

	run := func(capacity int) (cps float64, ev uint64, flows int) {
		opts := platform.DefaultOptions()
		opts.Seed = 2800
		opts.HWProbe = false
		node := platform.NewNode(opts)
		node.Net.EnableConnTrack(capacity)
		cfg := workload.DefaultCRR()
		cfg.Connections = 1024
		crr := workload.NewCRR(node, cfg)
		crr.Start()
		node.Run(sim.Time(horizon))
		stats := node.Net.ConnTrack()
		return crr.CPS(node.Now()), stats.Evictions, stats.Flows
	}
	bigCPS, bigEv, bigFlows := run(64 << 10) // production-like 64k: no pressure
	smallCPS, smallEv, smallFlows := run(64)
	tbl.AddRow("64k flows/core", bigCPS, bigEv, bigFlows)
	tbl.AddRow("64 flows/core (thrashing)", smallCPS, smallEv, smallFlows)
	res.Tables = append(res.Tables, tbl)
	res.Values["cps_big"] = bigCPS
	res.Values["cps_small"] = smallCPS
	res.Values["evictions_small"] = float64(smallEv)
	res.Notes = append(res.Notes, "undersized flow tables turn connection churn into eviction work")
	return res
}

// AblationIPIV measures the §5 IPI-virtualization support: without IPIV
// (and without hardware send assistance), an IPI *sent by* a running vCPU
// forces a VM-exit so the host can reissue it (Figure 8b's source phase),
// adding the exit cost to every cross-CPU call a guest CP task makes —
// the TLB-shootdown/smp_call_function pattern.
func AblationIPIV(scale Scale) *Result {
	res := newResult("Ablation: IPI virtualization (source-phase exits)")
	tbl := metrics.NewTable("Ablation IPIV", "mode", "ipis_sent", "source_exits", "delivery_p50")
	horizon := scale.dur(2 * sim.Second)

	run := func(ipiv bool) (sent uint64, srcExits uint64, p50 sim.Duration) {
		tc := core.NewDefault(2900)
		if !ipiv {
			tc.Sched.Orchestrator().SourceExitCost = 2 * sim.Microsecond
		}
		// Keep vCPUs backed so the sender really runs in guest context.
		for i := 0; i < 8; i++ {
			tc.SpawnCP(fmt.Sprintf("hog%d", i), &kernel.SliceProgram{Segments: []kernel.Segment{
				{Kind: kernel.SegCompute, Dur: sim.Duration(sim.Hour)},
			}})
		}
		lat := metrics.NewHistogram("ipi_delivery")
		count := metrics.NewCounter("ipis")
		const vec = kernel.VecUser + 3
		tc.Node.Kernel.RegisterIPIHandler(vec, func(_ kernel.CPUID, sentAt int64) {
			lat.Record(tc.Node.Engine.Now().Sub(sim.Time(sentAt)))
			count.Inc()
		})
		// A vCPU-resident CP task broadcasting cross-CPU calls to the CP
		// pCPUs every iteration (munmap-style shootdown).
		k := tc.Node.Kernel
		cpTarget := kernel.CPUID(tc.Node.Opts.Topology.CPCores[0])
		tc.Node.Kernel.Spawn("shootdown", kernel.ProgramFunc(func(*kernel.Thread) (kernel.Segment, bool) {
			return kernel.Segment{Kind: kernel.SegSyscall, Dur: 100 * sim.Microsecond, OnDone: func() {
				k.SendIPI(-1, cpTarget, vec, int64(tc.Node.Engine.Now()))
			}}, true
		}), tc.Sched.VCPUIDs()...)
		tc.Run(sim.Time(horizon))
		return count.Value(), tc.Sched.Orchestrator().SourceExits, lat.Quantile(0.5)
	}
	s1, e1, p1 := run(true)
	s0, e0, p0 := run(false)
	tbl.AddRow("IPIV (hardware-assisted)", s1, e1, p1.String())
	tbl.AddRow("no IPIV (source VM-exit + reissue)", s0, e0, p0.String())
	res.Tables = append(res.Tables, tbl)
	res.Values["delivery_p50_ipiv_us"] = p1.Microseconds()
	res.Values["delivery_p50_noipiv_us"] = p0.Microseconds()
	res.Values["source_exits_noipiv"] = float64(e0)
	res.Notes = append(res.Notes, "§5: Tai Chi uses Posted-Interrupt/IPIV support to keep vCPU-sourced IPIs exit-free")
	return res
}
