// Command taichi-sim runs one co-scheduling scenario and prints the
// resulting data-plane and control-plane statistics — a workbench for
// exploring the framework outside the fixed paper experiments.
//
// Usage:
//
//	taichi-sim -mode taichi -cp 16 -util 0.3 -dur 5s
//	taichi-sim -mode static -workload crr -dur 2s
//	taichi-sim -mode naive -workload ping
//	taichi-sim -nodes 16 -parallel 8      # fleet of independent nodes
//	taichi-sim -faults default            # chaos run, DefaultSpec faults
//	taichi-sim -faults probe-miss=0.3,ipi-drop=0.1,offline-mtbf=20ms
//	taichi-sim -workload vmstartup -retry -cp 4 -faults default
//	taichi-sim -faults default -recover           # self-healing ladder armed
//	taichi-sim -faults default -recover -audit    # + invariant audit after the run
//	taichi-sim -nodes 8 -place pressure           # signal-driven cluster placer
//	taichi-sim -nodes 8 -place rr -rebalance=false -recover -audit \
//	           -faults exit-stall=0.2,cp-crash=0.05,nack=0.2,coord-timeout=0.1
//	taichi-sim -mode static -workload monitors -dur 5s -export trace.json
//	taichi-sim -workload monitors -timeline 10ms
//	taichi-sim -workload vmstartup -retry -faults default -export trace.json
//	taichi-sim -nodes 4 -parallel 8 -export fleet.json
//
// Modes: taichi, static, type1, type2, naive.
// Workloads: none, ping, crr, stream, rr, fio, mysql, nginx, vmstartup,
// monitors.
//
// With -nodes N > 1, N independently-seeded copies of the scenario run
// on a bounded worker pool (internal/fleet) and the merged fleet-wide
// statistics are printed. Same seed + any -parallel value gives the same
// output.
//
// The vmstartup workload drives the cluster VM-creation pipeline;
// -retry arms per-request deadlines, exponential-backoff retries and
// dead-lettering; setting it with any other workload is an error.
//
// -recover arms the self-healing layer: the scheduler's de-escalation
// ladder (static → sw-probe → normal, on the fixed tuning of
// internal/core/recovery.go) and, with -retry -workload vmstartup, the bounded
// dead-letter requeue (cluster.DefaultRequeuePolicy, health-gated on the
// node's defense mode and breaker).
//
// -overload arms the overload-control layer: the scheduler's brownout
// ladder (normal → throttle → shed → brownout, on the fixed tuning of
// internal/core/overload.go) and, with -workload vmstartup, the deterministic
// admission gate with priority-aware load shedding
// (cluster.DefaultAdmissionPolicy + DefaultClassify).
//
// -place <policy> switches the fleet under the cluster placer
// (internal/placement): instead of each node running its own arrival
// process, VM startups arrive at cluster level and the chosen policy
// (rr, spread, binpack, pressure) routes each one to a member using the
// overload ladder's live signals; -rebalance (on by default) also runs
// the hotspot scan + budgeted live-migration loop. Requires -nodes > 1;
// -util sets every member's background, -overload arms the admission
// gates, -faults and -recover arm every member's injector and recovery
// ladder, -audit replays the placer trace too. The placer is the fleet's
// only re-dispatch path: it never places on a breaker-open or browned-out
// member, and re-places dead-lettered startups under a bounce budget.
// Placed mode reads only the flags in placedFlags; setting any other
// flag is an error, and so is setting -rebalance without -place.
//
// -audit replays every node's trace through the runtime invariant
// auditor (internal/audit) after the run and exits non-zero on any
// violation.
//
// The monitors workload is the paper's §3.2 production CP mix: 12
// periodic controlplane.Monitor threads beside the -cp churn. -export
// analyzes node 0's trace the way §3.2 does — the non-preemptible
// routine census (Figure 5), IPI delivery latency and VM-exit reasons
// — prints every node's derived-span summary (internal/obs), and
// streams every node's trace into a Chrome trace-event JSON file
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
// The file is byte-identical across repeated runs and -parallel worker
// counts: nodes are serialized in member-index order. -timeline prints
// node 0's raw event timeline for the first DUR of simulated time.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// scenario is one fully-wired node plus its reporting hooks.
type scenario struct {
	node  *platform.Node
	tc    *core.TaiChi
	inj   *faults.Injector // nil unless -faults armed
	tasks []*kernel.Thread
	mgr   *cluster.Manager // nil unless -workload vmstartup
	// report prints the workload's human-readable result (single-node mode).
	report func()
	// collect folds the workload's metrics into fleet aggregates.
	collect func(agg *fleet.Aggregates)
}

// params are the per-node scenario flags, shared by single-node and
// fleet mode.
type params struct {
	mode, wl          string
	cp                int
	util              float64
	spec              faults.Spec
	retry, recov, ovl bool
	horizon           sim.Duration
}

// newHost assembles the node flavour for one seed.
func newHost(mode string, seed int64) (node *platform.Node, tc *core.TaiChi, h cluster.Host, err error) {
	switch mode {
	case "taichi":
		tc = core.NewDefault(seed)
		node, h = tc.Node, tc
	case "static":
		b := baseline.NewStaticDefault(seed)
		node, h = b.Node, b
	case "type1":
		tc = baseline.NewType1(seed)
		node, h = tc.Node, tc
	case "type2":
		b := baseline.NewType2(seed)
		node, h = b.Node, b
	case "naive":
		tc = baseline.NewNaive(seed)
		node, h = tc.Node, tc
	default:
		err = fmt.Errorf("unknown mode %q", mode)
	}
	return node, tc, h, err
}

// build assembles the scenario for one seed; it is run once in
// single-node mode and once per member in fleet mode.
func build(p params, seed int64) (*scenario, error) {
	sc := &scenario{}
	var h cluster.Host
	var err error
	sc.node, sc.tc, h, err = newHost(p.mode, seed)
	if err != nil {
		return nil, err
	}
	node := sc.node

	// Fault injection rides the Tai Chi scheduler's defense hooks, so it
	// needs a mode built around core.TaiChi.
	wrapCP := func(p kernel.Program) kernel.Program { return p }
	if !p.spec.Zero() {
		if sc.tc == nil {
			return nil, fmt.Errorf("-faults requires a Tai Chi scheduler mode (taichi, type1, naive), not %q", p.mode)
		}
		sc.inj = faults.NewInjector(p.spec)
		sc.inj.Attach(sc.tc)
		wrapCP = sc.inj.WrapCP
	}
	if p.recov {
		if sc.tc == nil {
			return nil, fmt.Errorf("-recover requires a Tai Chi scheduler mode (taichi, type1, naive), not %q", p.mode)
		}
		sc.tc.Sched.EnableRecovery(core.DefaultRecoveryPolicy())
	}
	if p.ovl {
		if sc.tc == nil {
			return nil, fmt.Errorf("-overload requires a Tai Chi scheduler mode (taichi, type1, naive), not %q", p.mode)
		}
		sc.tc.Sched.EnableOverload(core.DefaultOverloadPolicy())
	}

	// Background DP load.
	if p.util > 0 {
		bg := workload.NewBackground(node, workload.DefaultBackground(p.util))
		bg.Start()
	}

	// CP churn: keep ~cp synth tasks alive.
	if p.cp > 0 {
		cfg := controlplane.DefaultSynthCP()
		r := node.Stream("sim.cp")
		i := 0
		var next *sim.Timer
		spawn := func() {
			sc.tasks = append(sc.tasks, h.SpawnCP(fmt.Sprintf("synth%d", i), wrapCP(controlplane.SynthCP(cfg, r))))
			i++
			next.Reset(sim.Exponential(r, sim.Duration(float64(50*sim.Millisecond)/float64(p.cp))))
		}
		next = node.Engine.NewTimer(0, "taichi-sim.cp-churn", spawn)
		spawn()
	}

	// Foreground benchmark.
	switch p.wl {
	case "none":
		sc.report = func() {}
		sc.collect = func(*fleet.Aggregates) {}
	case "ping":
		cfg := workload.DefaultPing()
		cfg.Count = int(p.horizon / workload.PingInterval)
		p := workload.NewPing(node, cfg)
		p.Start(nil)
		sc.report = func() { fmt.Println(p.RTT.Summarize()) }
		sc.collect = func(a *fleet.Aggregates) { a.Merge("ping.rtt", p.RTT) }
	case "crr":
		c := workload.NewCRR(node, workload.DefaultCRR())
		c.Start()
		sc.report = func() {
			fmt.Printf("crr: %.0f conn/s, %.0f pkt/s, lat %v p99 %v\n",
				c.CPS(node.Now()), c.PPS(node.Now()),
				c.TxnLatency.Mean(), c.TxnLatency.Quantile(0.99))
		}
		sc.collect = func(a *fleet.Aggregates) {
			a.Merge("crr.txn_latency", c.TxnLatency)
			a.Add("crr.cps", c.CPS(node.Now()))
			a.Add("crr.pps", c.PPS(node.Now()))
		}
	case "stream":
		s := workload.NewStream(node, workload.DefaultStream())
		s.Start()
		sc.report = func() {
			fmt.Printf("stream: %.0f pkt/s, lat %v p99 %v\n",
				s.PPS(node.Now()), s.Latency.Mean(), s.Latency.Quantile(0.99))
		}
		sc.collect = func(a *fleet.Aggregates) {
			a.Merge("stream.latency", s.Latency)
			a.Add("stream.pps", s.PPS(node.Now()))
		}
	case "rr":
		r := workload.NewRR(node, workload.DefaultRR())
		r.Start()
		sc.report = func() {
			fmt.Printf("rr: %.0f pkt/s, lat %v p99 %v\n",
				r.PPS(node.Now()), r.Latency.Mean(), r.Latency.Quantile(0.99))
		}
		sc.collect = func(a *fleet.Aggregates) {
			a.Merge("rr.latency", r.Latency)
			a.Add("rr.pps", r.PPS(node.Now()))
		}
	case "fio":
		f := workload.NewFio(node)
		f.Start()
		sc.report = func() {
			fmt.Printf("fio: %.0f IOPS, %.1f MB/s, lat %v p99 %v\n",
				f.IOPS(node.Now()), f.BandwidthMBps(node.Now()),
				f.Latency.Mean(), f.Latency.Quantile(0.99))
		}
		sc.collect = func(a *fleet.Aggregates) {
			a.Merge("fio.latency", f.Latency)
			a.Add("fio.iops", f.IOPS(node.Now()))
			a.Add("fio.bw_mbps", f.BandwidthMBps(node.Now()))
		}
	case "mysql":
		m := workload.NewMySQL(node, workload.DefaultMySQL())
		m.Start()
		sc.report = func() {
			fmt.Printf("mysql: %.0f q/s avg, %.0f q/s max, %.0f tx/s\n",
				m.AvgQPS(node.Now()), m.MaxQPS(), m.AvgTPS(node.Now()))
		}
		sc.collect = func(a *fleet.Aggregates) {
			a.Add("mysql.avg_qps", m.AvgQPS(node.Now()))
			a.Add("mysql.avg_tps", m.AvgTPS(node.Now()))
		}
	case "monitors":
		for i := 0; i < 12; i++ {
			h.SpawnCP(fmt.Sprintf("monitor%d", i), wrapCP(controlplane.Monitor(
				node.Stream(fmt.Sprintf("sim.mon%d", i)))))
		}
		sc.report = func() {}
		sc.collect = func(*fleet.Aggregates) {}
	case "nginx":
		n := workload.NewNginx(node, workload.DefaultNginx(false, true))
		n.Start()
		sc.report = func() { fmt.Printf("nginx: %.0f req/s\n", n.RPS(node.Now())) }
		sc.collect = func(a *fleet.Aggregates) { a.Add("nginx.rps", n.RPS(node.Now())) }
	case "vmstartup":
		ccfg := cluster.DefaultConfig(1)
		ccfg.VMLifetime = 0
		if p.retry {
			ccfg.Retry = cluster.DefaultRetryPolicy()
		}
		if p.retry && p.recov {
			// The dead-letter requeue only makes sense with the retry
			// pipeline; gate resurrections on the node's live health so a
			// statically-degraded or breaker-open node does not re-ingest
			// its own dead letters.
			ccfg.Requeue = cluster.DefaultRequeuePolicy()
			ccfg.Healthy = func() bool { return healthyNode(sc) }
		}
		if p.ovl {
			// The overload layer: the admission gate + priority shedder on
			// the manager, fed by the node's live brownout-ladder rung.
			ccfg.Admission = cluster.DefaultAdmissionPolicy()
			ccfg.Classify = cluster.DefaultClassify
			ccfg.OverloadLevel = func() int { return int(sc.tc.Sched.OverloadState()) }
		}
		if sc.inj != nil {
			ccfg.WrapCP = sc.inj.WrapCP
		}
		m := cluster.NewManager(h, ccfg)
		m.Start()
		sc.mgr = m
		sc.report = func() {
			fmt.Printf("vmstartup: %s\n", m.Outcomes.String())
			fmt.Printf("vmstartup: startup mean %v p99 %v (SLO %v)\n",
				m.StartupTime.Mean(), m.StartupTime.Quantile(0.99), cluster.StartupSLO)
			if p.ovl {
				sh := m.ShedByClass()
				fmt.Printf("vmstartup: shed batch=%d normal=%d latency-critical=%d queued=%d\n",
					sh[cluster.PriorityBatch], sh[cluster.PriorityNormal],
					sh[cluster.PriorityLatencyCritical], m.QueuedAdmission())
			}
		}
		sc.collect = func(a *fleet.Aggregates) {
			collectVMs(a, m)
			if p.ovl {
				sh := m.ShedByClass()
				a.Add("vm.shed", float64(m.Shed()))
				a.Add("vm.shed_batch", float64(sh[cluster.PriorityBatch]))
				a.Add("vm.shed_normal", float64(sh[cluster.PriorityNormal]))
				a.Add("vm.shed_lc", float64(sh[cluster.PriorityLatencyCritical]))
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", p.wl)
	}
	return sc, nil
}

// collectVMs folds the VM-startup request outcomes into fleet
// aggregates.
func collectVMs(a *fleet.Aggregates, m *cluster.Manager) {
	a.Merge("vm.startup", m.StartupTime)
	a.Add("vm.issued", float64(m.Issued))
	a.Add("vm.completed", float64(m.Completed))
	a.Add("vm.retried", float64(m.Retried()))
	a.Add("vm.dead_lettered", float64(m.DeadLettered()))
}

// healthyNode reports whether the node can take back its own dead
// letters: defense ladder above static fallback and the CP→DP breaker
// not stuck open. Nodes without Tai Chi internals (the static baseline)
// have neither signal and count as healthy.
func healthyNode(sc *scenario) bool {
	if sc.tc == nil {
		return true
	}
	if sc.tc.Sched.DefenseMode() == core.ModeStatic {
		return false
	}
	if sc.tc.Breaker != nil && sc.tc.Breaker.State() == controlplane.BreakerOpen {
		return false
	}
	return true
}

// auditNode replays the node's trace through the runtime invariant
// auditor, including the breaker counter snapshot when one is installed.
func auditNode(sc *scenario) *audit.Report {
	var bc *controlplane.BreakerCounters
	if sc.tc != nil && sc.tc.Breaker != nil {
		c := sc.tc.Breaker.Counters()
		bc = &c
	}
	return audit.Run(sc.node.Tracer.Events(), audit.Options{
		Breaker:       bc,
		DroppedEvents: sc.node.Tracer.Dropped(),
	})
}

// cpSummary folds the scenario's synth-task outcomes into a histogram.
func cpSummary(tasks []*kernel.Thread) (done int, h *metrics.Histogram) {
	h = metrics.NewHistogram("cp.turnaround")
	for _, t := range tasks {
		if t.State() == kernel.StateDone {
			done++
			h.Record(t.Turnaround())
		}
	}
	return done, h
}

func main() {
	mode := flag.String("mode", "taichi", "taichi | static | type1 | type2 | naive")
	wl := flag.String("workload", "crr", "none | ping | crr | stream | rr | fio | mysql | nginx | vmstartup | monitors (12 periodic CP monitors)")
	cp := flag.Int("cp", 16, "concurrent synth_cp tasks (50ms each, continuous churn)")
	util := flag.Float64("util", 0.30, "background DP utilization target")
	durFlag := flag.Duration("dur", 2*time.Second, "simulated duration")
	seed := flag.Int64("seed", 1, "experiment seed")
	nodes := flag.Int("nodes", 1, "independently-seeded nodes running the scenario (fleet mode when > 1)")
	parallel := flag.Int("parallel", 0, "fleet worker-pool size (0 = GOMAXPROCS; output is identical for any value)")
	faultsFlag := flag.String("faults", "off", "fault-injection spec: off | default | key=value,... (see internal/faults.ParseSpec)")
	retry := flag.Bool("retry", false, "enable per-request deadlines, retries and dead-lettering for -workload vmstartup")
	recov := flag.Bool("recover", false, "arm the self-healing layer: scheduler de-escalation ladder, and (with -retry -workload vmstartup) the health-gated dead-letter requeue")
	overload := flag.Bool("overload", false, "arm the overload-control layer: the core brownout ladder, and (with -workload vmstartup) the priority-aware admission gate and shedder")
	auditFlag := flag.Bool("audit", false, "replay every node's trace through the runtime invariant auditor after the run; exit 1 on any violation")
	place := flag.String("place", "", "cluster placement policy: rr | spread | binpack | pressure (placed fleet mode, -nodes > 1)")
	rebalance := flag.Bool("rebalance", true, "with -place: run the hotspot scan + budgeted live-migration loop")
	metricsOut := flag.String("metrics", "", "write a metrics snapshot to this file (.prom = Prometheus text, anything else = JSON)")
	simprof := flag.Bool("simprof", false, "engine self-profiling: per-event-class dispatch counts, heap high-water mark, wall-clock attribution (single-node only)")
	var tr traceOpts
	flag.StringVar(&tr.export, "export", "", "analyze node 0's trace, summarize every node's spans, and write every node's trace as Chrome trace-event JSON (Perfetto-loadable) to this file")
	flag.DurationVar(&tr.timeline, "timeline", 0, "print node 0's raw event timeline for the first DUR of simulated time")
	flag.Parse()

	if err := checkNumericFlags(*durFlag, *util, *cp, *nodes, *parallel, tr.timeline); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	horizon := sim.Duration(durFlag.Nanoseconds())

	spec, err := faults.ParseSpec(*faultsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	p := params{mode: *mode, wl: *wl, cp: *cp, util: *util, spec: spec,
		retry: *retry, recov: *recov, ovl: *overload, horizon: horizon}
	if *place != "" {
		pol := placement.Policy(*place)
		if !pol.Valid() {
			fmt.Fprintf(os.Stderr, "unknown placement policy %q (rr | spread | binpack | pressure)\n", *place)
			os.Exit(2)
		}
		if *nodes <= 1 {
			fmt.Fprintln(os.Stderr, "-place needs -nodes > 1")
			os.Exit(2)
		}
		if err := checkPlacedFlags(flag.CommandLine); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		runPlaced(pol, spec, *rebalance, *recov, *overload, *auditFlag, *seed, *util, *nodes, *parallel)
		return
	}

	if err := checkUnplacedFlags(flag.CommandLine, *wl); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *nodes > 1 {
		if *simprof {
			fmt.Fprintln(os.Stderr, "-simprof profiles one engine; use it with -nodes 1")
			os.Exit(2)
		}
		runFleet(p, *auditFlag, *seed, *nodes, *parallel, *metricsOut, tr)
		return
	}

	sc, err := build(p, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	node := sc.node

	var prof *sim.Profile
	if *simprof {
		prof = sim.NewProfile()
		// Wall-clock attribution is injected here, in cmd/ where wall
		// time is legal — the engine itself never reads a clock.
		prof.Clock = func() int64 { return time.Now().UnixNano() } //taichi:allow walltime — profiler attribution source, never enters simulated state
		node.Engine.EnableProfile(prof)
	}

	start := time.Now() //taichi:allow walltime — operator-facing wall-clock cost of the run; never enters simulated state
	node.Run(node.Now().Add(horizon))
	wall := time.Since(start) //taichi:allow walltime — paired with the start stamp above, reported alongside simulated time

	fmt.Printf("mode=%s workload=%s simulated=%v wall=%.2fs events=%d\n",
		*mode, *wl, horizon, wall.Seconds(), node.Engine.Fired())
	sc.report()

	// CP summary.
	if len(sc.tasks) > 0 {
		done, h := cpSummary(sc.tasks)
		fmt.Printf("cp: %d/%d synth tasks done, turnaround mean %v p99 %v\n",
			done, len(sc.tasks), h.Mean(), h.Quantile(0.99))
	}

	// DP utilization + Tai Chi internals.
	fmt.Printf("dp: net util %.1f%%", 100*node.Net.MeanUtilization())
	if node.Stor != nil {
		fmt.Printf(", stor util %.1f%%", 100*node.Stor.MeanUtilization())
	}
	fmt.Println()
	if sc.tc != nil && sc.tc.Sched != nil {
		fmt.Printf("taichi: yields=%d preempts=%d rotations=%d rescues=%d preempt_lat p99=%v\n",
			sc.tc.Sched.Yields.Value(), sc.tc.Sched.Preempts.Value(),
			sc.tc.Sched.Rotations.Value(), sc.tc.Sched.Rescues.Value(),
			sc.tc.Sched.PreemptLatency.Quantile(0.99))
	}
	if sc.inj != nil {
		s := sc.tc.Sched
		fmt.Println(sc.inj.Counts.String())
		fmt.Printf("defense: mode=%s detected=%d recovered=%d retries=%d teardowns=%d probe-fallbacks=%d static-fallbacks=%d\n",
			s.DefenseMode(), s.FaultsDetected.Value(), s.FaultsRecovered.Value(),
			s.WatchdogRetries.Value(), s.WatchdogTeardowns.Value(),
			s.ProbeFallbacks.Value(), s.StaticFallbacks.Value())
		if sc.tc.Breaker != nil {
			fmt.Println(sc.tc.Breaker.Describe())
		}
	}
	if *recov && sc.tc != nil {
		rs := sc.tc.Sched.RecoveryStats()
		fmt.Printf("recovery: recoveries=%d reescalations=%d generation=%d rejoined=%v\n",
			sc.tc.Sched.DefenseRecoveries.Value(), sc.tc.Sched.Reescalations.Value(),
			rs.Generation, rs.Rejoined)
	}
	if *overload && sc.tc != nil {
		ovs := sc.tc.Sched.OverloadStats()
		fmt.Printf("overload: state=%s peak=%s pressure=%.3f enters=%d exits=%d\n",
			ovs.State, ovs.Peak, ovs.Pressure,
			sc.tc.Sched.OverloadEnters.Value(), sc.tc.Sched.OverloadExits.Value())
	}

	if prof != nil {
		// Deterministic half first (dispatch counts, heap depth), then the
		// wall-clock attribution, which varies run to run by design.
		fmt.Print(prof.Describe())
		for _, c := range prof.Dispatch() {
			if c.WallNs > 0 {
				fmt.Printf("sim-profile.wall: %s=%.3fms\n", c.Name, float64(c.WallNs)/1e6)
			}
		}
	}

	if *metricsOut != "" {
		writeMetrics(*metricsOut, snapshotScenario(sc))
	}
	printTraces(tr, tr.report(node), []obs.NodeTrace{nodeTrace(*mode, 0, node)})
	if *auditFlag {
		rep := auditNode(sc)
		fmt.Print(rep.String())
		if !rep.Ok() {
			os.Exit(1)
		}
	}
}

// snapshotScenario assembles the single-node metrics snapshot: the
// engine's event count, the workload's collect output, and the scheduler /
// request-manager / fault-injector counters when present.
func snapshotScenario(sc *scenario) *obs.Snapshot {
	snap := obs.NewSnapshot()
	snap.AddCounter("engine_events", sc.node.Engine.Fired())
	agg := fleet.NewAggregates()
	sc.collect(agg)
	for _, name := range agg.HistogramNames() {
		snap.AddHistogram(name, agg.Histogram(name))
	}
	for _, name := range agg.ScalarNames() {
		snap.AddGauge(name, agg.Scalar(name))
	}
	if sc.tc != nil && sc.tc.Sched != nil {
		s := sc.tc.Sched
		snap.AddCounter("sched_yields", s.Yields.Value())
		snap.AddCounter("sched_preempts", s.Preempts.Value())
		snap.AddCounter("sched_rescues", s.Rescues.Value())
		snap.AddCounter("sched_rotations", s.Rotations.Value())
		snap.AddHistogram("sched_preempt_latency", s.PreemptLatency)
	}
	if sc.mgr != nil {
		snap.AddGroup("vm_outcomes", sc.mgr.Outcomes)
		snap.AddHistogram("vm_startup", sc.mgr.StartupTime)
		snap.AddHistogram("vm_cp_exec", sc.mgr.CPExecTime)
	}
	if sc.inj != nil {
		snap.AddGroup("faults_injected", sc.inj.Counts)
	}
	return snap
}

// snapshotFleet assembles the fleet-wide snapshot from merged
// aggregates: histograms as summaries, scalars as gauges.
func snapshotFleet(agg *fleet.Aggregates) *obs.Snapshot {
	snap := obs.NewSnapshot()
	snap.AddCounter("fleet_members", uint64(agg.Members))
	for _, name := range agg.HistogramNames() {
		snap.AddHistogram(name, agg.Histogram(name))
	}
	for _, name := range agg.ScalarNames() {
		snap.AddGauge(name, agg.Scalar(name))
	}
	return snap
}

// writeMetrics renders the snapshot by file extension: .prom gets the
// Prometheus text exposition, anything else JSON.
func writeMetrics(path string, snap *obs.Snapshot) {
	var data []byte
	if strings.HasSuffix(path, ".prom") {
		data = snap.Prometheus()
	} else {
		data = snap.JSON()
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("metrics snapshot written to %s\n", path)
}

// checkNumericFlags rejects flag values the scenario would otherwise
// silently clamp or run empty, naming the offending flag.
func checkNumericFlags(dur time.Duration, util float64, cp, nodes, parallel int, timeline time.Duration) error {
	switch {
	case dur <= 0:
		return fmt.Errorf("-dur must be > 0 (got %v)", dur)
	case !(util >= 0):
		return fmt.Errorf("-util must be >= 0 (got %g)", util)
	case cp < 0:
		return fmt.Errorf("-cp must be >= 0 (got %d)", cp)
	case nodes < 1:
		return fmt.Errorf("-nodes must be >= 1 (got %d)", nodes)
	case parallel < 0:
		return fmt.Errorf("-parallel must be >= 0 (got %d)", parallel)
	case timeline < 0:
		return fmt.Errorf("-timeline must be >= 0 (got %v)", timeline)
	}
	return nil
}

// placedFlags is every flag placed mode (-place) reads; the rest shape
// the per-node scenario that placed mode does not build.
var placedFlags = map[string]bool{
	"nodes": true, "parallel": true, "seed": true, "util": true, "place": true,
	"rebalance": true, "overload": true, "audit": true, "faults": true, "recover": true,
}

// checkPlacedFlags rejects explicitly set flags that placed mode would
// otherwise silently ignore, naming them in lexical order.
func checkPlacedFlags(fs *flag.FlagSet) error {
	var ignored []string
	fs.Visit(func(f *flag.Flag) {
		if !placedFlags[f.Name] {
			ignored = append(ignored, "-"+f.Name)
		}
	})
	if len(ignored) > 0 {
		return fmt.Errorf("-place does not read %s", strings.Join(ignored, ", "))
	}
	return nil
}

// checkUnplacedFlags rejects explicitly set flags that the per-node
// scenario would otherwise silently ignore: -rebalance, which only placed
// mode reads, and -retry with a workload other than vmstartup.
func checkUnplacedFlags(fs *flag.FlagSet, wl string) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		switch {
		case err != nil:
		case f.Name == "rebalance":
			err = fmt.Errorf("-rebalance needs -place")
		case f.Name == "retry" && wl != "vmstartup":
			err = fmt.Errorf("-retry needs -workload vmstartup (got %q)", wl)
		}
	})
	return err
}

// runPlaced executes the placed fleet: n Tai Chi nodes under the cluster
// placer, VM startups arriving at cluster level and routed by the chosen
// policy, with the rebalance loop optionally live-migrating residents
// off hotspots. The run drains when every startup settles; output is
// seed-deterministic for any -parallel value.
func runPlaced(pol placement.Policy, spec faults.Spec, rebalance, recov, ovl, auditFlag bool, seed int64, util float64, n, workers int) {
	start := time.Now() //taichi:allow walltime — operator-facing wall-clock cost of the run; never enters simulated state
	members := make([]*placement.ClusterNode, n)
	ifaces := make([]placement.Member, n)
	for i := 0; i < n; i++ {
		tc := core.NewDefault(fleet.MemberSeed(seed, i))
		ccfg := cluster.DefaultConfig(1)
		if !spec.Zero() {
			inj := faults.NewInjector(spec)
			inj.Attach(tc)
			ccfg.WrapCP = inj.WrapCP
		}
		if recov {
			tc.Sched.EnableRecovery(core.DefaultRecoveryPolicy())
		}
		tc.Sched.EnableOverload(core.DefaultOverloadPolicy())
		if util > 0 {
			bg := workload.NewBackground(tc.Node, workload.DefaultBackground(util))
			bg.Start()
		}
		ccfg.VMLifetime = 0
		ccfg.Retry = cluster.DefaultRetryPolicy()
		if ovl {
			ccfg.Admission = cluster.DefaultAdmissionPolicy()
			ccfg.Classify = cluster.DefaultClassify
			ccfg.OverloadLevel = func() int { return int(tc.Sched.OverloadState()) }
		}
		ccfg.Placement = cluster.DefaultPlacementPolicy()
		mgr := cluster.NewManager(tc, ccfg)
		mgr.Start()
		members[i] = placement.NewClusterNode(tc, mgr)
		ifaces[i] = members[i]
	}

	pcfg := placement.DefaultConfig()
	pcfg.Policy = pol
	pcfg.Rebalance = rebalance
	pcfg.Workers = workers
	eng := placement.NewEngine(seed, pcfg, ifaces)
	st := eng.Run()
	wall := time.Since(start) //taichi:allow walltime — paired with the start stamp above, reported alongside simulated time

	startup := metrics.NewHistogram("vm.startup")
	var completed, dead uint64
	for _, m := range members {
		startup.Merge(m.Mgr.StartupTime)
		completed += m.Mgr.Completed
		dead += m.Mgr.DeadLettered()
	}
	fmt.Printf("place=%s nodes=%d rebalance=%v vms=%d wall=%.2fs\n",
		pol, n, rebalance, pcfg.VMs, wall.Seconds())
	fmt.Printf("placement: placed=%d replaced=%d cluster-dead=%d bounce-dead=%d scans=%d\n",
		st.Placed, st.Replaced, st.AllExcluded, st.BounceDead, st.Scans)
	fmt.Printf("rebalance: migrations=%d/%d dwell=%d max-starts/scan=%d (budget %d) pause=%v\n",
		st.MigrationsDone, st.MigrationsStarted, st.HotScans,
		st.MaxStartsPerScan, placement.MigrationBudget, st.PauseTotal)
	fmt.Printf("vmstartup: completed=%d dead-lettered=%d startup mean %v p99 %v\n",
		completed, dead, startup.Mean(), startup.Quantile(0.99))
	if auditFlag {
		violations := 0
		rep := audit.Run(eng.Tracer().Events(), audit.Options{})
		violations += len(rep.Violations)
		if !rep.Ok() {
			fmt.Printf("placer %s", rep.String())
		}
		for i, m := range members {
			nrep := audit.Run(m.TC.Node.Tracer.Events(), audit.Options{})
			violations += len(nrep.Violations)
			if !nrep.Ok() {
				fmt.Printf("node%d %s", i, nrep.String())
			}
		}
		fmt.Printf("audit: nodes=%d violations=%d\n", n, violations)
		if violations > 0 {
			os.Exit(1)
		}
	}
}

// runFleet executes the scenario on n independently-seeded nodes via the
// bounded worker pool and prints the merged fleet-wide statistics.
func runFleet(p params, auditFlag bool, seed int64, n, workers int, metricsOut string, tr traceOpts) {
	start := time.Now() //taichi:allow walltime — fleet throughput report (nodes/s); results themselves are seed-deterministic
	// Per-member audit reports and traces, filled by index on the worker
	// pool and printed in member order afterwards.
	audits := make([]*audit.Report, n)
	var traces []obs.NodeTrace
	var node0 string
	if tr.export != "" {
		traces = make([]obs.NodeTrace, n)
	}
	agg := fleet.RunWorkers(n, seed, workers, func(idx int, memberSeed int64, a *fleet.Aggregates) {
		sc, err := build(p, memberSeed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sc.node.Run(sc.node.Now().Add(p.horizon))
		if auditFlag {
			audits[idx] = auditNode(sc)
		}
		if idx == 0 {
			node0 = tr.report(sc.node)
		}
		if traces != nil {
			nt := nodeTrace(p.mode, idx, sc.node)
			nt.Events = append([]trace.Event(nil), nt.Events...) // a copy, so the finished node can be collected
			traces[idx] = nt
		}
		sc.collect(a)
		if sc.inj != nil {
			a.Add("faults.injected", float64(sc.inj.Counts.Total()))
			a.Add("faults.detected", float64(sc.tc.Sched.FaultsDetected.Value()))
			a.Add("faults.recovered", float64(sc.tc.Sched.FaultsRecovered.Value()))
		}
		done, h := cpSummary(sc.tasks)
		a.Merge("cp.turnaround", h)
		a.Add("cp.tasks", float64(len(sc.tasks)))
		a.Add("cp.done", float64(done))
		a.Add("events", float64(sc.node.Engine.Fired()))
		a.Add("dp.net_util", sc.node.Net.MeanUtilization())
		if sc.node.Stor != nil {
			a.Add("dp.stor_util", sc.node.Stor.MeanUtilization())
		}
	})
	wall := time.Since(start) //taichi:allow walltime — wall-clock half of the speedup table, not simulation input
	fmt.Printf("mode=%s workload=%s nodes=%d simulated=%v wall=%.2fs events=%.0f\n",
		p.mode, p.wl, agg.Members, p.horizon, wall.Seconds(), agg.Scalar("events"))
	fmt.Print(agg.Describe())
	members := float64(agg.Members)
	fmt.Printf("per-node means: cp done %.1f/%.1f, net util %.1f%%, stor util %.1f%%\n",
		agg.Scalar("cp.done")/members, agg.Scalar("cp.tasks")/members,
		100*agg.Scalar("dp.net_util")/members, 100*agg.Scalar("dp.stor_util")/members)
	if metricsOut != "" {
		writeMetrics(metricsOut, snapshotFleet(agg))
	}
	printTraces(tr, node0, traces)
	if auditFlag {
		violations := 0
		for i, rep := range audits {
			violations += len(rep.Violations)
			if !rep.Ok() {
				fmt.Printf("node%d %s", i, rep.String())
			}
		}
		fmt.Printf("audit: nodes=%d violations=%d\n", n, violations)
		if violations > 0 {
			os.Exit(1)
		}
	}
}

// traceOpts are the -export and -timeline flags.
type traceOpts struct {
	export   string
	timeline time.Duration
}

// nodeTrace labels one finished node's trace for the Chrome export.
func nodeTrace(mode string, idx int, node *platform.Node) obs.NodeTrace {
	return obs.NodeTrace{Label: fmt.Sprintf("%s-node%d", mode, idx), Events: node.Tracer.Events()}
}

// report renders node 0's share of the trace output: with -export the
// §3.2 analyses (non-preemptible census, IPI latency, VM-exit reasons),
// with -timeline the raw event timeline.
func (o traceOpts) report(node *platform.Node) string {
	var b strings.Builder
	if o.export != "" {
		census := node.Tracer.NonPreemptibleCensus()
		fmt.Fprintf(&b, "non-preemptible routines: %d total, max %v\n", census.Count(), census.Max())
		for _, bk := range trace.CensusBuckets(census) {
			fmt.Fprintf(&b, "  %8v - %8v : %d\n", bk.Lo, bk.Hi, bk.Count)
		}
		if ipi := node.Tracer.IPILatencies(); ipi.Count() > 0 {
			fmt.Fprintf(&b, "ipi delivery: n=%d mean=%v p99=%v\n", ipi.Count(), ipi.Mean(), ipi.Quantile(0.99))
		}
		if reasons := node.Tracer.ExitReasonCounts(); len(reasons) > 0 {
			keys := make([]string, 0, len(reasons))
			for k := range reasons {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			b.WriteString("vm-exit reasons:\n")
			for _, k := range keys {
				fmt.Fprintf(&b, "  %-8s %d\n", k, reasons[k])
			}
		}
	}
	if o.timeline > 0 {
		b.WriteString("timeline:\n")
		b.WriteString(node.Tracer.Timeline(0, sim.Time(o.timeline.Nanoseconds())))
	}
	return b.String()
}

// printTraces prints node 0's report and, with -export, every node's
// derived-span summary in member-index order, then writes the Chrome
// export.
func printTraces(o traceOpts, node0 string, traces []obs.NodeTrace) {
	fmt.Print(node0)
	if o.export == "" {
		return
	}
	for i, nt := range traces {
		d := obs.Derive(nt.Events)
		fmt.Printf("node%d: %d events, %d spans, %d instants\n", i, len(nt.Events), len(d.Spans), len(d.Instants))
		for _, s := range obs.Summarize(d) {
			fmt.Printf("  span %-8s n=%-6d truncated=%-4d total=%v\n", s.Class, s.Count, s.Truncated, s.Total)
		}
	}
	n, err := writeChrome(o.export, traces)
	if err != nil {
		fmt.Fprintf(os.Stderr, "export: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("exported %d bytes to %s\n", n, o.export)
}

// writeChrome streams the Chrome trace-event JSON of traces into the
// file at path, so the whole export is never held in memory, and
// returns the number of bytes written.
func writeChrome(path string, traces []obs.NodeTrace) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close() // for the error paths; the success path checks Close
	cw := &countingWriter{w: f}
	bw := bufio.NewWriter(cw)
	if err := obs.WriteChrome(bw, traces); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return cw.n, f.Close()
}

// countingWriter counts the bytes it passes on to w.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
