package experiments

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/workload"
)

// PlacementSweep compares cluster placement policies over a skewed
// 8-node fleet: two members carry 4× the data-plane background of the
// other six, so a signal-blind policy keeps routing VM startups onto
// CP-starved nodes while the pressure policy steers around them and the
// rebalance loop migrates residents off the hotspots. Headline: under
// the skew, `pressure` must beat round-robin on both p99 VM-startup
// latency and hotspot dwell, with every migration inside the per-scan
// budget and the cluster+node traces audit-clean.
func PlacementSweep(scale Scale) *Result {
	res := newResult("Placement: signal-driven scheduling vs round-robin across a skewed fleet")
	tbl, vals := PlacementRun(scale, 2100)
	res.Tables = append(res.Tables, tbl)
	for _, k := range metrics.SortedKeys(vals) {
		res.Values[k] = vals[k]
	}
	res.Notes = append(res.Notes,
		"fleet: 3 VMs per member; a quarter of the members run 4x the data-plane background of the rest (the skew)",
		"policies place via the overload ladder's EWMA pressure, rung, defense mode; breaker-open/brownout members excluded",
		"rebalance: hysteresis hotspot detection (beyond band for K scans) + budgeted live migration with cooldown",
		"dwell = member-scans spent beyond the hysteresis band; migrations respect the per-scan budget by audit",
		"placer decisions replay through internal/audit: single residency, migration conservation, exclusion legality")
	return res
}

// placementRow is one policy's measured outcome.
type placementRow struct {
	stats      placement.Stats
	p99        sim.Duration
	completed  uint64
	dead       uint64
	violations int
	settled    bool
}

// PlacementRun executes the placement sweep at the given base seed and
// returns the table plus raw per-policy values. Exported so the
// acceptance regression can replay it at chosen seeds and worker counts
// (byte-identical output for any worker count).
func PlacementRun(scale Scale, baseSeed int64) (*metrics.Table, map[string]float64) {
	tbl := metrics.NewTable("Placement sweep",
		"policy", "placed", "repl", "cdead", "migs", "done", "dwell", "p99_ms", "audit")

	policies := []placement.Policy{
		placement.PolicyRR, placement.PolicySpread,
		placement.PolicyBinpack, placement.PolicyPressure,
	}
	rows := make([]placementRow, len(policies))

	fleet.ForEach(len(policies), scale.Workers, func(pi int) {
		rows[pi] = placementFleet(policies[pi], scale, baseSeed)
	})

	vals := map[string]float64{}
	for pi, pol := range policies {
		r := rows[pi]
		st := r.stats
		tbl.AddRow(string(pol), st.Placed, st.Replaced, st.AllExcluded,
			st.MigrationsStarted, st.MigrationsDone, st.HotScans,
			float64(r.p99)/float64(sim.Millisecond), r.violations)
		vals[fmt.Sprintf("plc_placed_%s", pol)] = float64(st.Placed)
		vals[fmt.Sprintf("plc_replaced_%s", pol)] = float64(st.Replaced)
		vals[fmt.Sprintf("plc_cluster_dead_%s", pol)] = float64(st.AllExcluded)
		vals[fmt.Sprintf("plc_migrations_%s", pol)] = float64(st.MigrationsStarted)
		vals[fmt.Sprintf("plc_migrations_done_%s", pol)] = float64(st.MigrationsDone)
		vals[fmt.Sprintf("plc_dwell_%s", pol)] = float64(st.HotScans)
		vals[fmt.Sprintf("plc_p99_ms_%s", pol)] = float64(r.p99) / float64(sim.Millisecond)
		vals[fmt.Sprintf("plc_budget_ok_%s", pol)] = b2f(st.MaxStartsPerScan <= placement.MigrationBudget)
		vals[fmt.Sprintf("plc_completed_%s", pol)] = float64(r.completed)
		vals[fmt.Sprintf("plc_dead_%s", pol)] = float64(r.dead)
		vals[fmt.Sprintf("plc_audit_violations_%s", pol)] = float64(r.violations)
		vals[fmt.Sprintf("plc_settled_%s", pol)] = b2f(r.settled)
		vals[fmt.Sprintf("plc_pause_ms_%s", pol)] = float64(st.PauseTotal) / float64(sim.Millisecond)
	}
	return tbl, vals
}

// placementFleet runs one policy over the skewed fleet. The fleet
// scales with the factor — 8 members at quick, 32 at full — while the
// arrival count scales in lockstep (3 VMs per member), so the
// per-member load regime is identical at every scale: growing the
// offered VMs against a fixed fleet would saturate the light members
// and turn the sweep into a capacity test instead of a steering test.
func placementFleet(pol placement.Policy, scale Scale, baseSeed int64) placementRow {
	nodes := int(32 * scale.Factor)
	if nodes < 8 {
		nodes = 8
	}
	heavyNodes := nodes / 4
	// The 4:1 skew: heavy members run 4× the light data-plane
	// utilization, eroding their lending slack and pinning their
	// pressure index high.
	// Heavy members sit at the throttle/shed rungs (pressured, gated, but
	// still eligible — a blind policy keeps feeding them); light members
	// stay on the normal rung throughout.
	const lightUtil, heavyUtil = 0.19, 0.76
	// Each hosted VM's data-plane footprint: stacked VMs push a heavy
	// member deeper up the ladder, while a light member absorbs several
	// without leaving normal.
	const vmFootprint = 0.06

	members := make([]*placement.ClusterNode, nodes)
	ifaces := make([]placement.Member, nodes)
	for i := 0; i < nodes; i++ {
		tc := core.NewDefault(fleet.MemberSeed(baseSeed, i))
		tc.Sched.EnableOverload(core.DefaultOverloadPolicy())
		util := lightUtil
		if i < heavyNodes {
			util = heavyUtil
		}
		bgCfg := coarseBackground(util)
		if i >= heavyNodes {
			// Light members burst gently: the default 0.95-busy burst
			// profile would spike their EWMAs through the ladder's rungs at
			// random, shedding arrivals on members every policy agrees are
			// healthy and drowning the rr-vs-pressure comparison in noise.
			bgCfg.BurstUtilization = 0.5
		}
		bg := workload.NewBackground(tc.Node, bgCfg)
		bg.Start()
		ccfg := cluster.DefaultConfig(1)
		ccfg.VMLifetime = 0
		ccfg.Retry = cluster.DefaultRetryPolicy()
		ccfg.Admission = cluster.DefaultAdmissionPolicy()
		// The default bucket is sized for the overload sweep's flood; at
		// this sweep's trickle it never bites. Size it so an unpressured
		// member (rung 0) admits even a concentrated share of the arrival
		// trickle without queueing, while the steeper-than-default per-rung
		// clamp drops a throttled member's admit rate well below the blind
		// policies' per-node share: startups routed there queue behind the
		// gate, shed on sojourn, and bounce back through the placer — the
		// latency cost the pressure policy's steering avoids.
		// Burst covers one scan epoch's worth of same-snapshot arrivals:
		// the pressure policy can route several VMs at the same coldest
		// member before the next barrier refreshes its signals, and an
		// unpressured member should absorb that herd without queueing.
		// The per-rung BurstFactor clamp keeps the depth from bailing out
		// a pressured member: at throttle the bucket holds one token, so
		// routed startups queue behind the clamped trickle immediately
		// rather than after a free burst.
		ccfg.Admission.Rate = 4
		ccfg.Admission.Burst = 4
		ccfg.Admission.BurstFactor = [4]float64{1.0, 0.25, 0.15, 0.1}
		ccfg.Admission.RateFactor = [4]float64{1.0, 0.15, 0.08, 0.04}
		ccfg.Classify = cluster.DefaultClassify
		ccfg.OverloadLevel = func() int { return int(tc.Sched.OverloadState()) }
		ccfg.Placement = cluster.DefaultPlacementPolicy()
		mgr := cluster.NewManager(tc, ccfg)
		mgr.Start()
		members[i] = placement.NewClusterNode(tc, mgr)
		members[i].VMDPUtil = vmFootprint
		ifaces[i] = members[i]
	}

	pcfg := placement.DefaultConfig()
	pcfg.Policy = pol
	pcfg.VMs = 3 * nodes
	// The fleet warms up before the first arrival so the heavy members'
	// pressure EWMAs have settled and every placement decision — including
	// the first — sees real signals; arrivals then trickle in over several
	// seconds while the skew is fully visible.
	pcfg.ArrivalDelay = 1500 * sim.Millisecond
	// One VM/s per member: the rate scales with the fleet so the arrival
	// intensity each member sees — and therefore the pressure the
	// admission gate puts on a misrouted burst — is the same at every
	// scale.
	pcfg.ArrivalRate = float64(nodes)
	// Absolute hotspot threshold instead of the mean-relative band: the
	// static skew alone puts the heavy members beyond any realistic
	// relative band forever, which would charge identical always-hot
	// dwell to every policy. At 1.5 a heavy member's baseline (throttle
	// rung + its own pressure, score ≈ 1.1, shed-rung peaks ≈ 1.9) sits
	// below the line and only crosses it once placements stack guest
	// footprints on top — dwell then measures what the policy did, not
	// what the fleet looked like before it acted.
	pcfg.HotAbs = 2.0
	pcfg.Workers = scale.Workers
	eng := placement.NewEngine(baseSeed, pcfg, ifaces)
	st := eng.Run()

	row := placementRow{stats: st, settled: true}
	for _, m := range members {
		row.completed += m.Mgr.Completed
		row.dead += m.Mgr.DeadLettered()
		if !m.Mgr.Settled() {
			row.settled = false
		}
	}
	// End-to-end startup latency: cluster arrival → the completion of the
	// VM's (final) startup request, wherever it landed. A dead-letter
	// bounce re-submits a fresh request on another member, so the
	// per-request StartupTime histogram would hide the bounce cost; the
	// arrival-anchored measure charges it to the policy that caused it.
	e2e := metrics.NewHistogram("vm.e2e_startup")
	for vm := 1; vm <= pcfg.VMs; vm++ {
		var done sim.Time
		for _, m := range members {
			if req := m.Request(vm); req != nil && req.State() == cluster.ReqCompleted {
				if req.CompletedAt > done {
					done = req.CompletedAt
				}
			}
		}
		if done > 0 {
			e2e.Record(done.Sub(eng.Arrival(vm)))
		}
	}
	row.p99 = e2e.Quantile(0.99)

	// Replay the placer's decisions and every node's request lifecycle
	// through the auditor; the sweep reports the total violation count
	// (zero is part of the acceptance contract).
	rep := audit.Run(eng.Tracer().Events(), audit.Options{})
	row.violations += len(rep.Violations)
	for _, m := range members {
		nrep := audit.Run(m.TC.Node.Tracer.Events(), audit.Options{})
		row.violations += len(nrep.Violations)
	}
	return row
}
