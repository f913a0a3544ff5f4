package placement

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/workload"
)

// buildNode assembles one placed-mode fleet member: a Tai Chi node with
// the overload ladder armed (the pressure signal source) and a manager
// in placed mode.
func buildNode(seed int64) *ClusterNode {
	tc := core.NewDefault(seed)
	tc.Sched.EnableOverload(core.DefaultOverloadPolicy())
	cfg := cluster.DefaultConfig(1)
	cfg.VMLifetime = 0
	cfg.Placement = cluster.DefaultPlacementPolicy()
	mgr := cluster.NewManager(tc, cfg)
	mgr.Start()
	return NewClusterNode(tc, mgr)
}

// TestClusterNodeEndToEnd places VMs over two real nodes and checks the
// full loop: every startup completes, residency matches the engine's
// bookkeeping, and the cluster trace audits clean.
func TestClusterNodeEndToEnd(t *testing.T) {
	nodes := []*ClusterNode{
		buildNode(fleet.MemberSeed(42, 0)),
		buildNode(fleet.MemberSeed(42, 1)),
	}
	cfg := DefaultConfig()
	cfg.Policy = PolicySpread
	cfg.VMs = 6
	cfg.ArrivalRate = 40
	cfg.MaxScans = 100
	e := NewEngine(42, cfg, []Member{nodes[0], nodes[1]})
	st := e.Run()

	if st.Placed != 6 {
		t.Fatalf("placed %d of 6", st.Placed)
	}
	var completed, resident uint64
	for _, n := range nodes {
		completed += n.Mgr.Completed
		resident += uint64(n.Mgr.ResidentVMs())
	}
	if completed != 6 {
		t.Fatalf("completed %d of 6 startups", completed)
	}
	if resident != 6 {
		t.Fatalf("resident VMs across fleet = %d, want 6", resident)
	}
	for vm := 1; vm <= 6; vm++ {
		if e.Resident(vm) < 0 {
			t.Fatalf("vm %d resident nowhere", vm)
		}
		// The startup request lives on the origin node even if the VM
		// later migrated, so search the fleet.
		var req *cluster.Request
		for _, n := range nodes {
			if r := n.Request(vm); r != nil {
				req = r
			}
		}
		if req == nil || req.State() != cluster.ReqCompleted {
			t.Fatalf("vm %d: startup request not completed", vm)
		}
	}
	rep := audit.Run(e.Tracer().Events(), audit.Options{})
	if !rep.Ok() {
		t.Fatalf("cluster audit violations:\n%s", rep.String())
	}
	// Per-node traces must audit clean too — placed-mode submissions run
	// the ordinary request lifecycle the node auditor replays.
	for i, n := range nodes {
		nrep := audit.Run(n.TC.Node.Tracer.Events(), audit.Options{})
		if !nrep.Ok() {
			t.Fatalf("node %d audit violations:\n%s", i, nrep.String())
		}
	}
}

// TestClusterNodeDeterminism replays the end-to-end run at two worker
// counts and requires byte-identical node state and cluster traces.
func TestClusterNodeDeterminism(t *testing.T) {
	run := func(workers int) (string, int) {
		nodes := []*ClusterNode{
			buildNode(fleet.MemberSeed(7, 0)),
			buildNode(fleet.MemberSeed(7, 1)),
		}
		cfg := DefaultConfig()
		cfg.VMs = 5
		cfg.ArrivalRate = 40
		cfg.Workers = workers
		e := NewEngine(7, cfg, []Member{nodes[0], nodes[1]})
		e.Run()
		out := nodes[0].TC.Describe() + nodes[1].TC.Describe()
		return out, len(e.Tracer().Events())
	}
	d1, t1 := run(1)
	d8, t8 := run(8)
	if d1 != d8 {
		t.Fatal("node state differs between 1 and 8 workers")
	}
	if t1 != t8 {
		t.Fatalf("cluster trace length differs: %d vs %d", t1, t8)
	}
}

// buildFaultedNode assembles a placed-mode member the way taichi-sim
// -place does under -faults -recover -overload: fault injector attached
// to the scheduler and the provisioning tasks, recovery and overload
// ladders armed, background data-plane load, and startup retries.
func buildFaultedNode(seed int64, spec faults.Spec) *ClusterNode {
	tc := core.NewDefault(seed)
	cfg := cluster.DefaultConfig(1)
	inj := faults.NewInjector(spec)
	inj.Attach(tc)
	cfg.WrapCP = inj.WrapCP
	tc.Sched.EnableRecovery(core.DefaultRecoveryPolicy())
	tc.Sched.EnableOverload(core.DefaultOverloadPolicy())
	workload.NewBackground(tc.Node, workload.DefaultBackground(0.3)).Start()
	cfg.VMLifetime = 0
	cfg.Retry = cluster.DefaultRetryPolicy()
	cfg.Admission = cluster.DefaultAdmissionPolicy()
	cfg.Classify = cluster.DefaultClassify
	cfg.OverloadLevel = func() int { return int(tc.Sched.OverloadState()) }
	cfg.Placement = cluster.DefaultPlacementPolicy()
	mgr := cluster.NewManager(tc, cfg)
	mgr.Start()
	return NewClusterNode(tc, mgr)
}

// TestPlacedFleetUnderFaults runs a faulted fleet under the placer, the
// fleet's only re-dispatch path: startups that dead-letter on a
// degraded member must be re-placed through the policy on the members'
// own timelines, every trace must audit clean, and the run must be
// identical for any worker count.
func TestPlacedFleetUnderFaults(t *testing.T) {
	spec, err := faults.ParseSpec("exit-stall=0.2,cp-crash=0.05,nack=0.2,coord-timeout=0.1")
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) (Stats, string) {
		nodes := make([]*ClusterNode, 3)
		ms := make([]Member, len(nodes))
		for i := range nodes {
			nodes[i] = buildFaultedNode(fleet.MemberSeed(1, i), spec)
			ms[i] = nodes[i]
		}
		cfg := DefaultConfig()
		cfg.Policy = PolicyPressure
		cfg.VMs = 12
		cfg.Workers = workers
		e := NewEngine(1, cfg, ms)
		st := e.Run()
		if rep := audit.Run(e.Tracer().Events(), audit.Options{}); !rep.Ok() {
			t.Fatalf("workers=%d placer audit violations:\n%s", workers, rep.String())
		}
		var b strings.Builder
		for i, n := range nodes {
			if rep := audit.Run(n.TC.Node.Tracer.Events(), audit.Options{}); !rep.Ok() {
				t.Fatalf("workers=%d node %d audit violations:\n%s", workers, i, rep.String())
			}
			fmt.Fprintf(&b, "node%d %s\n", i, n.Mgr.Outcomes.String())
		}
		return st, b.String()
	}
	st1, out1 := run(1)
	if st1.Replaced == 0 {
		t.Fatalf("no dead-lettered startup was re-placed under faults: %+v", st1)
	}
	st4, out4 := run(4)
	if st1 != st4 || out1 != out4 {
		t.Fatalf("placed faulted fleet differs between 1 and 4 workers:\n%+v\n%s\n%+v\n%s", st1, out1, st4, out4)
	}
}
