package taichi_test

import (
	"fmt"
	"strings"
	"testing"

	taichi "repro"
	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/workload"
)

// auditSys runs the invariant auditor over a finished system's trace,
// feeding it the breaker's own ledger and the tracer's drop count so
// every cross-check the auditor knows is armed.
func auditSys(sys *taichi.System) *audit.Report {
	var bc *controlplane.BreakerCounters
	if sys.Breaker != nil {
		c := sys.Breaker.Counters()
		bc = &c
	}
	return audit.Run(sys.Node.Tracer.Events(),
		audit.Options{Breaker: bc, DroppedEvents: sys.Node.Tracer.Dropped()})
}

// auditScenarios are miniature versions of the pinned experiment
// workloads — the CP mix behind Figures 2/5, the clean and faulted
// VM-startup lifecycles behind Figures 2/17, the chaos-recovery sweep,
// and the overloaded admission pipeline — each returning a finished
// system whose trace the auditor must certify violation-free, plus the
// cluster manager (nil for scenarios that issue no requests) so the
// totals cross-check can compare the replayer against the report-side
// counters.
var auditScenarios = []struct {
	name  string
	build func(seed int64) (*taichi.System, *cluster.Manager)
}{
	{"cpmix", func(seed int64) (*taichi.System, *cluster.Manager) {
		sys := taichi.New(seed)
		for m := 0; m < 6; m++ {
			sys.SpawnCP(fmt.Sprintf("monitor%d", m),
				controlplane.Monitor(sys.Stream(fmt.Sprintf("mon%d", m))))
		}
		scfg := controlplane.DefaultSynthCP()
		r := sys.Stream("churn")
		for c := 0; c < 4; c++ {
			sys.SpawnCP(fmt.Sprintf("churn%d", c), controlplane.SynthCP(scfg, r))
		}
		p := workload.NewPing(sys.Node, workload.DefaultPing())
		p.Start(nil)
		sys.Run(taichi.Milliseconds(80))
		return sys, nil
	}},
	{"vmstartup", func(seed int64) (*taichi.System, *cluster.Manager) {
		sys := taichi.New(seed)
		cfg := cluster.DefaultConfig(2)
		cfg.VMs = 8
		cfg.VMLifetime = 0
		cfg.Retry = cluster.DefaultRetryPolicy()
		mgr := cluster.NewManager(sys, cfg)
		mgr.Start()
		sys.Run(taichi.Seconds(1.2))
		return sys, mgr
	}},
	{"vmstartup-faults", func(seed int64) (*taichi.System, *cluster.Manager) {
		sys := taichi.New(seed)
		inj := faults.NewInjector(faults.DefaultSpec())
		inj.Attach(sys)
		sys.Sched.EnableRecovery(core.DefaultRecoveryPolicy())
		cfg := cluster.DefaultConfig(2)
		cfg.VMs = 8
		cfg.VMLifetime = 0
		cfg.Retry = cluster.DefaultRetryPolicy()
		cfg.Requeue = cluster.DefaultRequeuePolicy()
		cfg.Healthy = func() bool { return sys.Sched.DefenseMode() == core.ModeNormal }
		cfg.WrapCP = inj.WrapCP
		mgr := cluster.NewManager(sys, cfg)
		mgr.Start()
		sys.Run(taichi.Seconds(1.2))
		return sys, mgr
	}},
	{"chaos-recovery", func(seed int64) (*taichi.System, *cluster.Manager) {
		sys := taichi.New(seed)
		inj := faults.NewInjector(faults.DefaultSpec())
		inj.Attach(sys)
		sys.Sched.EnableRecovery(core.DefaultRecoveryPolicy())
		horizon := 200 * sim.Millisecond
		sys.Engine().At(sim.Time(horizon/2), inj.Stop)
		workload.NewBackground(sys.Node, workload.DefaultBackground(0.30)).Start()
		p := workload.NewPing(sys.Node, workload.DefaultPing())
		p.Start(nil)
		scfg := controlplane.DefaultSynthCP()
		for j := 0; j < 8; j++ {
			sys.SpawnCP(fmt.Sprintf("cp%d", j),
				inj.WrapCP(controlplane.SynthCP(scfg, sys.Stream(fmt.Sprintf("chaos.cp%d", j)))))
		}
		sys.Run(sim.Time(horizon))
		return sys, nil
	}},
	{"overload", func(seed int64) (*taichi.System, *cluster.Manager) {
		sys := taichi.New(seed)
		sys.Sched.EnableOverload(taichi.DefaultOverloadPolicy())
		bg := workload.NewBackground(sys.Node, workload.DefaultBackground(0.9))
		bg.Start()
		sys.Engine().At(sim.Time(300*sim.Millisecond), bg.Stop)
		cfg := cluster.DefaultConfig(2)
		cfg.VMs = 12
		cfg.VMLifetime = 0
		cfg.Retry = cluster.DefaultRetryPolicy()
		cfg.Admission = cluster.DefaultAdmissionPolicy()
		cfg.Classify = cluster.DefaultClassify
		cfg.OverloadLevel = func() int { return int(sys.Sched.OverloadState()) }
		mgr := cluster.NewManager(sys, cfg)
		mgr.Start()
		for step := 0; step < 40; step++ {
			sys.Run(sys.Engine().Now().Add(250 * sim.Millisecond))
			if int(mgr.Issued) >= cfg.VMs && mgr.Settled() {
				break
			}
		}
		return sys, mgr
	}},
}

// TestAuditorCertifiesPinnedScenarios is the auditor acceptance gate:
// across every pinned scenario shape, three seeds, and a two-node fleet,
// the runtime invariant auditor must find zero violations, and the
// rendered reports must be byte-identical across 1 and 8 fleet workers.
func TestAuditorCertifiesPinnedScenarios(t *testing.T) {
	for _, sc := range auditScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{11, 12, 13} {
				render := func(workers int) string {
					const nodes = 2
					lines := make([]string, nodes)
					fleet.ForEach(nodes, workers, func(i int) {
						sys, _ := sc.build(fleet.MemberSeed(seed, i))
						rep := auditSys(sys)
						for _, v := range rep.Violations {
							t.Errorf("seed %d node %d: %+v", seed, i, v)
						}
						lines[i] = fmt.Sprintf("node%d: %s", i, rep.String())
					})
					return strings.Join(lines, "\n")
				}
				sequential := render(1)
				if parallel := render(8); parallel != sequential {
					t.Fatalf("seed %d: audit reports differ between 1 and 8 workers:\n--- 1\n%s\n--- 8\n%s",
						seed, sequential, parallel)
				}
				if !strings.Contains(sequential, "violations=0") {
					t.Fatalf("seed %d: report does not certify zero violations:\n%s", seed, sequential)
				}
			}
		})
	}
}

// TestAuditTotalsAgreeWithManagerCounters is the report/audit
// cross-check: for every pinned scenario that runs the cluster manager,
// the request totals the trace replayer derives must agree exactly with
// the manager counters taichi-report renders — issued, completed,
// dead-letter events, resurrections, sheds, and the pending remainder.
// A drift here would mean the report and the auditor describe different
// runs; pinning the agreement makes any future divergence a test
// failure instead of a silent lie in one of the two.
func TestAuditTotalsAgreeWithManagerCounters(t *testing.T) {
	for _, sc := range auditScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{11, 12, 13} {
				sys, mgr := sc.build(seed)
				if mgr == nil {
					t.Skip("scenario issues no requests")
				}
				rep := auditSys(sys)
				if !rep.Ok() {
					t.Fatalf("seed %d: audit violations: %v", seed, rep.Violations)
				}
				pending := 0
				for _, req := range mgr.Requests() {
					if !req.State().Terminal() {
						pending++
					}
				}
				want := audit.RequestTotals{
					Issued:      int(mgr.Issued),
					Completed:   int(mgr.Completed),
					Dead:        int(mgr.DeadLettered()),
					Resurrected: int(mgr.Resurrected()),
					Shed:        int(mgr.Shed()),
					Pending:     pending,
				}
				if rep.Requests != want {
					t.Fatalf("seed %d: audit totals %+v != manager counters %+v", seed, rep.Requests, want)
				}
				got := rep.Requests
				if got.Issued != got.Completed+(got.Dead-got.Resurrected)+got.Shed+got.Pending {
					t.Fatalf("seed %d: conservation identity broken: %+v", seed, got)
				}
			}
		})
	}
}
