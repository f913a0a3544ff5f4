package taichi_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/workload"
)

// packetOverloadOutcome runs a short packet-overload-shaped node: 16 VMs
// at 3x density through the admission gate and the brownout ladder, under
// 0.9 DP background for the first 30 ms, drained until every request
// settles. It renders every counter the run produces: the node summary
// (scheduler, kernel, vCPU, DP cores' Processed, defense, recovery and
// overload lines), the packet counts, the VM outcomes and startup times,
// and the number of events fired.
func packetOverloadOutcome(t *testing.T, traceAll bool) (string, int) {
	t.Helper()
	opts := platform.DefaultOptions()
	opts.Seed = 7
	opts.TraceAll = traceAll
	tc := core.New(platform.NewNode(opts), core.DefaultConfig())
	tc.Sched.EnableOverload(core.DefaultOverloadPolicy())
	bg := workload.NewBackground(tc.Node, workload.DefaultBackground(0.9))
	bg.Start()
	tc.Engine().At(sim.Time(30*sim.Millisecond), bg.Stop)
	const vms = 16
	cfg := cluster.DefaultConfig(3)
	cfg.VMs = vms
	cfg.VMLifetime = 0
	cfg.Retry = cluster.DefaultRetryPolicy()
	cfg.Admission = cluster.DefaultAdmissionPolicy()
	cfg.Classify = cluster.DefaultClassify
	cfg.OverloadLevel = func() int { return int(tc.Sched.OverloadState()) }
	mgr := cluster.NewManager(tc, cfg)
	mgr.Start()
	for step := 0; step < 60; step++ {
		tc.Engine().Run(tc.Engine().Now().Add(100 * sim.Millisecond))
		if int(mgr.Issued) >= vms && mgr.Settled() {
			break
		}
	}
	if !mgr.Settled() {
		t.Fatal("the requests never settled")
	}
	var b strings.Builder
	b.WriteString(tc.Describe())
	fmt.Fprintf(&b, "bg=%d injected=%d net=%d", bg.Packets.Value(), tc.Node.Pipe.Injected, tc.Node.Net.TotalProcessed())
	if tc.Node.Stor != nil {
		fmt.Fprintf(&b, " stor=%d", tc.Node.Stor.TotalProcessed())
	}
	fmt.Fprintf(&b, "\nissued=%d completed=%d dead=%d %s\n", mgr.Issued, mgr.Completed, mgr.DeadLettered(), mgr.Outcomes)
	st := mgr.StartupTime
	fmt.Fprintf(&b, "startup n=%d p50=%v p99=%v max=%v\nfired=%d now=%v\n",
		st.Count(), st.Quantile(0.5), st.Quantile(0.99), st.Max(), tc.Engine().Fired(), tc.Engine().Now())
	return b.String(), tc.Node.Tracer.Len()
}

// The trace never feeds back into the packet path: recording every packet
// record (TraceAll) instead of the default kinds changes no counter, no
// DP core's Processed, no VM outcome and no event count.
func TestPacketTraceDoesNotFeedBack(t *testing.T) {
	all, allLen := packetOverloadOutcome(t, true)
	def, defLen := packetOverloadOutcome(t, false)
	if all != def {
		t.Fatalf("TraceAll changed the run:\n%s\ndefault kinds:\n%s", all, def)
	}
	if allLen <= defLen {
		t.Fatalf("TraceAll recorded %d events, the default kinds %d; packet records missing", allLen, defLen)
	}
	if !strings.Contains(def, "issued=16 ") || strings.Contains(def, "peak=normal") {
		t.Fatalf("not every VM was issued, or the brownout ladder never engaged:\n%s", def)
	}
}
