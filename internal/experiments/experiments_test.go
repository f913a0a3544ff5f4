package experiments

import (
	"strings"
	"testing"
)

// These tests assert the reproduction's headline shapes — who wins, by
// roughly what factor, where the knees fall — at Quick scale. Exact
// magnitudes are recorded at Full scale in EXPERIMENTS.md.

func TestFig02Shape(t *testing.T) {
	t.Parallel()
	r := Fig02Motivation(Quick)
	if r.Values["cp_exec_ms_4x"] < 2.5*r.Values["cp_exec_ms_1x"] {
		t.Fatalf("CP exec degradation at 4x density only %.2fx; want a pronounced knee (paper: 8x)",
			r.Values["cp_exec_ms_4x"]/r.Values["cp_exec_ms_1x"])
	}
	if r.Values["startup_norm_4x"] <= r.Values["startup_norm_1x"] {
		t.Fatal("startup must degrade with density")
	}
}

func TestFig03Shape(t *testing.T) {
	t.Parallel()
	r := Fig03UtilizationCDF(Quick)
	checkQuickGolden(t, "fig3", r)
	below := r.Values["frac_below_32.5pct"]
	if below < 0.95 {
		t.Fatalf("only %.3f of samples below 32.5%% utilization; paper reports 0.9968", below)
	}
	if r.Values["samples"] < 1000 {
		t.Fatalf("too few samples: %v", r.Values["samples"])
	}
}

func TestFig04Shape(t *testing.T) {
	t.Parallel()
	r := Fig04SpikeAnatomy(Quick)
	checkQuickGolden(t, "fig4", r)
	if r.Values["naive_worst_us"] < 500 {
		t.Fatalf("naive worst %vµs; expected ms-scale spikes", r.Values["naive_worst_us"])
	}
	if r.Values["taichi_worst_us"] > 50 {
		t.Fatalf("Tai Chi worst %vµs; expected µs-scale", r.Values["taichi_worst_us"])
	}
	if r.Values["naive_worst_us"] < 20*r.Values["taichi_worst_us"] {
		t.Fatal("spike separation between naive and Tai Chi too small")
	}
}

func TestFig05Shape(t *testing.T) {
	t.Parallel()
	r := Fig05Census(Quick)
	checkQuickGolden(t, "fig5", r)
	if s := r.Values["share_1_5ms"]; s < 0.85 || s > 0.99 {
		t.Fatalf("1-5ms share %.3f, want ~0.945", s)
	}
	if r.Values["max_ms"] < 10 {
		t.Fatalf("max routine %.1fms; tail missing", r.Values["max_ms"])
	}
	if r.Values["routines_over_1ms"] < 100 {
		t.Fatalf("census too small: %v routines", r.Values["routines_over_1ms"])
	}
}

func TestFig06Shape(t *testing.T) {
	t.Parallel()
	r := Fig06IOBreakdown(Quick)
	checkQuickGolden(t, "fig6", r)
	if r.Values["preprocess_us"] != 2.7 || r.Values["transfer_us"] != 0.5 {
		t.Fatalf("breakdown %.2f/%.2f µs, want 2.7/0.5 (Figure 6)",
			r.Values["preprocess_us"], r.Values["transfer_us"])
	}
}

func TestTable1Shape(t *testing.T) {
	t.Parallel()
	r := Table1Granularity(Quick)
	checkQuickGolden(t, "table1", r)
	if r.Values["naive_p99_us"] < 200 {
		t.Fatalf("conventional p99 %.0fµs; want ms-scale", r.Values["naive_p99_us"])
	}
	if r.Values["taichi_p99_us"] > 10 {
		t.Fatalf("Tai Chi p99 %.1fµs; want µs-scale", r.Values["taichi_p99_us"])
	}
}

func TestTable2Shape(t *testing.T) {
	t.Parallel()
	r := Table2Properties(Quick)
	checkQuickGolden(t, "table2", r)
	if r.Values["type2_ipc_us"] < 50 {
		t.Fatalf("type-2 IPC RTT %.1fµs; RPC hops missing", r.Values["type2_ipc_us"])
	}
	if r.Values["taichi_ipc_us"] > 0.5*r.Values["type2_ipc_us"] {
		t.Fatal("native IPC should be far cheaper than the type-2 RPC path")
	}
	if len(r.Tables) == 0 || !strings.Contains(r.Tables[0].String(), "SmartNIC OS") {
		t.Fatal("table content missing")
	}
}

func TestFig11Shape(t *testing.T) {
	t.Parallel()
	r := Fig11SynthCP(Quick)
	checkQuickGolden(t, "fig11", r)
	if s := r.Values["speedup_32"]; s < 2.5 {
		t.Fatalf("speedup at 32 tasks %.2fx; paper reports ~4x", s)
	}
	if r.Values["speedup_32"] < r.Values["speedup_4"] {
		t.Fatal("speedup should grow with concurrency")
	}
}

func TestFig12Shape(t *testing.T) {
	t.Parallel()
	r := Fig12TCPCRR(Quick)
	checkQuickGolden(t, "fig12", r)
	base := r.Values["cps_baseline"]
	if tc := r.Values["cps_taichi"]; tc < 0.98*base {
		t.Fatalf("Tai Chi CPS %.0f vs baseline %.0f; overhead beyond 2%%", tc, base)
	}
	if t1 := r.Values["cps_taichi-vDP"]; t1 > 0.97*base || t1 < 0.85*base {
		t.Fatalf("type-1 CPS %.0f; want ~-7%% of %.0f", t1, base)
	}
	if t2 := r.Values["cps_type2"]; t2 > 0.82*base || t2 < 0.65*base {
		t.Fatalf("type-2 CPS %.0f; want ~-25%% of %.0f", t2, base)
	}
}

func TestFig13Shape(t *testing.T) {
	t.Parallel()
	r := Fig13FioIOPS(Quick)
	checkQuickGolden(t, "fig13", r)
	base := r.Values["iops_baseline"]
	if tc := r.Values["iops_taichi"]; tc < 0.98*base {
		t.Fatalf("Tai Chi IOPS %.0f vs baseline %.0f", tc, base)
	}
	if t2 := r.Values["iops_type2"]; t2 > 0.82*base {
		t.Fatalf("type-2 IOPS %.0f; want ~-25%%", t2)
	}
}

func TestTable5Shape(t *testing.T) {
	t.Parallel()
	r := Table5PingRTT(Quick)
	checkQuickGolden(t, "table5", r)
	base := r.Values["baseline_avg_us"]
	if tc := r.Values["taichi_avg_us"]; tc > 1.05*base {
		t.Fatalf("Tai Chi avg RTT %.1fµs vs baseline %.1fµs; probe not hiding the switch", tc, base)
	}
	noProbe := r.Values["taichi-no-hwprobe_max_us"]
	if noProbe < 2*r.Values["baseline_max_us"] {
		t.Fatalf("w/o probe max RTT %.1fµs; want ~3x the baseline's", noProbe)
	}
	if r.Values["taichi-no-hwprobe_avg_us"] <= base {
		t.Fatal("w/o probe avg must exceed baseline")
	}
}

func TestFig17Shape(t *testing.T) {
	t.Parallel()
	r := Fig17VMStartup(Quick)
	if imp := r.Values["improvement_4x"]; imp < 1.5 {
		t.Fatalf("improvement at 4x density %.2fx; paper reports 3.1x at full scale", imp)
	}
	if r.Values["improvement_4x"] < r.Values["improvement_1x"] {
		t.Fatal("improvement should grow with density")
	}
}

func TestSec8Shape(t *testing.T) {
	t.Parallel()
	r := Sec8DynamicDP(Quick)
	checkQuickGolden(t, "sec8", r)
	if g := r.Values["cps_gain_pct"]; g < 15 {
		t.Fatalf("CPS gain %.1f%%; want ~+25%% from two extra DP cores", g)
	}
	if g := r.Values["iops_gain_pct"]; g < 15 {
		t.Fatalf("IOPS gain %.1f%%", g)
	}
	// CP performance preserved within 2x despite halving its partition.
	if r.Values["cp_exec_repart_ms"] > 2*r.Values["cp_exec_default_ms"] {
		t.Fatalf("CP exec %.1fms vs %.1fms; SLO not preserved",
			r.Values["cp_exec_repart_ms"], r.Values["cp_exec_default_ms"])
	}
}

func TestAblationShapes(t *testing.T) {
	t.Parallel()
	slice := AblationAdaptiveSlice(Quick)
	checkQuickGolden(t, "abl-slice", slice)
	if slice.Values["adaptive_exits"] >= slice.Values["fixed_exits"] {
		t.Fatalf("adaptive slice exits %v not below fixed %v",
			slice.Values["adaptive_exits"], slice.Values["fixed_exits"])
	}
	yield := AblationAdaptiveYield(Quick)
	checkQuickGolden(t, "abl-yield", yield)
	// A false-positive preemption reclaims a core that yielded, so each
	// policy preempts falsely fewer times than it yields.
	for _, k := range []string{"fixed_fp_ratio", "adaptive_fp_ratio"} {
		if v := yield.Values[k]; v <= 0 || v >= 1 {
			t.Fatalf("%s = %.3f, want within (0, 1)", k, v)
		}
	}
	rescue := AblationLockRescue(Quick)
	checkQuickGolden(t, "abl-rescue", rescue)
	if rescue.Values["stuck_ticks_on"] > rescue.Values["stuck_ticks_off"] {
		t.Fatal("rescue should reduce stuck-spinner observations")
	}
	if rescue.Values["done_on"] < 10 {
		t.Fatalf("with rescue, all 10 tasks must complete; got %v", rescue.Values["done_on"])
	}
	posted := AblationPostedInterrupts(Quick)
	checkQuickGolden(t, "abl-posted", posted)
	if posted.Values["posted_ipi_exits"] != 0 {
		t.Fatalf("posted interrupts should cause zero IPI exits, got %v", posted.Values["posted_ipi_exits"])
	}
	if posted.Values["unposted_ipi_exits"] == 0 {
		t.Fatal("without posted interrupts every injected IPI must exit")
	}
}

func TestRegistryComplete(t *testing.T) {
	t.Parallel()
	reg := Registry()
	if len(reg) < 20 {
		t.Fatalf("registry has %d entries", len(reg))
	}
	seen := map[string]bool{}
	for _, n := range reg {
		if n.ID == "" || n.Run == nil || n.Title == "" {
			t.Fatalf("incomplete entry %+v", n)
		}
		if seen[n.ID] {
			t.Fatalf("duplicate id %q", n.ID)
		}
		seen[n.ID] = true
	}
	for _, id := range []string{"fig2", "fig11", "table5", "sec8"} {
		if ByID(id) == nil {
			t.Fatalf("ByID(%q) = nil", id)
		}
	}
	if ByID("nope") != nil {
		t.Fatal("ByID should return nil for unknown ids")
	}
}

func TestResultRender(t *testing.T) {
	t.Parallel()
	r := Fig06IOBreakdown(Quick)
	out := r.Render()
	for _, want := range []string{"Figure 6", "preprocess", "2.7µs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestSec8RealtimeShape(t *testing.T) {
	t.Parallel()
	r := Sec8RealtimeContext(Quick)
	checkQuickGolden(t, "sec8-rt", r)
	if r.Values["static_p99_us"] < 500 {
		t.Fatalf("stock-kernel RT p99 %.0fµs; want ms-scale priority inversion", r.Values["static_p99_us"])
	}
	if r.Values["taichi_p99_us"] > 300 {
		t.Fatalf("Tai Chi RT p99 %.0fµs; want deterministic µs-scale", r.Values["taichi_p99_us"])
	}
}

func TestAblationIPIVShape(t *testing.T) {
	t.Parallel()
	r := AblationIPIV(Quick)
	checkQuickGolden(t, "abl-ipiv", r)
	if r.Values["source_exits_noipiv"] == 0 {
		t.Fatal("no source exits without IPIV; vCPU-sourced sends not attributed")
	}
	if r.Values["delivery_p50_noipiv_us"] <= r.Values["delivery_p50_ipiv_us"] {
		t.Fatal("source exits must add delivery latency")
	}
}

func TestAblationConnTrackShape(t *testing.T) {
	t.Parallel()
	r := AblationConnTrack(Quick)
	checkQuickGolden(t, "abl-conntrack", r)
	if r.Values["cps_small"] >= r.Values["cps_big"] {
		t.Fatalf("thrashing table CPS %.0f not below sized table %.0f",
			r.Values["cps_small"], r.Values["cps_big"])
	}
	if r.Values["evictions_small"] == 0 {
		t.Fatal("undersized table produced no evictions")
	}
}

func TestResultJSON(t *testing.T) {
	t.Parallel()
	r := Fig06IOBreakdown(Quick)
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"preprocess_us", "Figure 6", "tables"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("JSON missing %q", want)
		}
	}
}

func TestFig15Shape(t *testing.T) {
	t.Parallel()
	r := Fig15MySQL(Quick)
	checkQuickGolden(t, "fig15", r)
	base, tc := r.Values["avg_query.baseline"], r.Values["avg_query.taichi"]
	if base <= 0 || tc <= 0 {
		t.Fatal("no throughput measured")
	}
	// Tai Chi overhead must stay within the paper's ~2% envelope.
	if tc < 0.975*base {
		t.Fatalf("MySQL overhead %.2f%% exceeds envelope", 100*(1-tc/base))
	}
}

func TestFig14Shape(t *testing.T) {
	t.Parallel()
	r := Fig14DPSuite(Quick)
	checkQuickGolden(t, "fig14", r)
	for _, cse := range []string{"udp_stream.pps", "tcp_stream.pps"} {
		base, tc := r.Values[cse+".baseline"], r.Values[cse+".taichi"]
		if base <= 0 {
			t.Fatalf("%s: no baseline", cse)
		}
		if tc < 0.97*base {
			t.Fatalf("%s overhead %.2f%% exceeds the paper's ~2%% envelope", cse, 100*(1-tc/base))
		}
		if tc > 1.005*base {
			t.Fatalf("%s: Tai Chi above baseline by %.2f%%?", cse, 100*(tc/base-1))
		}
	}
}

func TestFig16Shape(t *testing.T) {
	t.Parallel()
	r := Fig16Nginx(Quick)
	checkQuickGolden(t, "fig16", r)
	for _, cse := range []string{"http_long", "http_short", "https_long", "https_short"} {
		base, tc := r.Values[cse+".baseline"], r.Values[cse+".taichi"]
		if base <= 0 {
			t.Fatalf("%s: no baseline", cse)
		}
		// Paper: 0.51% average overhead, up to 1% on short connections.
		if tc < 0.99*base || tc > 1.01*base {
			t.Fatalf("%s: Tai Chi %.0f RPS vs baseline %.0f, beyond the paper's ~1%% envelope", cse, tc, base)
		}
	}
}
