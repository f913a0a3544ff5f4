package taichi_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	taichi "repro"
	"repro/internal/experiments"
)

// placementVals runs the pinned placement sweep once at Quick scale.
func placementVals(workers int) (string, map[string]float64) {
	scale := taichi.Quick
	scale.Workers = workers
	tbl, vals := experiments.PlacementRun(scale, 2100)
	keys := make([]string, 0, len(vals))
	for k := range vals { //taichi:allow maporder — sorted before use
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(tbl.String())
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%g\n", k, vals[k])
	}
	return b.String(), vals
}

// placementSequential is the workers-1 sweep, computed once per test binary:
// TestPlacementAcceptance and TestPlacementParallelDeterminism both read it.
var placementSequential = sync.OnceValues(func() (string, map[string]float64) { return placementVals(1) })

// TestPlacementAcceptance is the PR's seed-pinned acceptance gate: over
// the skewed fleet the signal-driven pressure policy must beat blind
// round-robin on both p99 VM-startup latency and hotspot dwell, every
// policy's migrations must respect the per-scan budget, every run must
// settle, and the placer+node traces must replay audit-clean.
func TestPlacementAcceptance(t *testing.T) {
	_, vals := placementSequential()

	for _, pol := range []string{"rr", "spread", "binpack", "pressure"} {
		if vals["plc_settled_"+pol] != 1 {
			t.Fatalf("policy %s never settled", pol)
		}
		if v := vals["plc_audit_violations_"+pol]; v != 0 {
			t.Fatalf("policy %s: %g audit violations; placer traces must replay clean", pol, v)
		}
		if vals["plc_budget_ok_"+pol] != 1 {
			t.Fatalf("policy %s exceeded the per-scan migration budget", pol)
		}
	}
	if p, r := vals["plc_p99_ms_pressure"], vals["plc_p99_ms_rr"]; p >= r {
		t.Fatalf("pressure p99 %.3fms not below round-robin %.3fms; signal-driven placement must win under skew", p, r)
	}
	if p, r := vals["plc_dwell_pressure"], vals["plc_dwell_rr"]; p >= r {
		t.Fatalf("pressure hotspot dwell %g not below round-robin %g", p, r)
	}
	if vals["plc_migrations_rr"] == 0 {
		t.Fatal("round-robin forced no migrations; the skew never stressed the rebalance loop")
	}
	if vals["plc_migrations_done_rr"] != vals["plc_migrations_rr"] {
		t.Fatalf("round-robin: %g migrations started but %g completed",
			vals["plc_migrations_rr"], vals["plc_migrations_done_rr"])
	}
}

// TestPlacementParallelDeterminism pins the placement sweep to the fleet
// determinism contract: byte-identical table and values on 1 and 8
// workers, with the 1-worker string pinned in
// testdata/golden/quick/placement_vals.txt.
func TestPlacementParallelDeterminism(t *testing.T) {
	sequential, _ := placementSequential()
	checkGolden(t, "quick/placement_vals.txt", []byte(sequential))
	if parallel, _ := placementVals(8); parallel != sequential {
		t.Fatalf("placement sweep differs between 1 and 8 workers:\n--- sequential\n%s--- parallel\n%s",
			sequential, parallel)
	}
}
