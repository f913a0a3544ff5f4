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

// overloadVals runs the pinned overload sweep once at Quick scale.
func overloadVals(workers int) (string, map[string]float64) {
	scale := taichi.Quick
	scale.Workers = workers
	tbl, vals := experiments.OverloadRun(scale, 1200)
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

// overloadSequential is the workers-1 sweep, computed once per test binary:
// TestOverloadAcceptance and TestOverloadParallelDeterminism both read it.
var overloadSequential = sync.OnceValues(func() (string, map[string]float64) { return overloadVals(1) })

// TestOverloadAcceptance is the PR's seed-pinned acceptance gate: at 4x
// offered load the gate must protect latency-critical goodput (>= 90% of
// its 1x completion fraction), batch must absorb the shedding (strict
// priority), and the brownout ladder must de-escalate back to normal at
// every level once the spike passes.
func TestOverloadAcceptance(t *testing.T) {
	_, vals := overloadSequential()

	frac := func(class, level string) float64 {
		issued := vals[fmt.Sprintf("ovl_issued_%s_%s", class, level)]
		if issued == 0 {
			t.Fatalf("no %s requests issued at %s", class, level)
		}
		return vals[fmt.Sprintf("ovl_goodput_%s_%s", class, level)] / issued
	}
	if f1, f4 := frac("lc", "1x"), frac("lc", "4x"); f4 < 0.9*f1 {
		t.Fatalf("latency-critical goodput fraction %0.3f at 4x < 90%% of the 1x baseline %0.3f", f4, f1)
	}
	if vals["ovl_shed_lc_4x"] != 0 {
		t.Fatalf("%g latency-critical requests shed at 4x; strict priority must shed batch first",
			vals["ovl_shed_lc_4x"])
	}
	if vals["ovl_shed_batch_4x"] == 0 {
		t.Fatal("no batch requests shed at 4x; the gate never engaged")
	}
	for _, level := range []string{"1x", "2x", "3x", "4x"} {
		if vals["ovl_settled_"+level] != 1 {
			t.Fatalf("level %s never settled", level)
		}
		if vals["ovl_final_normal_"+level] != 1 {
			t.Fatalf("level %s: ladder did not de-escalate back to normal", level)
		}
	}
}

// TestOverloadParallelDeterminism pins the overload sweep to the fleet
// determinism contract: byte-identical table and values on 1 and 8
// workers, with the 1-worker string pinned in
// testdata/golden/quick/overload_vals.txt.
func TestOverloadParallelDeterminism(t *testing.T) {
	sequential, _ := overloadSequential()
	checkGolden(t, "quick/overload_vals.txt", []byte(sequential))
	if parallel, _ := overloadVals(8); parallel != sequential {
		t.Fatalf("overload sweep differs between 1 and 8 workers:\n--- sequential\n%s--- parallel\n%s",
			sequential, parallel)
	}
}
