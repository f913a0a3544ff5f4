package experiments

import (
	"fmt"
	"testing"
)

func TestChaosShape(t *testing.T) {
	t.Parallel()
	r := Chaos(Quick)

	// The 0x level is the fault-free anchor: nothing injected, nothing
	// detected, CP work completes.
	if r.Values["injected_0x"] != 0 || r.Values["detected_0x"] != 0 {
		t.Fatalf("0x level not fault-free: injected=%v detected=%v",
			r.Values["injected_0x"], r.Values["detected_0x"])
	}
	if r.Values["cp_done_0x"] == 0 {
		t.Fatal("no CP work completed fault-free")
	}

	// Armed levels must inject, and the defense must both notice and
	// recover.
	for _, lvl := range []string{"1x", "2x"} {
		if r.Values["injected_"+lvl] == 0 {
			t.Fatalf("nothing injected at %s", lvl)
		}
		if r.Values["detected_"+lvl] == 0 {
			t.Fatalf("nothing detected at %s", lvl)
		}
		if r.Values["recovered_"+lvl] == 0 {
			t.Fatalf("nothing recovered at %s", lvl)
		}
	}

	// Graceful degradation: even at 2x the default fault profile, DP p99
	// stays within a small multiple of fault-free and CP throughput does
	// not collapse.
	if base, faulted := r.Values["p99_us_0x"], r.Values["p99_us_2x"]; faulted > 5*base {
		t.Fatalf("p99 degraded %vus -> %vus (>5x) under 2x faults", base, faulted)
	}
	if done, base := r.Values["cp_done_2x"], r.Values["cp_done_0x"]; done < base/2 {
		t.Fatalf("CP throughput collapsed: %v done vs %v fault-free", done, base)
	}
}

// TestChaosSmokeRequestOutcomes is the request-lifecycle acceptance
// gate, run under the race detector by `make check`: at every fault
// level, 100% of issued VM creations must reach a terminal state, and
// the rendered outcome table must be byte-identical across three seeds
// × 1 and 8 workers.
func TestChaosSmokeRequestOutcomes(t *testing.T) {
	t.Parallel()
	for _, seed := range []int64{950, 951, 7007} {
		render := func(workers int) string {
			scale := Quick
			scale.Workers = workers
			tbl, vals := RequestOutcomes(scale, seed)
			for _, lvl := range []string{"0x", "0.5x", "1x", "2x"} {
				if issued := vals["req_issued_"+lvl]; issued == 0 {
					t.Fatalf("seed %d workers %d: nothing issued at %s", seed, workers, lvl)
				}
				if pct := vals["req_terminal_pct_"+lvl]; pct != 100 {
					t.Fatalf("seed %d workers %d level %s: only %.1f%% of requests terminal — lost requests",
						seed, workers, lvl, pct)
				}
				if got := vals["req_completed_"+lvl] + vals["req_dead_"+lvl]; got != vals["req_issued_"+lvl] {
					t.Fatalf("seed %d workers %d level %s: completed+dead=%v != issued=%v",
						seed, workers, lvl, got, vals["req_issued_"+lvl])
				}
			}
			return tbl.String() + fmt.Sprintf(" dead=%g", vals["req_dead_2x"])
		}
		sequential := render(1)
		if parallel := render(8); parallel != sequential {
			t.Fatalf("seed %d: request outcomes differ between 1 and 8 workers:\n--- 1\n%s--- 8\n%s",
				seed, sequential, parallel)
		}
	}
}
