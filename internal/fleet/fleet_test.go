package fleet

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func TestRunAggregates(t *testing.T) {
	agg := Run(5, 100, func(idx int, seed int64, a *Aggregates) {
		h := metrics.NewHistogram("lat")
		h.Record(sim.Duration(idx+1) * sim.Microsecond)
		a.Merge("lat", h)
		a.Add("packets", float64(10*(idx+1)))
	})
	if agg.Members != 5 {
		t.Fatalf("members %d", agg.Members)
	}
	if got := agg.Histogram("lat").Count(); got != 5 {
		t.Fatalf("merged count %d", got)
	}
	if got := agg.Scalar("packets"); got != 150 {
		t.Fatalf("scalar %v", got)
	}
}

func TestSeedsDistinctAndDeterministic(t *testing.T) {
	collect := func() []int64 {
		// Members run concurrently: each writes only its own slot.
		seeds := make([]int64, 4)
		Run(4, 7, func(idx int, seed int64, _ *Aggregates) { seeds[idx] = seed })
		return seeds
	}
	a, b := collect(), collect()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("seeds not deterministic")
		}
		for j := i + 1; j < len(a); j++ {
			if a[i] == a[j] {
				t.Fatal("duplicate member seeds")
			}
		}
	}
}

// demoMember does enough randomized per-member work — multiple
// histograms, multiple scalars, all derived from the member seed — that
// any ordering or data-race bug in the pool shows up in the rendered
// aggregates.
func demoMember(idx int, seed int64, a *Aggregates) {
	r := rand.New(rand.NewSource(seed))
	lat := metrics.NewHistogram("lat")
	for i := 0; i < 2000; i++ {
		lat.Record(sim.Duration(r.Intn(5_000_000)))
	}
	a.Merge("lat", lat)
	a.Histogram("direct").Record(sim.Duration(idx+1) * sim.Microsecond)
	a.Add("packets", float64(r.Intn(1000)))
	a.Add("bytes", r.Float64()*1e9)
}

// TestParallelDeterminism is the determinism regression test: fleet
// output (histogram summaries + scalars, rendered deterministically) must
// be byte-identical for worker counts 1, 2 and 8 across several seeds.
func TestParallelDeterminism(t *testing.T) {
	for _, seed := range []int64{3, 99, 2024} {
		want := RunWorkers(9, seed, 1, demoMember).Describe()
		for _, workers := range []int{2, 8} {
			got := RunWorkers(9, seed, workers, demoMember).Describe()
			if got != want {
				t.Fatalf("seed %d workers %d: parallel output diverged from sequential\n--- sequential\n%s--- parallel\n%s",
					seed, workers, want, got)
			}
		}
	}
}

// TestRunMatchesRunWorkers pins Run to the default pool: same seeds, same
// merged output as an explicit sequential run.
func TestRunMatchesRunWorkers(t *testing.T) {
	if got, want := Run(5, 7, demoMember).Describe(), RunWorkers(5, 7, 1, demoMember).Describe(); got != want {
		t.Fatalf("Run diverged from sequential RunWorkers:\n%s\nvs\n%s", got, want)
	}
}

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		out := make([]int, 40)
		ForEach(len(out), workers, func(i int) { out[i] = i + 1 })
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("workers %d: index %d not visited", workers, i)
			}
		}
	}
}

func TestForEachEdgeCases(t *testing.T) {
	// Zero and negative member counts are no-ops, not hangs or panics.
	for _, n := range []int{0, -3} {
		called := false
		ForEach(n, 4, func(int) { called = true })
		if called {
			t.Fatalf("n=%d: fn called", n)
		}
	}
	// Negative worker counts select the default pool; more workers than
	// members clamps to the member count. Both must still visit every index.
	for _, workers := range []int{-5, 100} {
		out := make([]int, 3)
		ForEach(len(out), workers, func(i int) { out[i] = i + 1 })
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("workers %d: index %d not visited", workers, i)
			}
		}
	}
}

// TestForEachPanicSafety drives a member fn that panics on some indices:
// the pool must not deadlock or die, every non-panicking index must still
// run, and the re-panic must name the lowest panicking index regardless
// of worker count.
func TestForEachPanicSafety(t *testing.T) {
	for _, workers := range []int{1, 4} {
		out := make([]bool, 20)
		var msg string
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers %d: panic swallowed", workers)
				}
				msg = fmt.Sprint(r)
			}()
			ForEach(len(out), workers, func(i int) {
				if i == 5 || i == 11 {
					panic("boom")
				}
				out[i] = true
			})
		}()
		if want := "fleet: member 5 panicked: boom"; msg != want {
			t.Fatalf("workers %d: panic %q, want %q", workers, msg, want)
		}
		for i, v := range out {
			if i == 5 || i == 11 {
				continue
			}
			if !v {
				t.Fatalf("workers %d: index %d skipped after panic", workers, i)
			}
		}
	}
}

func TestMergeFromAccumulates(t *testing.T) {
	a, b := NewAggregates(), NewAggregates()
	a.Add("x", 1)
	a.Histogram("h").Record(3)
	b.Add("x", 2)
	b.Add("y", 5)
	b.Histogram("h").Record(4)
	b.Members = 2
	a.MergeFrom(b)
	if got := a.Scalar("x"); got != 3 {
		t.Fatalf("x = %v", got)
	}
	if got := a.Scalar("y"); got != 5 {
		t.Fatalf("y = %v", got)
	}
	if got := a.Histogram("h").Count(); got != 2 {
		t.Fatalf("h count %d", got)
	}
	if a.Members != 2 {
		t.Fatalf("members %d", a.Members)
	}
}

func TestZeroMembersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Run(0, 1, func(int, int64, *Aggregates) {})
}

func TestDescribe(t *testing.T) {
	agg := Run(1, 1, func(_ int, _ int64, a *Aggregates) {
		a.Add("x", 2)
		a.Histogram("h").Record(5)
	})
	out := agg.Describe()
	if !strings.Contains(out, "1 members") || !strings.Contains(out, "x = 2") {
		t.Fatalf("describe output:\n%s", out)
	}
}
