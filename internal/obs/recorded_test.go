package obs

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/trace"
)

// recordedTrace runs faulted VM churn on one Tai Chi node for horizon
// and returns its trace: density-4 startups with retries under
// faults.DefaultSpec and the recovery ladder, the shape the bench
// harness's trace-export workload reads.
func recordedTrace(seed int64, horizon sim.Duration) []trace.Event {
	tc := core.NewDefault(seed)
	inj := faults.NewInjector(faults.DefaultSpec())
	inj.Attach(tc)
	tc.Sched.EnableRecovery(core.DefaultRecoveryPolicy())
	cfg := cluster.DefaultConfig(4)
	cfg.Retry = cluster.DefaultRetryPolicy()
	cfg.WrapCP = inj.WrapCP
	cluster.NewManager(tc, cfg).Start()
	tc.Engine().Run(sim.Time(horizon))
	return tc.Node.Tracer.Events()
}

// TestChromeJSONSizedOnce pins ChromeJSON's buffer: it must write the
// bytes WriteChrome streams, and allocate little beyond the derivation
// it needs, so the output is sized once rather than grown by doubling.
func TestChromeJSONSizedOnce(t *testing.T) {
	events := recordedTrace(1, 200*sim.Millisecond)
	nodes := []NodeTrace{{Label: "node0", Events: events}}
	var b bytes.Buffer
	if err := WriteChrome(&b, nodes); err != nil {
		t.Fatal(err)
	}
	js := ChromeJSON(nodes)
	if !bytes.Equal(js, b.Bytes()) {
		t.Fatalf("ChromeJSON (%d bytes) differs from WriteChrome (%d bytes)", len(js), b.Len())
	}
	if len(js) < 1<<20 {
		t.Fatalf("export is %d bytes; the trace is too small to show a growth chain", len(js))
	}
	// The output buffer and one or two of the writer's own; a growth
	// chain from a small buffer to this export's size takes over 20.
	// Each count is averaged over 10 runs because the map of large keys
	// allocates a few times more or less from one hash seed to the next.
	derive := testing.AllocsPerRun(10, func() { Derive(events) })
	export := testing.AllocsPerRun(10, func() { ChromeJSON(nodes) })
	const extra = 8
	if export > derive+extra {
		t.Errorf("ChromeJSON: %v allocations, Derive: %v; want at most %d more", export, derive, extra)
	}
}

// The trace readers' benchmarks share one recorded trace, sized like a
// quarter of a trace-export seed run. Run them with
//
//	go test -run '^$' -bench . -benchmem ./internal/obs
var benchTrace []trace.Event

func benchEvents(b *testing.B) []trace.Event {
	if benchTrace == nil {
		benchTrace = recordedTrace(1, 750*sim.Millisecond)
	}
	return benchTrace
}

func BenchmarkDerive(b *testing.B) {
	events := benchEvents(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Derive(events)
	}
	b.ReportMetric(float64(len(events)), "events")
}

func BenchmarkChromeJSON(b *testing.B) {
	nodes := []NodeTrace{{Label: "node0", Events: benchEvents(b)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ChromeJSON(nodes)
	}
}
