// Command taichi-trace runs a control-plane mix on the chosen system and
// analyzes its execution trace: the non-preemptible routine census
// (Figure 5), IPI delivery latency, VM-exit reasons, and (optionally)
// a raw event timeline window — the tooling counterpart of the paper's
// §3.2 production analysis.
//
// With -export it additionally derives lifecycle spans from the event
// stream (internal/obs) and writes a Chrome trace-event JSON file
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
// The export is byte-identical across repeated runs and across
// -parallel worker counts: nodes are simulated independently and
// serialized in member-index order.
//
// Usage:
//
//	taichi-trace -mode static -dur 5s
//	taichi-trace -mode taichi -timeline 10ms
//	taichi-trace -mode taichi -dur 2s -export trace.json
//	taichi-trace -mode taichi -workload vmstartup -retry -faults -export trace.json
//	taichi-trace -mode taichi -nodes 4 -parallel 8 -export fleet.json
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/kernel"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	mode := flag.String("mode", "static", "static | taichi")
	workload := flag.String("workload", "cp", "cp (monitor+churn mix) | vmstartup (cluster request lifecycle)")
	durFlag := flag.Duration("dur", 5*time.Second, "simulated duration")
	timeline := flag.Duration("timeline", 0, "print the raw event timeline for the first N of simulated time")
	seed := flag.Int64("seed", 7, "experiment seed")
	export := flag.String("export", "", "write Chrome trace-event JSON (Perfetto-loadable) to this file")
	nodes := flag.Int("nodes", 1, "number of independently-seeded nodes to trace")
	parallel := flag.Int("parallel", 1, "worker pool size for multi-node runs (output is identical for any value)")
	retry := flag.Bool("retry", false, "enable the vmstartup retry/dead-letter policy")
	withFaults := flag.Bool("faults", false, "attach the default fault-injection spec (taichi mode only)")
	withRecover := flag.Bool("recover", false, "arm the self-healing recovery ladder (taichi mode only); recovery rungs appear as defense_recover/node_rejoin trace events")
	flag.Parse()

	if *mode != "static" && *mode != "taichi" {
		fmt.Fprintf(os.Stderr, "unknown mode %q\n", *mode)
		os.Exit(2)
	}
	if *workload != "cp" && *workload != "vmstartup" {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *withFaults && *mode != "taichi" {
		fmt.Fprintln(os.Stderr, "-faults requires -mode taichi")
		os.Exit(2)
	}
	if *withRecover && *mode != "taichi" {
		fmt.Fprintln(os.Stderr, "-recover requires -mode taichi")
		os.Exit(2)
	}
	if *nodes < 1 {
		fmt.Fprintln(os.Stderr, "-nodes must be >= 1")
		os.Exit(2)
	}

	horizon := sim.Duration(durFlag.Nanoseconds())
	traces := make([]obs.NodeTrace, *nodes)
	fleet.ForEach(*nodes, *parallel, func(i int) {
		node := runNode(*mode, *workload, fleet.MemberSeed(*seed, i), horizon, *retry, *withFaults, *withRecover)
		traces[i] = obs.NodeTrace{
			Label:  fmt.Sprintf("%s-node%d", *mode, i),
			Events: append([]trace.Event{}, node.Tracer.Events()...),
		}
		if i == 0 {
			analyze(node, *timeline)
		}
	})

	// Per-node derived-span summary — the textual counterpart of the
	// Chrome export, printed in member-index order.
	for i, nt := range traces {
		d := obs.Derive(nt.Events)
		fmt.Printf("node%d: %d events, %d spans, %d instants\n", i, len(nt.Events), len(d.Spans), len(d.Instants))
		for _, s := range obs.Summarize(d) {
			fmt.Printf("  span %-8s n=%-6d truncated=%-4d total=%v\n", s.Class, s.Count, s.Truncated, s.Total)
		}
	}

	if *export != "" {
		n, err := exportChrome(*export, traces)
		if err != nil {
			fmt.Fprintf(os.Stderr, "export: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("exported %d bytes to %s\n", n, *export)
	}
}

// exportChrome streams the Chrome trace-event JSON of traces into the
// file at path, so the whole export is never held in memory, and
// returns the number of bytes written.
func exportChrome(path string, traces []obs.NodeTrace) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close() // for the error paths; the success path checks Close
	cw := &countingWriter{w: f}
	bw := bufio.NewWriter(cw)
	if err := obs.WriteChrome(bw, traces); err != nil {
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	return cw.n, f.Close()
}

// countingWriter counts the bytes it passes on to w.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// runNode builds one node, applies the workload, and runs it to the
// horizon. Everything inside is a pure function of (mode, workload,
// seed, horizon, flags) — the multi-node export depends on it.
func runNode(mode, workload string, seed int64, horizon sim.Duration, retry, withFaults, withRecover bool) *platform.Node {
	var node *platform.Node
	var spawn func(string, kernel.Program) *kernel.Thread
	var host cluster.Host
	switch mode {
	case "static":
		b := baseline.NewStaticDefault(seed)
		node, spawn, host = b.Node, b.SpawnCP, b
	case "taichi":
		tc := core.NewDefault(seed)
		if withFaults {
			inj := faults.NewInjector(faults.DefaultSpec())
			inj.Attach(tc)
		}
		if withRecover {
			tc.Sched.EnableRecovery(core.DefaultRecoveryPolicy())
		}
		node, spawn, host = tc.Node, tc.SpawnCP, tc
	}

	switch workload {
	case "cp":
		// A production-like CP mix (monitors + synth churn), the §3.2 setup.
		for i := 0; i < 12; i++ {
			spawn(fmt.Sprintf("monitor%d", i),
				controlplane.Monitor(controlplane.DefaultMonitor(), node.Stream(fmt.Sprintf("churn.mon%d", i))))
		}
		cfg := controlplane.DefaultSynthCP()
		r := node.Stream("churn")
		var churn func(i int)
		churn = func(i int) {
			spawn(fmt.Sprintf("churn%d", i), controlplane.SynthCP(cfg, r))
			node.Engine.Schedule(sim.Exponential(r, 40*sim.Millisecond), func() { churn(i + 1) })
		}
		churn(0)
	case "vmstartup":
		cfg := cluster.DefaultConfig(4)
		if retry {
			cfg.Retry = cluster.DefaultRetryPolicy()
		}
		mgr := cluster.NewManager(host, cfg)
		mgr.Start()
	}

	node.Run(node.Now().Add(horizon))
	return node
}

// analyze prints the single-node trace analyses (census, IPI latency,
// exit reasons, optional timeline) for the first node.
func analyze(node *platform.Node, timeline time.Duration) {
	// Census (Figure 5 analysis).
	census := node.Tracer.NonPreemptibleCensus()
	fmt.Printf("non-preemptible routines: %d total, max %v\n", census.Count(), census.Max())
	for _, b := range trace.CensusBuckets(census) {
		fmt.Printf("  %8v - %8v : %d\n", b.Lo, b.Hi, b.Count)
	}

	// IPI latency.
	if ipi := node.Tracer.IPILatencies(); ipi.Count() > 0 {
		fmt.Printf("ipi delivery: n=%d mean=%v p99=%v\n", ipi.Count(), ipi.Mean(), ipi.Quantile(0.99))
	}

	// VM-exit reasons (Tai Chi only).
	if reasons := node.Tracer.ExitReasonCounts(); len(reasons) > 0 {
		keys := make([]string, 0, len(reasons))
		for k := range reasons {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Println("vm-exit reasons:")
		for _, k := range keys {
			fmt.Printf("  %-8s %d\n", k, reasons[k])
		}
	}

	if timeline > 0 {
		fmt.Println("timeline:")
		fmt.Print(node.Tracer.Timeline(0, sim.Time(timeline.Nanoseconds())))
	}
}
