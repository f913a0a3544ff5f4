package main

import (
	"sort"
	"strings"
)

// metricDef is one reported metric. BENCHMARK.json lists the same names,
// units and directions; bench_test.go keeps the two in step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the baseline median an end-to-end metric may
	// worsen by before a change counts as a regression.
	bound float64
	// exact marks metrics that are a pure function of the seed: compare
	// fails on any difference.
	exact bool
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. The timings are in reference-host seconds: host seconds
// scaled by the yardstick (yardstick.go), because the host's own speed
// drifts by more than any bound between runs minutes apart (README.md).
// Every bound is 25%, the widest allowed: over four sets of ten seed sets
// on the reference host, the run medians spread by up to 11% (wall_s),
// 9.6% (setup_s) and 6.7% (peak_rss_mb), largely from the inputs
// (README.md, Metrics).
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
}

// layers are the dispatch-class layers, in report order.
var layers = []string{"accel", "kernel", "vcpu", "dataplane", "core", "cluster", "anon"}

// layerPrefixes map an event class to its layer by the label's prefix.
var layerPrefixes = []struct{ prefix, layer string }{
	{"accel.", "accel"},
	{"kernel.", "kernel"},
	{"vcpu.", "vcpu"},
	{"dp.", "dataplane"},
	{"core.", "core"},
	{"cluster.", "cluster"},
}

// layerOf maps a dispatch class to its layer; ok is false for a class no
// prefix covers.
func layerOf(class string) (layer string, ok bool) {
	if class == "(anon)" {
		return "anon", true
	}
	for _, p := range layerPrefixes {
		if strings.HasPrefix(class, p.prefix) {
			return p.layer, true
		}
	}
	return "", false
}

// perLayer are the metrics of single layers, from the traced rep where
// they need the profile clock and from the untraced medians otherwise.
var perLayer = func() []metricDef {
	c := func(name string) metricDef { return metricDef{name: name, unit: "count", better: "lower"} }
	s := func(name string) metricDef { return metricDef{name: name, unit: "s", better: "lower"} }
	f := func(name string) metricDef { return metricDef{name: name, unit: "frac", better: "lower"} }
	exact := func(d metricDef) metricDef { d.exact = true; return d }
	higher := func(d metricDef) metricDef { d.better = "higher"; return d }
	defs := []metricDef{
		c("sim.events"),
		{name: "sim.ns_per_event", unit: "ns/event", better: "lower"},
		f("sim.self_frac"),
		c("sim.heap_hwm"),
		{name: "sim.allocs_per_event", unit: "1/event", better: "lower"},
		{name: "sim.bytes_per_event", unit: "B/event", better: "lower"},
	}
	for _, l := range layers {
		defs = append(defs, c(l+".dispatches"), f(l+".wall_frac"),
			metricDef{name: l + ".ns_per_dispatch", unit: "ns/dispatch", better: "lower"})
	}
	return append(defs,
		c("runtime.gc_cycles"),
		metricDef{name: "runtime.gc_pause_ms", unit: "ms", better: "lower"},
		f("runtime.gc_cpu_frac"),
		s("runtime.cpu_s"),
		f("platform.setup_frac"),
		f("cluster.setup_frac"),
		f("workload.setup_frac"),
		f("placement.setup_frac"),
		exact(higher(c("cluster.issued"))),
		exact(higher(c("cluster.completed"))),
		exact(c("cluster.dead_lettered")),
		exact(c("cluster.shed")),
		exact(c("cluster.retried")),
		exact(higher(f("cluster.useful_frac"))),
		exact(c("core.preempts")),
		exact(higher(c("core.yields"))),
		exact(metricDef{name: "core.preempt_p99_us", unit: "sim_us", better: "lower"}),
		exact(c("core.overload_enters")),
		exact(c("faults.injected")),
		exact(higher(c("faults.detected"))),
		exact(higher(f("faults.recovered_frac"))),
		exact(c("placement.scans")),
		exact(c("placement.migrations")),
		higher(f("placement.advance_frac")),
		f("placement.sample_frac"),
		f("placement.decide_frac"),
		f("fleet.barrier_wait_frac"),
		exact(c("trace.events")),
		s("audit.replay_s"),
		exact(c("audit.violations")),
		f("obs.derive_frac"),
		exact(c("obs.spans")),
		f("obs.chrome_frac"),
		exact(metricDef{name: "obs.chrome_mb", unit: "MB", better: "lower"}),
		f("bench.trace_overhead_frac"),
		s("bench.host_wall_s"),
		metricDef{name: "bench.host_speed", unit: "x", better: "higher"},
		exact(metricDef{name: "sim_vm_startup_p50_ms", unit: "sim_ms", better: "lower"}),
		exact(metricDef{name: "sim_vm_startup_p99_ms", unit: "sim_ms", better: "lower"}),
		exact(f("sim_vm_failed_frac")),
		f("failed_frac"),
	)
}()

// column extracts one field from every untraced rep.
func (rec *record) column(field func(*sample) float64) []float64 {
	out := make([]float64, len(rec.Reps))
	for i := range rec.Reps {
		out[i] = field(&rec.Reps[i])
	}
	return out
}

// medianOf is the median of one field over the untraced reps.
func (rec *record) medianOf(field func(*sample) float64) float64 {
	_, m, _ := quartiles(rec.column(field))
	return m
}

// endToEndSamples returns each end-to-end metric's per-rep values.
func (rec *record) endToEndSamples() map[string][]float64 {
	return map[string][]float64{
		"wall_s":      rec.column(func(s *sample) float64 { return s.WallS * s.scale() }),
		"setup_s":     rec.column(func(s *sample) float64 { return s.SetupS * s.scale() }),
		"peak_rss_mb": rec.column(func(s *sample) float64 { return s.PeakRSSMB }),
	}
}

// metrics computes every end-to-end and per-layer metric of the record.
func (rec *record) metrics() map[string]float64 {
	out := map[string]float64{}
	samples := rec.endToEndSamples()
	for _, d := range endToEnd {
		_, out[d.name], _ = quartiles(samples[d.name])
	}
	t, tr := &rec.Totals, rec.Traced
	if tr == nil {
		tr = &sample{}
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	wall := out["wall_s"]
	events := rec.medianOf(func(s *sample) float64 { return float64(s.Events) })
	out["sim.events"] = events
	out["sim.ns_per_event"] = div(wall*1e9, events)
	out["sim.heap_hwm"] = float64(tr.HeapHWM)
	out["sim.allocs_per_event"] = div(rec.medianOf(func(s *sample) float64 { return float64(s.Allocs) }), events)
	out["sim.bytes_per_event"] = div(rec.medianOf(func(s *sample) float64 { return float64(s.Bytes) }), events)

	// Class wall time plus the engine's own time (self) is the traced
	// rep's time inside Run, so the wall fractions and self_frac sum to 1.
	// A class no prefix maps (a test catches those) counts as anon.
	dispatches, layerWall := map[string]float64{}, map[string]float64{}
	attributed := 0.0
	for _, c := range tr.Classes {
		l, ok := layerOf(c.Name)
		if !ok {
			l = "anon"
		}
		dispatches[l] += float64(c.Dispatches)
		layerWall[l] += c.WallS
		attributed += c.WallS
	}
	for _, l := range layers {
		out[l+".dispatches"] = dispatches[l]
		out[l+".wall_frac"] = div(layerWall[l], tr.RunS)
		out[l+".ns_per_dispatch"] = div(layerWall[l]*1e9, dispatches[l])
	}
	out["sim.self_frac"] = div(tr.RunS-attributed, tr.RunS)

	out["runtime.gc_cycles"] = rec.medianOf(func(s *sample) float64 { return float64(s.GCCycles) })
	out["runtime.gc_pause_ms"] = 1e3 * rec.medianOf(func(s *sample) float64 { return s.GCPauseS })
	out["runtime.gc_cpu_frac"] = rec.medianOf(func(s *sample) float64 { return s.GCCPUFrac })
	out["runtime.cpu_s"] = rec.medianOf(func(s *sample) float64 { return s.CPUS })
	for i, name := range []string{"platform", "cluster", "workload", "placement"} {
		out[name+".setup_frac"] = rec.medianOf(func(s *sample) float64 { return div(s.SetupLayerS[i], s.SetupS) })
	}

	out["cluster.issued"] = float64(t.Issued)
	out["cluster.completed"] = float64(t.Completed)
	out["cluster.dead_lettered"] = float64(t.DeadLettered)
	out["cluster.shed"] = float64(t.Shed)
	out["cluster.retried"] = float64(t.Retried)
	out["cluster.useful_frac"] = div(float64(t.Completed), float64(t.Issued+t.Retried))
	out["core.preempts"] = float64(t.Preempts)
	out["core.yields"] = float64(t.Yields)
	out["core.preempt_p99_us"] = t.PreemptP99Us
	out["core.overload_enters"] = float64(t.OverloadEnters)
	out["faults.injected"] = float64(t.FaultsInjected)
	out["faults.detected"] = float64(t.FaultsDetected)
	out["faults.recovered_frac"] = div(float64(t.FaultsRecovered), float64(t.FaultsDetected))

	out["placement.scans"] = float64(t.Scans)
	out["placement.migrations"] = float64(t.Migrations)
	out["placement.advance_frac"] = rec.medianOf(func(s *sample) float64 { return div(s.AdvanceS, float64(s.Workers)*s.WallS) })
	out["placement.sample_frac"] = rec.medianOf(func(s *sample) float64 { return div(s.SampleS, s.WallS) })
	out["placement.decide_frac"] = rec.medianOf(func(s *sample) float64 { return div(s.PlacerS-s.ScanSpanS, s.WallS) })
	out["fleet.barrier_wait_frac"] = rec.medianOf(func(s *sample) float64 {
		if s.ScanSpanS == 0 {
			return 0
		}
		return 1 - s.AdvanceS/(float64(s.Workers)*s.ScanSpanS)
	})

	out["trace.events"] = float64(t.TraceEvents)
	out["audit.replay_s"] = rec.medianOf(func(s *sample) float64 { return s.AuditS })
	out["audit.violations"] = float64(t.AuditViolations)
	out["obs.derive_frac"] = rec.medianOf(func(s *sample) float64 { return div(s.DeriveS, s.WallS) })
	out["obs.spans"] = float64(t.Spans)
	out["obs.chrome_frac"] = rec.medianOf(func(s *sample) float64 { return div(s.ChromeS, s.WallS) })
	out["obs.chrome_mb"] = float64(t.ChromeBytes) / 1e6
	out["bench.trace_overhead_frac"] = div(tr.WallS*tr.scale(), wall) - 1
	out["bench.host_wall_s"] = rec.medianOf(func(s *sample) float64 { return s.WallS })
	out["bench.host_speed"] = rec.medianOf(func(s *sample) float64 { return s.scale() })

	out["sim_vm_startup_p50_ms"] = t.StartupP50Ms
	out["sim_vm_startup_p99_ms"] = t.StartupP99Ms
	out["sim_vm_failed_frac"] = t.VMFailedFrac
	out["failed_frac"] = div(float64(rec.Failed), float64(rec.Attempted))
	return out
}

// quartiles returns the first quartile, median and third quartile exactly
// as Python's statistics.quantiles(values, n=4) computes them (the
// exclusive method); one value is its own quartiles.
func quartiles(values []float64) (q1, median, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return v[0], v[0], v[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := i*m - j*4
		return (v[j-1]*float64(4-delta) + v[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
