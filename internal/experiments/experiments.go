// Package experiments contains one harness per table and figure of the
// paper's motivation and evaluation sections. Each harness builds the
// systems it compares (Tai Chi plus the relevant baselines), drives the
// calibrated workload, and returns both rendered text (tables/series,
// what cmd/taichi-bench prints) and the raw numbers (what tests and
// benches assert on). DESIGN.md §3 maps every experiment id to its
// modules; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"encoding/json"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Scale selects how long experiments run. Quick keeps unit tests fast;
// Full is what cmd/taichi-bench uses for the recorded EXPERIMENTS.md
// numbers.
type Scale struct {
	// Factor multiplies measurement windows.
	Factor float64
	// Label annotates output.
	Label string
	// Workers bounds the worker pool used by the harnesses that fan out
	// over independent simulations (the fleet-backed fig3/fig5 and the
	// fig2/fig17 density sweeps). Zero selects fleet.DefaultWorkers
	// (GOMAXPROCS); 1 forces sequential execution. The pool size never
	// changes measured values: every simulation is independently seeded
	// and results are merged in index order, so output is byte-identical
	// for any worker count.
	Workers int
}

// Quick is the CI-friendly scale.
var Quick = Scale{Factor: 0.25, Label: "quick"}

// Full is the reporting scale.
var Full = Scale{Factor: 1.0, Label: "full"}

func (s Scale) dur(d sim.Duration) sim.Duration {
	out := sim.Duration(float64(d) * s.Factor)
	if out < sim.Millisecond {
		out = sim.Millisecond
	}
	return out
}

// Result is one experiment's output.
type Result struct {
	ID     string
	Tables []*metrics.Table
	Series []*metrics.Series
	Notes  []string
	// Values holds named scalar results for programmatic assertions.
	Values map[string]float64
}

func newResult(id string) *Result {
	return &Result{ID: id, Values: map[string]float64{}}
}

// Render returns the experiment's full text output.
func (r *Result) Render() string {
	out := fmt.Sprintf("### %s\n", r.ID)
	for _, t := range r.Tables {
		out += t.String() + "\n"
	}
	for _, s := range r.Series {
		out += s.String() + "\n"
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// deployMonitors starts n periodic monitoring tasks — the steady CP mix
// that keeps vCPUs busy during data-plane experiments.
func deployMonitors(host cluster.Host, n int) {
	for i := 0; i < n; i++ {
		host.SpawnCP(fmt.Sprintf("monitor%d", i), controlplane.Monitor(host.Stream(fmt.Sprintf("exp.mon%d", i))))
	}
}

// spawnSynthBatch launches n synth_cp tasks at once and returns them.
func spawnSynthBatch(host cluster.Host, cfg controlplane.SynthCPConfig, n int) []*kernel.Thread {
	out := make([]*kernel.Thread, n)
	for i := range out {
		out[i] = host.SpawnCP(fmt.Sprintf("synth%d", i), controlplane.SynthCP(cfg, host.Stream(fmt.Sprintf("synth%d", i))))
	}
	return out
}

// meanTurnaround averages completed-thread turnaround; threads that did
// not finish count as `cap` (pessimistic).
func meanTurnaround(threads []*kernel.Thread, cap sim.Duration) sim.Duration {
	if len(threads) == 0 {
		return 0
	}
	var sum float64
	for _, t := range threads {
		ta := t.Turnaround()
		if t.State() != kernel.StateDone {
			ta = cap
		}
		sum += float64(ta)
	}
	return sim.Duration(sum / float64(len(threads)))
}

// pct returns (b-a)/a in percent.
func pct(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return 100 * (b - a) / a
}

// coarseBackground returns the standard bursty background load with
// per-packet work scaled 8× (and rates scaled down accordingly): the same
// utilization trajectory at an eighth of the event cost, for long-horizon
// experiments where per-packet latency is not the measured quantity.
func coarseBackground(mean float64) workload.BackgroundConfig {
	cfg := workload.DefaultBackground(mean)
	cfg.NetWork *= 8
	cfg.StorWork *= 8
	return cfg
}

// deployEcosystem spawns the production CP ecosystem the paper describes
// (§3.2: 300-500 heterogeneous tasks): many light duty-cycled tasks whose
// aggregate demand is coreEquiv CPU cores. Under the static baseline this
// load shares the 4 CP pCPUs with whatever benchmark runs; under Tai Chi
// it spreads onto borrowed DP cycles like everything else.
func deployEcosystem(host cluster.Host, coreEquiv float64) {
	const tasks = 64
	const compute = 1500 * sim.Microsecond
	// duty = coreEquiv/tasks; sleep = compute*(1-duty)/duty.
	duty := coreEquiv / tasks
	sleep := sim.Duration(float64(compute) * (1 - duty) / duty)
	for i := 0; i < tasks; i++ {
		r := host.Stream(fmt.Sprintf("eco%d", i))
		phase := 0
		host.SpawnCP(fmt.Sprintf("eco%d", i), kernel.ProgramFunc(func(*kernel.Thread) (kernel.Segment, bool) {
			phase++
			if phase%2 == 1 {
				return kernel.Segment{Kind: kernel.SegSleep, Dur: sim.Jitter(r, sleep, 0.3)}, true
			}
			if r.Float64() < 0.02 {
				return kernel.Segment{Kind: kernel.SegNonPreempt, Dur: sim.Jitter(r, 2*sim.Millisecond, 0.5), Note: "eco_np"}, true
			}
			return kernel.Segment{Kind: kernel.SegCompute, Dur: sim.Jitter(r, compute, 0.3)}, true
		}))
	}
}

// JSON serializes the result for machine consumption (taichi-bench -json):
// the experiment id, scalar values, notes, and each table/series rendered
// as text.
func (r *Result) JSON() ([]byte, error) {
	type dto struct {
		ID     string             `json:"id"`
		Values map[string]float64 `json:"values"`
		Notes  []string           `json:"notes,omitempty"`
		Tables []string           `json:"tables,omitempty"`
		Series []string           `json:"series,omitempty"`
	}
	d := dto{ID: r.ID, Values: r.Values, Notes: r.Notes}
	for _, t := range r.Tables {
		d.Tables = append(d.Tables, t.String())
	}
	for _, s := range r.Series {
		d.Series = append(d.Series, s.String())
	}
	return json.MarshalIndent(d, "", "  ")
}
