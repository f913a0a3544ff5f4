// Command taichi-report renders the JSON artifacts written by the
// other tools into a single markdown report — a regenerable
// EXPERIMENTS.md-style summary. It understands two file shapes and
// dispatches on content, so one directory can mix both:
//
//   - experiment results from `taichi-bench -json <dir>`
//   - metrics snapshots from `taichi-sim -metrics out.json`
//
// Any other .json file in the directory is an error that names it.
//
// Usage:
//
//	taichi-bench -json results/
//	taichi-sim -metrics results/sim.json
//	taichi-report results/ > report.md
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/obs"
)

type result struct {
	ID     string             `json:"id"`
	Values map[string]float64 `json:"values"`
	Notes  []string           `json:"notes"`
	Tables []string           `json:"tables"`
	Series []string           `json:"series"`
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: taichi-report <json-dir>")
		os.Exit(2)
	}
	dir := os.Args[1]
	entries, err := os.ReadDir(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		fmt.Fprintln(os.Stderr, "no .json results in", dir)
		os.Exit(1)
	}

	fmt.Println("# Tai Chi reproduction report")
	fmt.Println()
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if snap, ok := parseSnapshot(data); ok {
			renderSnapshot(f, snap)
			continue
		}
		r, err := parseResult(data)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", f, err)
			os.Exit(1)
		}
		renderResult(r)
	}
}

// parseResult decodes an experiment result. A JSON document without an
// "id" is some other tool's artifact, not a result, and is rejected
// rather than rendered as an empty section.
func parseResult(data []byte) (result, error) {
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return r, err
	}
	if r.ID == "" {
		return r, fmt.Errorf("neither an experiment result (no \"id\") nor a metrics snapshot")
	}
	return r, nil
}

// renderResult prints one experiment result section.
func renderResult(r result) {
	fmt.Printf("## %s\n\n", r.ID)
	for _, t := range r.Tables {
		fmt.Println("```")
		fmt.Print(t)
		fmt.Println("```")
		fmt.Println()
	}
	if len(r.Values) > 0 {
		keys := make([]string, 0, len(r.Values))
		for k := range r.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Println("| value | measurement |")
		fmt.Println("|---|---|")
		for _, k := range keys {
			fmt.Printf("| `%s` | %g |\n", k, r.Values[k])
		}
		fmt.Println()
	}
	if line := outcomeLine(r.Values); line != "" {
		fmt.Printf("> %s\n\n", line)
	}
	if line := retryLine(r.Values); line != "" {
		fmt.Printf("> %s\n\n", line)
	}
	if line := degradedLine(r.Values); line != "" {
		fmt.Printf("> %s\n\n", line)
	}
	if line := overloadLine(r.Values); line != "" {
		fmt.Printf("> %s\n\n", line)
	}
	if line := placementLine(r.Values); line != "" {
		fmt.Printf("> %s\n\n", line)
	}
	for _, n := range r.Notes {
		fmt.Printf("> %s\n\n", n)
	}
}

// parseSnapshot tries to decode a metrics snapshot. A snapshot is
// recognized by shape: valid JSON object carrying at least one of the
// counters/gauges/histograms arrays and none of the experiment-result
// fields.
func parseSnapshot(data []byte) (*obs.Snapshot, bool) {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, false
	}
	if _, isResult := probe["id"]; isResult {
		return nil, false
	}
	_, hasC := probe["counters"]
	_, hasG := probe["gauges"]
	_, hasH := probe["histograms"]
	if !hasC && !hasG && !hasH {
		return nil, false
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, false
	}
	return &snap, true
}

// renderSnapshot prints a metrics snapshot as markdown tables.
func renderSnapshot(name string, s *obs.Snapshot) {
	fmt.Printf("## %s — metrics snapshot\n\n", name)
	if len(s.Counters) > 0 || len(s.Gauges) > 0 {
		fmt.Println("| metric | value |")
		fmt.Println("|---|---|")
		cs := append([]obs.CounterSnap{}, s.Counters...)
		sort.SliceStable(cs, func(i, j int) bool { return cs[i].Name < cs[j].Name })
		for _, c := range cs {
			fmt.Printf("| `%s` | %d |\n", c.Name, c.Value)
		}
		gs := append([]obs.GaugeSnap{}, s.Gauges...)
		sort.SliceStable(gs, func(i, j int) bool { return gs[i].Name < gs[j].Name })
		for _, g := range gs {
			fmt.Printf("| `%s` | %g |\n", g.Name, g.Value)
		}
		fmt.Println()
	}
	if len(s.Histograms) > 0 {
		fmt.Println("| histogram | count | mean µs | p50 µs | p99 µs | max µs |")
		fmt.Println("|---|---|---|---|---|---|")
		hs := append([]obs.HistogramSnap{}, s.Histograms...)
		sort.SliceStable(hs, func(i, j int) bool { return hs[i].Name < hs[j].Name })
		for _, h := range hs {
			fmt.Printf("| `%s` | %d | %.1f | %.1f | %.1f | %.1f |\n",
				h.Name, h.Count, float64(h.MeanNs)/1e3, float64(h.P50Ns)/1e3,
				float64(h.P99Ns)/1e3, float64(h.MaxNs)/1e3)
		}
		fmt.Println()
	}
}

// overloadLine summarizes the overload sweep when the result carries
// ovl_* values: per-class shed totals, whether the brownout ladder
// de-escalated back to normal at every offered-load level, and the
// latency-critical goodput protection (the highest level's goodput as a
// fraction of its issue count). It returns "" for results without those
// keys.
func overloadLine(values map[string]float64) string {
	keys := make([]string, 0, len(values))
	for k := range values { //taichi:allow maporder — keys are sorted before iteration below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var levels, settled []string
	shedBatch, shedNormal, shedLC := 0.0, 0.0, 0.0
	for _, k := range keys {
		if !strings.HasPrefix(k, "ovl_final_normal_") {
			continue
		}
		lvl := strings.TrimPrefix(k, "ovl_final_normal_")
		levels = append(levels, lvl)
		if values[k] >= 1 {
			settled = append(settled, lvl)
		}
		shedBatch += values["ovl_shed_batch_"+lvl]
		shedNormal += values["ovl_shed_normal_"+lvl]
		shedLC += values["ovl_shed_lc_"+lvl]
	}
	if len(levels) == 0 {
		return ""
	}
	top := levels[len(levels)-1]
	lcIssued := values["ovl_issued_lc_"+top]
	lcDone := values["ovl_goodput_lc_"+top]
	lcPct := 0.0
	if lcIssued > 0 {
		lcPct = 100 * lcDone / lcIssued
	}
	ladder := fmt.Sprintf("ladder de-escalated to normal at %d/%d levels", len(settled), len(levels))
	if len(settled) == len(levels) {
		ladder = "ladder de-escalated to normal at every level"
	}
	return fmt.Sprintf("overload: shed batch=%g normal=%g latency-critical=%g; %s; latency-critical goodput at %s: %g/%g (%.0f%%)",
		shedBatch, shedNormal, shedLC, ladder, top, lcDone, lcIssued, lcPct)
}

// placementLine summarizes the placement sweep when the result carries
// plc_* values: the headline pressure-vs-round-robin comparison (p99
// VM-startup latency and hotspot dwell), the fleet-wide migration count,
// and the audit verdict across every policy. It returns "" for results
// without those keys.
func placementLine(values map[string]float64) string {
	keys := make([]string, 0, len(values))
	for k := range values { //taichi:allow maporder — keys are sorted before iteration below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var policies []string
	migrations, violations := 0.0, 0.0
	for _, k := range keys {
		if !strings.HasPrefix(k, "plc_settled_") {
			continue
		}
		pol := strings.TrimPrefix(k, "plc_settled_")
		policies = append(policies, pol)
		migrations += values["plc_migrations_done_"+pol]
		violations += values["plc_audit_violations_"+pol]
	}
	if len(policies) == 0 {
		return ""
	}
	auditMsg := "all policy traces replayed audit-clean"
	if violations > 0 {
		auditMsg = fmt.Sprintf("WARNING — %g audit violations", violations)
	}
	pP99, rP99 := values["plc_p99_ms_pressure"], values["plc_p99_ms_rr"]
	pDwell, rDwell := values["plc_dwell_pressure"], values["plc_dwell_rr"]
	verdict := "pressure beat round-robin on p99 startup latency and hotspot dwell"
	if pP99 >= rP99 || pDwell >= rDwell {
		verdict = "WARNING — pressure did not beat round-robin on both p99 and dwell"
	}
	return fmt.Sprintf("placement: p99 pressure=%.0fms vs rr=%.0fms, dwell pressure=%g vs rr=%g — %s; %g live migrations completed fleet-wide; %s",
		pP99, rP99, pDwell, rDwell, verdict, migrations, auditMsg)
}

// outcomeLine summarizes the request-lifecycle invariant when the
// result carries req_terminal_pct_* values (the chaos experiment's
// request-outcome sweep): every issued VM creation must end completed
// or dead-lettered. It returns "" for results without those keys.
func outcomeLine(values map[string]float64) string {
	keys := make([]string, 0, len(values))
	for k := range values { //taichi:allow maporder — keys are sorted before iteration below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var levels, drained []string
	dead := 0.0
	for _, k := range keys {
		if !strings.HasPrefix(k, "req_terminal_pct_") {
			continue
		}
		lvl := strings.TrimPrefix(k, "req_terminal_pct_")
		levels = append(levels, lvl)
		if values[k] >= 100 {
			drained = append(drained, lvl)
		}
		dead += values["req_dead_"+lvl]
	}
	if len(levels) == 0 {
		return ""
	}
	if len(drained) == len(levels) {
		return fmt.Sprintf("request lifecycle: all fault levels fully drained — every issued VM creation reached a terminal state (%g dead-lettered fleet-wide)", dead)
	}
	return fmt.Sprintf("request lifecycle: WARNING — only %d/%d fault levels reached 100%% terminal (drained: %s)",
		len(drained), len(levels), strings.Join(drained, ", "))
}

// retryLine labels the retry work when the result carries
// req_retried_* values: how many attempts were re-issued after faults
// and how many requests exhausted the policy into the dead-letter
// queue. It returns "" for results without those keys.
func retryLine(values map[string]float64) string {
	keys := make([]string, 0, len(values))
	for k := range values { //taichi:allow maporder — keys are sorted before iteration below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	retried, dead, issued := 0.0, 0.0, 0.0
	found := false
	for _, k := range keys {
		if !strings.HasPrefix(k, "req_retried_") {
			continue
		}
		found = true
		lvl := strings.TrimPrefix(k, "req_retried_")
		retried += values[k]
		dead += values["req_dead_"+lvl]
		issued += values["req_issued_"+lvl]
	}
	if !found || issued == 0 {
		return ""
	}
	return fmt.Sprintf("retry: %g of %g issued requests needed at least one retry; %g dead-lettered after exhausting the policy",
		retried, issued, dead)
}

// degradedLine summarizes residual damage when the result carries
// degraded_<mode>_<level> markers — the chaos sweeps tag every node-run
// that ends the horizon below normal defense mode. Chaos-shaped results
// without any marker get an explicit all-clear, so a clean sweep is a
// statement rather than an omission. Other results return "".
func degradedLine(values map[string]float64) string {
	keys := make([]string, 0, len(values))
	for k := range values { //taichi:allow maporder — keys are sorted before iteration below
		keys = append(keys, k)
	}
	sort.Strings(keys)
	counts := map[string]int{}
	var modes []string
	chaosShaped := false
	for _, k := range keys {
		if strings.HasPrefix(k, "detected_") || strings.HasPrefix(k, "rec_fq_dp_") {
			chaosShaped = true
		}
		if !strings.HasPrefix(k, "degraded_") {
			continue
		}
		mode, _, ok := strings.Cut(strings.TrimPrefix(k, "degraded_"), "_")
		if !ok || values[k] == 0 {
			continue
		}
		if counts[mode] == 0 {
			modes = append(modes, mode)
		}
		counts[mode] += int(values[k])
	}
	if len(modes) > 0 {
		parts := make([]string, len(modes))
		for i, m := range modes { //taichi:allow maporder — modes holds first-seen order over sorted keys
			parts[i] = fmt.Sprintf("%s×%d", m, counts[m])
		}
		return fmt.Sprintf("degraded-at-exit: %s — node-runs still below normal mode at the horizon",
			strings.Join(parts, ", "))
	}
	if chaosShaped {
		return "degraded-at-exit: none — every node-run ended the horizon in normal mode"
	}
	return ""
}
