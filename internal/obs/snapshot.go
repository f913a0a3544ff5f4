package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// CounterSnap is one exported counter value.
type CounterSnap struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// HistogramSnap is one exported histogram: the standard latency summary
// with all durations in integer nanoseconds (no float quantiles — the
// underlying histogram already quantizes, and integers keep the JSON
// byte-stable).
type HistogramSnap struct {
	Name   string  `json:"name"`
	Count  uint64  `json:"count"`
	SumNs  float64 `json:"sum_ns"`
	MinNs  int64   `json:"min_ns"`
	MeanNs int64   `json:"mean_ns"`
	P50Ns  int64   `json:"p50_ns"`
	P90Ns  int64   `json:"p90_ns"`
	P99Ns  int64   `json:"p99_ns"`
	P999Ns int64   `json:"p999_ns"`
	MaxNs  int64   `json:"max_ns"`
}

// GaugeSnap is one exported float gauge (fleet scalars, utilization
// fractions).
type GaugeSnap struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Snapshot is a point-in-time export of metric state, assembled from
// counter groups, histograms, and loose scalars, then rendered as JSON
// or Prometheus text. Callers Add* in any order; rendering sorts by
// name, so assembly order never leaks into the bytes.
type Snapshot struct {
	Counters   []CounterSnap   `json:"counters"`
	Gauges     []GaugeSnap     `json:"gauges"`
	Histograms []HistogramSnap `json:"histograms"`
}

// NewSnapshot returns an empty snapshot.
func NewSnapshot() *Snapshot {
	return &Snapshot{Counters: []CounterSnap{}, Gauges: []GaugeSnap{}, Histograms: []HistogramSnap{}}
}

// AddCounter records one scalar. Prefixing is the caller's concern.
func (s *Snapshot) AddCounter(name string, v uint64) {
	s.Counters = append(s.Counters, CounterSnap{Name: name, Value: v})
}

// AddGauge records one float gauge.
func (s *Snapshot) AddGauge(name string, v float64) {
	s.Gauges = append(s.Gauges, GaugeSnap{Name: name, Value: v})
}

// AddHistogram records one histogram under the given name.
func (s *Snapshot) AddHistogram(name string, h *metrics.Histogram) {
	sum := h.Summarize()
	s.Histograms = append(s.Histograms, HistogramSnap{
		Name:  name,
		Count: sum.Count,
		SumNs: h.Sum(),
		MinNs: int64(sum.Min), MeanNs: int64(sum.Mean),
		P50Ns: int64(sum.P50), P90Ns: int64(sum.P90),
		P99Ns: int64(sum.P99), P999Ns: int64(sum.P999),
		MaxNs: int64(sum.Max),
	})
}

// AddGroup folds a counter group in under its group name (or the given
// prefix when non-empty).
func (s *Snapshot) AddGroup(prefix string, g *metrics.Group) {
	base := prefix
	if base == "" {
		base = g.Name()
	}
	for _, c := range g.Counters() {
		s.AddCounter(join(base, c.Name()), c.Value())
	}
}

func join(prefix, name string) string {
	if prefix == "" {
		return name
	}
	return prefix + "_" + name
}

// sorted returns name-ordered copies of the counter, gauge, and
// histogram lists; duplicates keep insertion order (stable sort).
func (s *Snapshot) sorted() ([]CounterSnap, []GaugeSnap, []HistogramSnap) {
	cs := append([]CounterSnap{}, s.Counters...)
	gs := append([]GaugeSnap{}, s.Gauges...)
	hs := append([]HistogramSnap{}, s.Histograms...)
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].Name < cs[j].Name })
	sort.SliceStable(gs, func(i, j int) bool { return gs[i].Name < gs[j].Name })
	sort.SliceStable(hs, func(i, j int) bool { return hs[i].Name < hs[j].Name })
	return cs, gs, hs
}

// JSON renders the snapshot as indented JSON with name-sorted entries.
func (s *Snapshot) JSON() []byte {
	cs, gs, hs := s.sorted()
	out, err := json.MarshalIndent(Snapshot{Counters: cs, Gauges: gs, Histograms: hs}, "", "  ")
	if err != nil {
		// Unreachable: the snapshot is plain data.
		panic("obs: snapshot marshal: " + err.Error())
	}
	return append(out, '\n')
}

// Prometheus renders the snapshot in the Prometheus text exposition
// format: counters as `counter` families, histograms as `summary`
// families with quantile labels, `_sum` in nanoseconds, and `_count`.
// Metric names are sanitized and prefixed `taichi_`.
func (s *Snapshot) Prometheus() []byte {
	var b bytes.Buffer
	cs, gs, hs := s.sorted()
	for _, c := range cs {
		name := promName(c.Name)
		fmt.Fprintf(&b, "# TYPE %s counter\n", name)
		fmt.Fprintf(&b, "%s %d\n", name, c.Value)
	}
	for _, g := range gs {
		name := promName(g.Name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n", name)
		fmt.Fprintf(&b, "%s %s\n", name, formatFloat(g.Value))
	}
	for _, h := range hs {
		name := promName(h.Name) + "_ns"
		fmt.Fprintf(&b, "# TYPE %s summary\n", name)
		fmt.Fprintf(&b, "%s{quantile=\"0.5\"} %d\n", name, h.P50Ns)
		fmt.Fprintf(&b, "%s{quantile=\"0.9\"} %d\n", name, h.P90Ns)
		fmt.Fprintf(&b, "%s{quantile=\"0.99\"} %d\n", name, h.P99Ns)
		fmt.Fprintf(&b, "%s{quantile=\"0.999\"} %d\n", name, h.P999Ns)
		fmt.Fprintf(&b, "%s_sum %s\n", name, formatFloat(h.SumNs))
		fmt.Fprintf(&b, "%s_count %d\n", name, h.Count)
	}
	return b.Bytes()
}

// promName sanitizes a metric name into [a-zA-Z0-9_] and prefixes the
// repo-wide `taichi_` namespace.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("taichi_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// formatFloat renders a float64 with the shortest round-trip form —
// Go's strconv formatting is platform-independent, so sums export
// byte-identically everywhere.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
