// Package metrics provides the measurement substrate for every experiment:
// HDR-style log-linear latency histograms, streaming counters,
// time-weighted utilization gauges, CDF extraction, and plain-text
// table/figure rendering used by cmd/taichi-bench to regenerate the
// paper's tables and figures. The histogram resolution (~6% relative
// error) is chosen so the quantities the paper reports survive bucketing:
// the microsecond RTT quantiles of Table 5, the 1–67 ms routine census of
// Figure 5, and the utilization CDF of Figure 3. Histogram merges are
// associative, and renderers and merge paths traverse names in sorted
// order (SortedKeys), which is what lets internal/fleet combine per-node
// results deterministically regardless of worker count.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/sim"
)

// Histogram is a log-linear histogram of durations, in the style of HDR
// histograms: values are bucketed with bounded relative error (~1/32),
// giving accurate quantiles from nanoseconds to minutes in fixed memory.
//
// The zero value is not usable; call NewHistogram.
type Histogram struct {
	name    string
	counts  []uint64
	count   uint64
	sum     float64
	min     sim.Duration
	max     sim.Duration
	overflw uint64
}

const (
	subBucketBits  = 5 // 16 linear sub-buckets per octave => ~6% relative error
	subBucketCount = 1 << subBucketBits
	bucketCount    = 44
	totalBuckets   = bucketCount * subBucketCount // indices top out at 959 for int64 inputs
)

// NewHistogram returns an empty histogram with the given display name.
func NewHistogram(name string) *Histogram {
	return &Histogram{
		name:   name,
		counts: make([]uint64, totalBuckets),
		min:    math.MaxInt64,
	}
}

// Name returns the histogram's display name.
func (h *Histogram) Name() string { return h.name }

// bucketIndex maps a duration to a log-linear bucket: values below 32 ns
// get unit buckets; above that, each power-of-two octave is split into 16
// linear sub-buckets, so the mapping is monotone with ~6% relative error.
func bucketIndex(v sim.Duration) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < subBucketCount {
		return int(u)
	}
	octave := bits.Len64(u) - subBucketBits // >= 1 here
	sub := u >> uint(octave)                // in [16, 31]
	return octave*subBucketCount/2 + int(sub)
}

// bucketLow returns the smallest duration mapping to bucket i; used to
// report quantiles. The inverse of bucketIndex on bucket boundaries.
func bucketLow(i int) sim.Duration {
	if i < subBucketCount {
		return sim.Duration(i)
	}
	octave := i/(subBucketCount/2) - 1
	sub := i % (subBucketCount / 2)
	base := uint64(subBucketCount/2+sub) << uint(octave)
	return sim.Duration(base)
}

// Record adds one observation.
func (h *Histogram) Record(v sim.Duration) {
	if v < 0 {
		v = 0
	}
	idx := bucketIndex(v)
	if idx >= len(h.counts) {
		h.overflw++
		idx = len(h.counts) - 1
	}
	h.counts[idx]++
	h.count++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the exact sum of recorded values in nanoseconds — the
// `_sum` series of the Prometheus summary exposition (internal/obs).
func (h *Histogram) Sum() float64 { return h.sum }

// Min returns the smallest recorded value, or 0 if empty.
func (h *Histogram) Min() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value, or 0 if empty.
func (h *Histogram) Max() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Mean returns the arithmetic mean of recorded values, or 0 if empty.
func (h *Histogram) Mean() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return sim.Duration(h.sum / float64(h.count))
}

// Stddev returns the approximate standard deviation computed from bucket
// midpoints.
func (h *Histogram) Stddev() sim.Duration {
	if h.count < 2 {
		return 0
	}
	mean := h.sum / float64(h.count)
	var acc float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		mid := float64(bucketLow(i))
		d := mid - mean
		acc += float64(c) * d * d
	}
	return sim.Duration(math.Sqrt(acc / float64(h.count)))
}

// MeanDeviation returns the mean absolute deviation (ping's "mdev")
// computed from bucket midpoints.
func (h *Histogram) MeanDeviation() sim.Duration {
	if h.count == 0 {
		return 0
	}
	mean := h.sum / float64(h.count)
	var acc float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		acc += float64(c) * math.Abs(float64(bucketLow(i))-mean)
	}
	return sim.Duration(acc / float64(h.count))
}

// Quantile returns the value at quantile q in [0,1]. Exact recorded min
// and max are returned at the extremes; interior quantiles have the
// histogram's ~3% relative error.
func (h *Histogram) Quantile(q float64) sim.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			v := bucketLow(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge adds all observations of o into h. Merge is associative and
// commutative up to bucket resolution.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	if o.count > 0 {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	h.overflw += o.overflw
}

// Reset clears all observations.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.count = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = 0
	h.overflw = 0
}

// Summary is a compact snapshot of a histogram for reporting.
type Summary struct {
	Name  string
	Count uint64
	Min   sim.Duration
	Mean  sim.Duration
	P50   sim.Duration
	P90   sim.Duration
	P99   sim.Duration
	P999  sim.Duration
	Max   sim.Duration
	Mdev  sim.Duration
}

// Summarize extracts the standard latency summary.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Name:  h.name,
		Count: h.count,
		Min:   h.Min(),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
		Mdev:  h.MeanDeviation(),
	}
}

// String renders the summary on one line.
func (s Summary) String() string {
	return fmt.Sprintf("%s: n=%d min=%v mean=%v p50=%v p99=%v p999=%v max=%v",
		s.Name, s.Count, s.Min, s.Mean, s.P50, s.P99, s.P999, s.Max)
}

// CDFPoint is one (value, cumulative fraction) pair of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64
}

// CDF extracts an empirical CDF with up to maxPoints points from the
// histogram, with values converted by conv (e.g. Duration→percent).
func (h *Histogram) CDF(maxPoints int) []CDFPoint {
	if h.count == 0 {
		return nil
	}
	var pts []CDFPoint
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		pts = append(pts, CDFPoint{
			Value:    float64(bucketLow(i)),
			Fraction: float64(cum) / float64(h.count),
		})
	}
	if maxPoints > 0 && len(pts) > maxPoints {
		stride := float64(len(pts)) / float64(maxPoints)
		out := make([]CDFPoint, 0, maxPoints)
		for i := 0; i < maxPoints; i++ {
			out = append(out, pts[int(float64(i)*stride)])
		}
		out[len(out)-1] = pts[len(pts)-1]
		pts = out
	}
	return pts
}

// FractionBelow returns the fraction of observations strictly below v.
func (h *Histogram) FractionBelow(v sim.Duration) float64 {
	if h.count == 0 {
		return 0
	}
	idx := bucketIndex(v)
	var cum uint64
	for i := 0; i < idx && i < len(h.counts); i++ {
		cum += h.counts[i]
	}
	return float64(cum) / float64(h.count)
}

// Buckets returns the non-empty (lowBound, count) pairs, for histogram
// figures such as Figure 5.
func (h *Histogram) Buckets() []BucketCount {
	var out []BucketCount
	for i, c := range h.counts {
		if c != 0 {
			out = append(out, BucketCount{Low: bucketLow(i), Count: c})
		}
	}
	return out
}

// BucketCount is one non-empty histogram bucket.
type BucketCount struct {
	Low   sim.Duration
	Count uint64
}

// CountBetween returns the number of observations v with lo <= v < hi,
// up to bucket resolution.
func (h *Histogram) CountBetween(lo, hi sim.Duration) uint64 {
	iLo, iHi := bucketIndex(lo), bucketIndex(hi)
	var cum uint64
	for i := iLo; i < iHi && i < len(h.counts); i++ {
		cum += h.counts[i]
	}
	return cum
}

// SortedKeys returns map keys in sorted order. Renderers and merge paths
// use it so that every map traversal in reported output is deterministic —
// a prerequisite for the byte-identical parallel/sequential guarantee of
// internal/fleet.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
