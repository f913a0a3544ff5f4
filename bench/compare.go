package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/metrics"
)

func readRunFile(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f := &runFile{}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, schema)
	}
	return f, nil
}

// findRecord returns the file's record of the named workload, or nil.
func findRecord(f *runFile, workload string) *record {
	for _, r := range f.Workloads {
		if r.Workload == workload {
			return r
		}
	}
	return nil
}

// compareFiles prints, for every workload in both -out files, each
// end-to-end metric's medians and quartiles, its bound and a verdict, and
// every exact metric or digest that differs. It reports false when a
// workload is in one file only, an exact metric or a digest differs, or
// the failure rate rose.
func compareFiles(pathA, pathB string, w io.Writer) (bool, error) {
	a, err := readRunFile(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRunFile(pathB)
	if err != nil {
		return false, err
	}
	if a.Seed != b.Seed {
		return false, fmt.Errorf("seed %d vs %d: runs are comparable only on the same seed", a.Seed, b.Seed)
	}
	ok := true
	for _, rb := range b.Workloads {
		if findRecord(a, rb.Workload) == nil {
			ok = false
			fmt.Fprintf(w, "%-16s only in %s\n", rb.Workload, pathB)
		}
	}
	for _, ra := range a.Workloads {
		rb := findRecord(b, ra.Workload)
		if rb == nil {
			ok = false
			fmt.Fprintf(w, "%-16s only in %s\n", ra.Workload, pathA)
			continue
		}
		sa, sb := ra.endToEndSamples(), rb.endToEndSamples()
		for _, d := range endToEnd {
			qa1, ma, qa3 := quartiles(sa[d.name])
			qb1, mb, qb3 := quartiles(sb[d.name])
			change := 0.0
			if ma != 0 {
				change = 100 * (mb - ma) / ma
			}
			fmt.Fprintf(w, "%-16s %-12s %10.4g [%.4g %.4g]  %10.4g [%.4g %.4g]  bound %2.0f%%  %+6.1f%%  %s\n",
				ra.Workload, d.name, ma, qa1, qa3, mb, qb1, qb3, 100*d.bound, change, verdict(d, sa[d.name], sb[d.name]))
		}
		va, vb := ra.metrics(), rb.metrics()
		for _, d := range perLayer {
			if d.exact && va[d.name] != vb[d.name] {
				ok = false
				fmt.Fprintf(w, "%-16s %-28s %g -> %g  EXACT METRIC DIFFERS\n", ra.Workload, d.name, va[d.name], vb[d.name])
			}
		}
		if vb["failed_frac"] > va["failed_frac"] {
			ok = false
			fmt.Fprintf(w, "%-16s failed_frac %g -> %g  MORE RUNS FAILED\n", ra.Workload, va["failed_frac"], vb["failed_frac"])
		}
		for _, k := range metrics.SortedKeys(ra.Digests) {
			if db, found := rb.Digests[k]; found && db != ra.Digests[k] {
				ok = false
				fmt.Fprintf(w, "%-16s digest %s differs\n", ra.Workload, k)
			}
		}
	}
	return ok, nil
}

// verdict judges b against baseline a. A metric is unresolved when either
// side's quartile spread exceeds the bound, worse or better when b's
// median is worse or better by more than the bound, and within otherwise.
func verdict(d metricDef, a, b []float64) string {
	qa1, ma, qa3 := quartiles(a)
	qb1, mb, qb3 := quartiles(b)
	worse := mb - ma
	if d.better == "higher" {
		worse = -worse
	}
	switch {
	case qa3-qa1 > d.bound*ma || qb3-qb1 > d.bound*mb:
		return "unresolved"
	case worse > d.bound*ma:
		return "worse"
	case -worse > d.bound*ma:
		return "better"
	}
	return "within"
}
