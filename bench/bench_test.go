package main

import (
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/types"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/metrics"
)

func mustWorkload(t *testing.T, name string) workloadSpec {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func mustRunRep(t *testing.T, w workloadSpec, seeds []int64, traced bool) repResult {
	t.Helper()
	rr, err := runRep(w, seeds, traced)
	if err != nil {
		t.Fatal(err)
	}
	return rr
}

// TestMetricsMatchBenchmarkJSON checks that the record of a short run
// emits exactly the metrics BENCHMARK.json lists, with the same units,
// directions and bounds, that the listed workloads are the ones the
// benchmark runs, that -seconds defaults to run_seconds, and that the
// traced rep's time is fully attributed.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type listed struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		RunSeconds float64                 `json:"run_seconds"`
		Workloads  []struct{ Name string } `json:"workloads"`
		EndToEnd   []listed                `json:"end_to_end"`
		PerLayer   []listed                `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %g, -seconds default %d", spec.RunSeconds, runSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, listed []listed, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark defines %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			l := listed[i]
			if l.Name != d.name || l.Unit != d.unit || l.Better != d.better || l.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, l, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)

	w := mustWorkload(t, "lend-vmstart")
	rec := newRecord(w, 1)
	for _, traced := range []bool{false, true} {
		rec.add(mustRunRep(t, w, rec.SimSeeds[:1], traced), traced, nil)
	}
	emitted := rec.metrics()
	defined := map[string]bool{}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if defined[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		defined[d.name] = true
		if !name.MatchString(d.name) {
			t.Errorf("metric name %q is not a valid name", d.name)
		}
		if _, ok := emitted[d.name]; !ok {
			t.Errorf("metric %s is defined but not emitted", d.name)
		}
	}
	for _, n := range metrics.SortedKeys(emitted) {
		if !defined[n] {
			t.Errorf("metric %s is emitted but not defined", n)
		}
	}

	// Every rep timed its yardstick, so its timings scale to the reference
	// host.
	for _, s := range append(rec.Reps, *rec.Traced) {
		if s.SliceS <= 0 || s.Parallel != 1 || s.scale() <= 0 {
			t.Errorf("rep yardstick %g s on %d, scale %g; want a positive scale on 1", s.SliceS, s.Parallel, s.scale())
		}
	}
	if emitted["wall_s"] <= 0 || emitted["bench.host_speed"] <= 0 {
		t.Errorf("wall_s %g, bench.host_speed %g; want both positive", emitted["wall_s"], emitted["bench.host_speed"])
	}

	// The layers' wall fractions and the engine's self time account for
	// all of the traced rep's time inside Run.
	sum := emitted["sim.self_frac"]
	for _, l := range layers {
		sum += emitted[l+".wall_frac"]
	}
	if math.Abs(sum-1) > 1e-9 || emitted["sim.self_frac"] <= 0 || emitted["vcpu.wall_frac"] <= 0 {
		t.Errorf("wall fractions sum to %g (self %g, vcpu %g), want 1 with both positive",
			sum, emitted["sim.self_frac"], emitted["vcpu.wall_frac"])
	}
}

// TestEveryDispatchClassMapsToALayer runs one traced seed of every
// workload and requires each dispatch class it sees to map to a layer;
// a class no prefix covers must be mapped before the benchmark can
// attribute it.
func TestEveryDispatchClassMapsToALayer(t *testing.T) {
	if _, ok := layerOf("bogus.class"); ok {
		t.Fatal("an unknown class mapped to a layer")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			out, err := runSeed(w, w.simSeeds(1)[0], true)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.classes) == 0 {
				t.Error("traced run recorded no dispatch classes")
			}
			for _, c := range out.classes {
				if _, ok := layerOf(c.Name); !ok {
					t.Errorf("dispatch class %q maps to no layer", c.Name)
				}
			}
		})
	}
}

// TestTracedDigestMatchesUntraced checks that the profile changes no
// result, and that the digest of seed 1 still matches its pin.
func TestTracedDigestMatchesUntraced(t *testing.T) {
	w := mustWorkload(t, "lend-vmstart")
	seed := w.simSeeds(1)[0]
	plain, err := runSeed(w, seed, false)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := runSeed(w, seed, true)
	if err != nil {
		t.Fatal(err)
	}
	if plain.digest() != traced.digest() {
		t.Fatalf("traced digest %s, untraced %s", traced.digest(), plain.digest())
	}
	pins := map[string]string{}
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		t.Fatal(err)
	}
	if want, ok := pins[pinKey(w.name, seed)]; !ok || want != plain.digest() {
		t.Fatalf("digest %s, pin %q", plain.digest(), want)
	}
}

// TestFleetDigestIndependentOfWorkers runs a shortened fleet on one and
// two placement workers.
func TestFleetDigestIndependentOfWorkers(t *testing.T) {
	digest := func(workers int) string {
		w := workloadSpec{name: "fleet-short", seeds: 1, setup: fleetPlace(2, workers)}
		out, err := runSeed(w, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		return out.digest()
	}
	if one, two := digest(1), digest(2); one != two {
		t.Fatalf("workers=1 digest %s, workers=2 %s", one, two)
	}
}

// TestPanickingRunIsCounted checks that a panic in setup or in the run is
// recovered and counted as a failed run.
func TestPanickingRunIsCounted(t *testing.T) {
	for _, w := range []workloadSpec{
		{name: "setup-panics", seeds: 1, setup: func(*seedRun, int64) { panic("setup") }},
		{name: "run-panics", seeds: 1, setup: func(r *seedRun, seed int64) {
			r.newNode(seed)
			r.run = func() { panic("run") }
		}},
	} {
		rec := newRecord(w, 1)
		for _, traced := range []bool{false, false, true} {
			rec.add(mustRunRep(t, w, rec.SimSeeds, traced), traced, nil)
		}
		if rec.Attempted != 3 || rec.Failed != 3 {
			t.Errorf("%s: attempted %d failed %d, want 3 and 3", w.name, rec.Attempted, rec.Failed)
		}
		if got := rec.metrics()["failed_frac"]; got != 1 {
			t.Errorf("%s: failed_frac %g, want 1", w.name, got)
		}
		if len(rec.Errors) != 3 || !strings.Contains(rec.Errors[0], "panicked") {
			t.Errorf("%s: errors %q", w.name, rec.Errors)
		}
	}
}

// TestPinKeysNameWorkloads checks that every pin names a workload and a
// simulator seed.
func TestPinKeysNameWorkloads(t *testing.T) {
	pins := map[string]string{}
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		t.Fatal(err)
	}
	for _, k := range metrics.SortedKeys(pins) {
		name, seed, ok := strings.Cut(k, "/")
		if _, err := workloadByName(name); !ok || err != nil {
			t.Errorf("pin %q names no workload", k)
		}
		if _, err := strconv.ParseInt(seed, 10, 64); err != nil {
			t.Errorf("pin %q names no seed", k)
		}
		if len(pins[k]) != 64 {
			t.Errorf("pin %q is not a SHA-256", k)
		}
	}
}

// TestQuartilesMatchPython checks quartiles against the values Python's
// statistics.quantiles(values, n=4) gives.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, med, q3 := quartiles(c.in)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

// TestVerdict checks the compare verdicts on a lower-is-better metric
// with a 10% bound.
func TestVerdict(t *testing.T) {
	d := metricDef{name: "wall_s", better: "lower", bound: 0.1}
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{[]float64{1.01, 1.00, 1.02, 0.99, 1.00}, "within"},
		{[]float64{1.20, 1.21, 1.19, 1.20, 1.22}, "worse"},
		{[]float64{0.80, 0.81, 0.79, 0.80, 0.82}, "better"},
		{[]float64{0.60, 1.40, 1.00, 0.70, 1.30}, "unresolved"},
	} {
		if got := verdict(d, base, c.b); got != c.want {
			t.Errorf("verdict(%v) = %s, want %s", c.b, got, c.want)
		}
	}
}

// TestCompareFlagsMissingWorkloads checks that -compare fails when a
// workload is in one file only, in either direction, or when a digest
// differs, and passes two files that agree.
func TestCompareFlagsMissingWorkloads(t *testing.T) {
	rec := func(name, digest string) *record {
		return &record{Workload: name, Digests: map[string]string{name + "/1": digest}}
	}
	write := func(recs ...*record) string {
		path := filepath.Join(t.TempDir(), "run.json")
		data, err := json.Marshal(runFile{Schema: schema, Seed: 1, Workloads: recs})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	both := write(rec("a", "d"), rec("b", "d"))
	onlyA := write(rec("a", "d"))
	otherDigest := write(rec("a", "d"), rec("b", "e"))
	for _, c := range []struct {
		name   string
		a, b   string
		wantOK bool
	}{
		{"same", both, both, true},
		{"missing from b", both, onlyA, false},
		{"missing from a", onlyA, both, false},
		{"digest differs", both, otherDigest, false},
	} {
		ok, err := compareFiles(c.a, c.b, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ok != c.wantOK {
			t.Errorf("%s: compare ok %t, want %t", c.name, ok, c.wantOK)
		}
	}
}

// TestLintClean holds the benchmark to the simulator's determinism lint.
// The benchmark is a module of its own, which the simulator's lint test
// does not load, so this test type-checks the package against the
// simulator's packages and runs every rule over them together.
func TestLintClean(t *testing.T) {
	pkgs, err := lint.Load("..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	fset := pkgs[0].Fset
	// Share the simulator's package objects, standard library included,
	// so that types crossing the boundary are identical.
	known := map[string]*types.Package{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if known[p.Path()] == nil {
			known[p.Path()] = p
			for _, q := range p.Imports() {
				visit(q)
			}
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
	}
	dir, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	std := importer.ForCompiler(fset, "source", nil)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p := known[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	tpkg, err := conf.Check("repro/bench", fset, files, info)
	if err != nil {
		t.Fatal(err)
	}
	bench := &lint.Package{Path: tpkg.Path(), Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}
	for _, d := range lint.Run(append(pkgs, bench), lint.All()) {
		if strings.HasPrefix(d.Pos.Filename, dir+string(filepath.Separator)) {
			t.Errorf("determinism violation: %s", d)
		}
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
