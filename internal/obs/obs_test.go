package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

func ev(at sim.Time, kind trace.Kind, cpu int, arg int64, note string) trace.Event {
	return trace.Event{At: at, Kind: kind, CPU: cpu, Arg: arg, Note: note}
}

func findClass(d Derivation, class string) []Span {
	var out []Span
	for _, s := range d.Spans {
		if s.Class.String() == class {
			out = append(out, s)
		}
	}
	return out
}

func TestDeriveBasicPairs(t *testing.T) {
	events := []trace.Event{
		ev(100, trace.KindNonPreemptibleBegin, 2, 0, "flush"),
		ev(250, trace.KindNonPreemptibleEnd, 2, 0, ""),
		ev(300, trace.KindVMEntry, 1, 0, ""),
		ev(900, trace.KindVMExit, 1, 0, "hlt"),
		ev(400, trace.KindIPISend, -1, 42, ""),
		ev(700, trace.KindIPIDeliver, 3, 42, ""),
	}
	d := Derive(events)
	if len(d.Spans) != 3 {
		t.Fatalf("spans = %d, want 3", len(d.Spans))
	}
	np := findClass(d, "np")
	if len(np) != 1 || np[0].Start != 100 || np[0].End != 250 || np[0].Note != "flush" {
		t.Errorf("np span = %+v", np)
	}
	// The begin carried no note, so the close's note wins.
	vm := findClass(d, "vm")
	if len(vm) != 1 || vm[0].Note != "hlt" || vm[0].Duration() != 600 {
		t.Errorf("vm span = %+v", vm)
	}
	ipi := findClass(d, "ipi")
	if len(ipi) != 1 || ipi[0].Arg != 42 || ipi[0].Truncated {
		t.Errorf("ipi span = %+v", ipi)
	}
}

func TestDeriveTruncatedClipsToLastEvent(t *testing.T) {
	events := []trace.Event{
		ev(100, trace.KindNonPreemptibleBegin, 0, 0, "stuck"),
		ev(150, trace.KindVMEntry, 1, 0, ""),
		ev(500, trace.KindSchedSwitch, 1, 7, ""), // last event fixes the clip time
	}
	d := Derive(events)
	if len(d.Spans) != 2 {
		t.Fatalf("spans = %d, want 2 truncated", len(d.Spans))
	}
	for _, s := range d.Spans {
		if !s.Truncated {
			t.Errorf("span %+v not marked truncated", s)
		}
		if s.End != 500 {
			t.Errorf("span %+v not clipped to last event time 500", s)
		}
	}
	if len(d.Instants) != 1 || d.Instants[0].Name != "sched_switch" {
		t.Errorf("instants = %+v", d.Instants)
	}
}

func TestDeriveEmptyAndUnpairedEnd(t *testing.T) {
	if d := Derive(nil); len(d.Spans) != 0 || len(d.Instants) != 0 {
		t.Errorf("empty trace derived %+v", d)
	}
	// An end with no open begin (tracer cap dropped the begin) is ignored.
	d := Derive([]trace.Event{ev(100, trace.KindNonPreemptibleEnd, 0, 0, "")})
	if len(d.Spans) != 0 {
		t.Errorf("unpaired end produced spans: %+v", d.Spans)
	}
}

func TestDeriveLIFONesting(t *testing.T) {
	events := []trace.Event{
		ev(100, trace.KindNonPreemptibleBegin, 0, 0, "outer"),
		ev(200, trace.KindNonPreemptibleBegin, 0, 0, "inner"),
		ev(300, trace.KindNonPreemptibleEnd, 0, 0, ""),
		ev(400, trace.KindNonPreemptibleEnd, 0, 0, ""),
	}
	d := Derive(events)
	np := findClass(d, "np")
	if len(np) != 2 {
		t.Fatalf("np spans = %d, want 2", len(np))
	}
	// Canonical order sorts by start: outer (100-400) first, inner (200-300) second.
	if np[0].Note != "outer" || np[0].End != 400 || np[1].Note != "inner" || np[1].End != 300 {
		t.Errorf("LIFO pairing wrong: %+v", np)
	}
}

func TestDerivePreemptClosesLendAndReclaim(t *testing.T) {
	events := []trace.Event{
		ev(100, trace.KindYield, 3, 0, ""),
		ev(400, trace.KindProbeIRQ, 3, 0, ""),
		ev(600, trace.KindPreempt, 3, 0, ""),
	}
	d := Derive(events)
	lend := findClass(d, "lend")
	reclaim := findClass(d, "reclaim")
	if len(lend) != 1 || lend[0].Start != 100 || lend[0].End != 600 || lend[0].Truncated {
		t.Errorf("lend span = %+v", lend)
	}
	if len(reclaim) != 1 || reclaim[0].Start != 400 || reclaim[0].End != 600 || reclaim[0].Truncated {
		t.Errorf("reclaim span = %+v", reclaim)
	}
}

func TestDeriveRequestLifecycle(t *testing.T) {
	events := []trace.Event{
		ev(100, trace.KindRequestIssued, -1, 5, "vm5"),
		ev(110, trace.KindRequestAttempt, -1, 5, ""),
		ev(300, trace.KindRequestRetry, -1, 5, "nack"),
		ev(350, trace.KindRequestAttempt, -1, 5, ""),
		ev(900, trace.KindRequestCompleted, -1, 5, ""),
	}
	d := Derive(events)
	attempts := findClass(d, "attempt")
	if len(attempts) != 2 {
		t.Fatalf("attempt spans = %d, want 2", len(attempts))
	}
	if attempts[0].Start != 110 || attempts[0].End != 300 || attempts[0].Note != "nack" {
		t.Errorf("first attempt = %+v", attempts[0])
	}
	if attempts[1].Start != 350 || attempts[1].End != 900 {
		t.Errorf("second attempt = %+v", attempts[1])
	}
	req := findClass(d, "request")
	if len(req) != 1 || req[0].Start != 100 || req[0].End != 900 || req[0].Note != "vm5" {
		t.Errorf("request span = %+v", req)
	}
	// The retry detour also leaves an instant marker.
	found := false
	for _, in := range d.Instants {
		if in.Name == "req_retry" && in.Arg == 5 {
			found = true
		}
	}
	if !found {
		t.Errorf("no req_retry instant in %+v", d.Instants)
	}
}

func TestDeriveDeterministicIDs(t *testing.T) {
	events := []trace.Event{
		ev(100, trace.KindVMEntry, 0, 0, ""),
		ev(100, trace.KindVMEntry, 1, 0, ""),
		ev(200, trace.KindVMExit, 0, 0, "a"),
		ev(200, trace.KindVMExit, 1, 0, "b"),
	}
	a, b := Derive(events), Derive(events)
	if len(a.Spans) != len(b.Spans) {
		t.Fatalf("span counts differ: %d vs %d", len(a.Spans), len(b.Spans))
	}
	for i := range a.Spans {
		if a.Spans[i] != b.Spans[i] {
			t.Errorf("span %d differs: %+v vs %+v", i, a.Spans[i], b.Spans[i])
		}
		if a.Spans[i].ID != i {
			t.Errorf("span %d has ID %d, want position", i, a.Spans[i].ID)
		}
	}
}

func TestSummarize(t *testing.T) {
	d := Derive([]trace.Event{
		ev(100, trace.KindVMEntry, 0, 0, ""),
		ev(300, trace.KindVMExit, 0, 0, ""),
		ev(400, trace.KindVMEntry, 0, 0, ""),
		ev(450, trace.KindNonPreemptibleBegin, 1, 0, ""),
		ev(460, trace.KindYield, 2, 0, ""),
		ev(500, trace.KindSchedSwitch, 0, 0, ""),
	})
	sums := Summarize(d)
	if len(sums) != 3 {
		t.Fatalf("summaries = %+v, want lend + np + vm", sums)
	}
	// Name-sorted: lend before np before vm, although ClassVM < ClassLend.
	if sums[0].Class != trace.ClassLend || sums[0].Count != 1 || sums[0].Truncated != 1 || sums[0].Total != 40 {
		t.Errorf("lend summary = %+v", sums[0])
	}
	if sums[1].Class != trace.ClassNP || sums[1].Count != 1 || sums[1].Truncated != 1 {
		t.Errorf("np summary = %+v", sums[1])
	}
	if sums[2].Class != trace.ClassVM || sums[2].Count != 2 || sums[2].Truncated != 1 || sums[2].Total != 300 {
		t.Errorf("vm summary = %+v", sums[2])
	}
}

func TestChromeJSONDeterministicAndValid(t *testing.T) {
	events := []trace.Event{
		ev(1000, trace.KindVMEntry, 0, 0, ""),
		ev(2500, trace.KindVMExit, 0, 0, `reason "hlt"`), // quoting must survive
		ev(3000, trace.KindIPISend, -1, 9, ""),
	}
	nodes := []NodeTrace{{Label: "n0", Events: events}, {Label: "n1", Events: nil}}
	a, b := ChromeJSON(nodes), ChromeJSON(nodes)
	if !bytes.Equal(a, b) {
		t.Fatal("ChromeJSON not byte-identical across calls")
	}
	var doc struct {
		DisplayTimeUnit string                   `json:"displayTimeUnit"`
		TraceEvents     []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, a)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 2 metadata records per node + 1 span + 1 instant... the truncated
	// ipi send is a span too (clipped), so: 4 metadata + 2 spans.
	var spans, meta int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "X":
			spans++
		case "M":
			meta++
		}
	}
	if meta != 4 || spans != 2 {
		t.Errorf("meta=%d spans=%d, want 4 and 2", meta, spans)
	}
	if !bytes.Equal(ChromeJSONSingle("n0", events), ChromeJSON([]NodeTrace{{Label: "n0", Events: events}})) {
		t.Error("ChromeJSONSingle differs from one-node ChromeJSON")
	}
}

// TestChromeEmitAllocFree pins the exporter's per-line cost: once the
// writer exists, writing a span or an instant, escaped note included,
// allocates nothing.
func TestChromeEmitAllocFree(t *testing.T) {
	var events []trace.Event
	for i := 0; i < 2000; i++ {
		at := sim.Time(i) * 1500
		events = append(events,
			ev(at, trace.KindVMEntry, i%4, int64(i), `exit "hlt" <&>`),
			ev(at+700, trace.KindSchedSwitch, -1, int64(i), "switch\n"),
			ev(at+900, trace.KindVMExit, i%4, int64(i), ""))
	}
	d := Derive(events)
	cw := newChromeWriter(io.Discard)
	if n := testing.AllocsPerRun(5, func() {
		for i := range d.Spans {
			cw.span(0, &d.Spans[i])
		}
	}); n != 0 {
		t.Errorf("%v allocations writing %d spans, want 0", n, len(d.Spans))
	}
	if n := testing.AllocsPerRun(5, func() {
		for i := range d.Instants {
			cw.instant(0, &d.Instants[i])
		}
	}); n != 0 {
		t.Errorf("%v allocations writing %d instants, want 0", n, len(d.Instants))
	}
}

type failingWriter struct{ writes int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	return 0, errors.New("disk full")
}

// TestWriteChromeReportsWriteError requires WriteChrome to return the
// writer's error and to stop writing after it.
func TestWriteChromeReportsWriteError(t *testing.T) {
	var events []trace.Event
	for i := 0; i < 5000; i++ {
		events = append(events, ev(sim.Time(i), trace.KindSchedSwitch, 0, int64(i), "x"))
	}
	w := &failingWriter{}
	if err := WriteChrome(w, []NodeTrace{{Label: "n0", Events: events}}); err == nil || err.Error() != "disk full" {
		t.Errorf("WriteChrome error = %v, want disk full", err)
	}
	if w.writes != 1 {
		t.Errorf("%d writes, want 1: the writer must not be called again after an error", w.writes)
	}
}

func TestUsec(t *testing.T) {
	cases := map[int64]string{
		0:        "0.000",
		1:        "0.001",
		999:      "0.999",
		1000:     "1.000",
		1234567:  "1234.567",
		-1500:    "-1.500",
		10000000: "10000.000",
	}
	for ns, want := range cases {
		if got := string(appendUsec(nil, ns)); got != want {
			t.Errorf("appendUsec(%d) = %q, want %q", ns, got, want)
		}
	}
}

func TestSnapshotOrderIndependence(t *testing.T) {
	h := metrics.NewHistogram("lat")
	for i := 1; i <= 100; i++ {
		h.Record(sim.Duration(i) * sim.Microsecond)
	}
	build := func(reverse bool) *Snapshot {
		s := NewSnapshot()
		if reverse {
			s.AddHistogram("lat", h)
			s.AddGauge("util", 0.5)
			s.AddCounter("b_events", 2)
			s.AddCounter("a_events", 1)
		} else {
			s.AddCounter("a_events", 1)
			s.AddCounter("b_events", 2)
			s.AddGauge("util", 0.5)
			s.AddHistogram("lat", h)
		}
		return s
	}
	x, y := build(false), build(true)
	if !bytes.Equal(x.JSON(), y.JSON()) {
		t.Error("JSON depends on Add order")
	}
	if !bytes.Equal(x.Prometheus(), y.Prometheus()) {
		t.Error("Prometheus depends on Add order")
	}
	var round Snapshot
	if err := json.Unmarshal(x.JSON(), &round); err != nil {
		t.Fatalf("snapshot JSON invalid: %v", err)
	}
	if len(round.Counters) != 2 || round.Counters[0].Name != "a_events" {
		t.Errorf("roundtrip counters = %+v", round.Counters)
	}
	prom := string(x.Prometheus())
	for _, want := range []string{
		"# TYPE taichi_a_events counter",
		"taichi_util 0.5",
		"# TYPE taichi_lat_ns summary",
		`taichi_lat_ns{quantile="0.99"}`,
		"taichi_lat_ns_count 100",
	} {
		if !bytes.Contains([]byte(prom), []byte(want)) {
			t.Errorf("Prometheus output missing %q:\n%s", want, prom)
		}
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"engine_events":  "taichi_engine_events",
		"cp.turnaround":  "taichi_cp_turnaround",
		"vm-outcomes/ok": "taichi_vm_outcomes_ok",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
