package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/audit"
	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trace"
)

// epoch anchors clock.
var epoch = time.Now() //taichi:allow walltime — the benchmark measures host time by definition; no simulated state reads it

// clock returns monotonic host nanoseconds. Every host-time reading in the
// benchmark goes through it, and it is the Clock injected into
// sim.Profile for per-class attribution.
func clock() int64 {
	return int64(time.Since(epoch)) //taichi:allow walltime — host time is what the benchmark measures; simulated state never sees it
}

// Setup buckets: which layer's constructors and Start calls the host time
// went to.
const (
	setupPlatform = iota
	setupCluster
	setupWorkload
	setupPlacement
	numSetup
)

// node is one simulated SmartNIC of a seed run.
type node struct {
	tc  *core.TaiChi
	mgr *cluster.Manager
	inj *faults.Injector // nil when the workload injects no faults
	// runNs is host time spent inside the engine's Run.
	runNs int64
}

func (n *node) runUntil(t sim.Time) {
	start := clock()
	n.tc.Run(t)
	n.runNs += clock() - start
}

// timedMember times one fleet member's barrier calls. Members advance in
// parallel, so each keeps its own spans; placement.Engine.Run joins its
// workers before the spans are read.
type timedMember struct {
	*placement.ClusterNode
	n        *node
	advance  []span
	sampleNs int64
}

type span struct{ start, end int64 }

func (m *timedMember) Advance(until sim.Time) {
	start := clock()
	m.ClusterNode.Advance(until)
	end := clock()
	m.n.runNs += end - start
	m.advance = append(m.advance, span{start, end})
}

func (m *timedMember) Sample() placement.Signals {
	start := clock()
	s := m.ClusterNode.Sample()
	m.sampleNs += clock() - start
	return s
}

// seedRun is one simulator seed's pass through a workload: what the
// workload's setup built and how to drive it.
type seedRun struct {
	traced  bool
	nodes   []*node
	members []*timedMember
	placer  *placement.Engine
	workers int
	run     func()
	setupNs [numSetup]int64
}

// timed runs one setup step and charges its host time to a layer.
func (r *seedRun) timed(bucket int, fn func()) {
	start := clock()
	fn()
	r.setupNs[bucket] += clock() - start
}

// newNode builds a default Tai Chi node. In the traced rep its engine
// gets a profile whose clock attributes host time to event classes.
func (r *seedRun) newNode(seed int64) *node {
	n := &node{}
	r.timed(setupPlatform, func() {
		n.tc = core.NewDefault(seed)
		if r.traced {
			p := sim.NewProfile()
			p.Clock = clock
			n.tc.Engine().EnableProfile(p)
		}
	})
	r.nodes = append(r.nodes, n)
	return n
}

// member wraps a node and its manager as a timed placement member.
func (r *seedRun) member(n *node) placement.Member {
	m := &timedMember{ClusterNode: placement.NewClusterNode(n.tc, n.mgr), n: n}
	r.members = append(r.members, m)
	return m
}

// result is everything a seed run must reproduce exactly. Its SHA-256 is
// the pinned digest. Engine event counts are left out on purpose, so a
// change that saves events without changing results still passes.
type result struct {
	Startup                                                     histSummary
	Issued, Completed, DeadLettered, Shed, Retried, Resurrected uint64
	ClusterDead                                                 int
	Yields, Preempts, OverloadEnters                            uint64
	PreemptLatency                                              histSummary
	Faults                                                      []uint64
	FaultsDetected, FaultsRecovered                             uint64
	Placement                                                   *placement.Stats `json:",omitempty"`
	Audits                                                      []auditTotals
	ChromeSHA256                                                []string `json:",omitempty"`
}

type histSummary struct {
	Count         uint64
	P50, P99, Max sim.Duration
}

func summarize(h *metrics.Histogram) histSummary {
	return histSummary{h.Count(), h.Quantile(0.5), h.Quantile(0.99), h.Max()}
}

type auditTotals struct {
	Events     int
	Requests   audit.RequestTotals
	Violations int
}

// seedOut is one seed run's outcome: its exact results and what it cost.
type seedOut struct {
	res                  result
	startup, preempt     *metrics.Histogram
	events               uint64
	allocs, bytes        uint64
	setupNs              [numSetup]int64
	wallNs, runNs        int64
	auditNs, deriveNs    int64
	chromeNs             int64
	traceEvents, spans   int
	chromeBytes          int
	violations           int
	classes              []sim.DispatchClass // one row per class per node
	heapHWM              int
	advanceNs, sampleNs  int64
	scanSpanNs, placerNs int64
	workers              int
}

// runSeed runs one simulator seed through the workload. wall covers
// setup, simulation and collecting results, plus the trace readers for
// workloads that read their trace; the audit of the others runs after the
// wall stamp.
func runSeed(w workloadSpec, seed int64, traced bool) (out seedOut, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s seed %d panicked: %v", w.name, seed, p)
		}
	}()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	r := &seedRun{traced: traced}
	t0 := clock()
	w.setup(r, seed)
	runStart := clock()
	r.run()
	runEnd := clock()
	runtime.ReadMemStats(&ms1)
	out.collect(r)
	if w.readsTrace {
		out.readTraces(r, true)
	}
	out.wallNs = clock() - t0
	if !w.readsTrace {
		out.readTraces(r, false)
	}
	out.allocs = ms1.Mallocs - ms0.Mallocs
	out.bytes = ms1.TotalAlloc - ms0.TotalAlloc
	out.setupNs = r.setupNs
	if r.placer != nil {
		out.placerNs = runEnd - runStart
		out.workers = r.workers
		out.timeMembers(r.members)
	}
	return out, nil
}

// collect reads the exact results and the event counts off every node.
func (o *seedOut) collect(r *seedRun) {
	o.startup = metrics.NewHistogram("vm.startup")
	o.preempt = metrics.NewHistogram("preempt")
	res := &o.res
	for _, n := range r.nodes {
		o.events += n.tc.Engine().Fired()
		o.runNs += n.runNs
		if p := n.tc.Engine().Profile(); p != nil {
			o.classes = append(o.classes, p.Dispatch()...)
			o.heapHWM = max(o.heapHWM, p.HeapHighWater())
		}
		s := n.tc.Sched
		res.Yields += s.Yields.Value()
		res.Preempts += s.Preempts.Value()
		res.OverloadEnters += s.OverloadEnters.Value()
		res.FaultsDetected += s.FaultsDetected.Value()
		res.FaultsRecovered += s.FaultsRecovered.Value()
		o.preempt.Merge(s.PreemptLatency)
		if m := n.mgr; m != nil {
			res.Issued += m.Issued
			res.Completed += m.Completed
			res.DeadLettered += m.DeadLettered()
			res.Shed += m.Shed()
			res.Retried += m.Retried()
			res.Resurrected += m.Resurrected()
			o.startup.Merge(m.StartupTime)
		}
		if n.inj != nil {
			for _, c := range n.inj.Counts.Counters() {
				res.Faults = append(res.Faults, c.Value())
			}
		}
	}
	res.Startup = summarize(o.startup)
	res.PreemptLatency = summarize(o.preempt)
	if r.placer != nil {
		st := r.placer.Stats()
		res.Placement = &st
		res.ClusterDead = len(r.placer.ClusterDead())
	}
}

// readTraces audits every trace the seed run wrote; with export it also
// derives spans and renders the Chrome JSON, whose hash joins the results.
func (o *seedOut) readTraces(r *seedRun, export bool) {
	read := func(label string, tr *trace.Tracer, bc *controlplane.BreakerCounters) {
		events := tr.Events()
		o.traceEvents += len(events)
		start := clock()
		rep := audit.Run(events, audit.Options{Breaker: bc, DroppedEvents: tr.Dropped()})
		o.auditNs += clock() - start
		o.violations += len(rep.Violations)
		o.res.Audits = append(o.res.Audits, auditTotals{rep.Events, rep.Requests, len(rep.Violations)})
		if !export {
			return
		}
		start = clock()
		o.spans += len(obs.Derive(events).Spans)
		o.deriveNs += clock() - start
		start = clock()
		js := obs.ChromeJSONSingle(label, events)
		o.chromeNs += clock() - start
		o.chromeBytes += len(js)
		sum := sha256.Sum256(js)
		o.res.ChromeSHA256 = append(o.res.ChromeSHA256, hex.EncodeToString(sum[:]))
	}
	for i, n := range r.nodes {
		var bc *controlplane.BreakerCounters
		if n.tc.Breaker != nil {
			c := n.tc.Breaker.Counters()
			bc = &c
		}
		read(fmt.Sprintf("node%d", i), n.tc.Node.Tracer, bc)
	}
	if r.placer != nil {
		read("placer", r.placer.Tracer(), nil)
	}
}

// timeMembers folds the member wrappers' spans: total advance time, and
// per scan the span from the first member starting to the last finishing.
func (o *seedOut) timeMembers(ms []*timedMember) {
	for _, m := range ms {
		o.sampleNs += m.sampleNs
		for _, s := range m.advance {
			o.advanceNs += s.end - s.start
		}
	}
	for scan := range ms[0].advance {
		first, last := ms[0].advance[scan].start, ms[0].advance[scan].end
		for _, m := range ms[1:] {
			first = min(first, m.advance[scan].start)
			last = max(last, m.advance[scan].end)
		}
		o.scanSpanNs += last - first
	}
}

// digest is the SHA-256 of the seed run's exact results.
func (o *seedOut) digest() string {
	data, err := json.Marshal(o.res)
	if err != nil {
		panic(err) // result holds only plain values
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// sample is one rep's host-side costs, summed over its seeds, in host
// seconds.
type sample struct {
	WallS  float64 `json:"wall_s"`
	SetupS float64 `json:"setup_s"`
	// SliceS is the median time of the rep's yardstick slices, each run
	// Parallel copies at once.
	SliceS   float64 `json:"slice_s"`
	Parallel int     `json:"parallel"`
	// SetupLayerS splits SetupS by layer: platform, cluster, workload,
	// placement.
	SetupLayerS [numSetup]float64 `json:"setup_layer_s"`
	RunS        float64           `json:"run_s"`
	Events      uint64            `json:"events"`
	Allocs      uint64            `json:"allocs"`
	Bytes       uint64            `json:"bytes"`
	GCCycles    uint64            `json:"gc_cycles"`
	GCPauseS    float64           `json:"gc_pause_s"`
	GCCPUFrac   float64           `json:"gc_cpu_frac"`
	CPUS        float64           `json:"cpu_s"`
	AuditS      float64           `json:"audit_s"`
	DeriveS     float64           `json:"derive_s"`
	ChromeS     float64           `json:"chrome_s"`
	AdvanceS    float64           `json:"advance_s"`
	SampleS     float64           `json:"sample_s"`
	ScanSpanS   float64           `json:"scan_span_s"`
	PlacerS     float64           `json:"placer_s"`
	Workers     int               `json:"workers"`
	// Classes and HeapHWM are filled only by the traced rep.
	Classes []classSample `json:"classes,omitempty"`
	HeapHWM int           `json:"heap_hwm,omitempty"`
	// PeakRSSMB is the mean over the rep's seed runs of each one's peak
	// resident set. A seed run's peak depends on where the collector's
	// cycles fall: the same seed's peak moves between two levels about 30%
	// apart from run to run, so a median flips between them and a mean does
	// not.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// scale turns the rep's host seconds into reference-host seconds.
func (smp *sample) scale() float64 { return yardstickScale(smp.SliceS, smp.Parallel) }

type classSample struct {
	Name       string  `json:"name"`
	Dispatches uint64  `json:"dispatches"`
	WallS      float64 `json:"wall_s"`
}

// totals are the rep's exact results pooled over its seeds.
type totals struct {
	StartupP50Ms    float64 `json:"startup_p50_ms"`
	StartupP99Ms    float64 `json:"startup_p99_ms"`
	VMFailedFrac    float64 `json:"vm_failed_frac"`
	Issued          uint64  `json:"issued"`
	Completed       uint64  `json:"completed"`
	DeadLettered    uint64  `json:"dead_lettered"`
	Shed            uint64  `json:"shed"`
	Retried         uint64  `json:"retried"`
	Preempts        uint64  `json:"preempts"`
	Yields          uint64  `json:"yields"`
	PreemptP99Us    float64 `json:"preempt_p99_us"`
	OverloadEnters  uint64  `json:"overload_enters"`
	FaultsInjected  uint64  `json:"faults_injected"`
	FaultsDetected  uint64  `json:"faults_detected"`
	FaultsRecovered uint64  `json:"faults_recovered"`
	Scans           int     `json:"scans"`
	Migrations      int     `json:"migrations"`
	TraceEvents     int     `json:"trace_events"`
	AuditViolations int     `json:"audit_violations"`
	Spans           int     `json:"spans"`
	ChromeBytes     int     `json:"chrome_bytes"`
}

// repResult is what one rep reports: its costs, its exact results pooled
// over the seeds, and each seed's digest.
type repResult struct {
	Sample    sample            `json:"sample"`
	Totals    totals            `json:"totals"`
	Digests   map[string]string `json:"digests"` // keyed by pinKey
	Attempted int               `json:"attempted"`
	Errors    []string          `json:"errors,omitempty"`
}

// pinKey names one (workload, simulator seed) pair in the pin file.
func pinKey(workload string, simSeed int64) string {
	return workload + "/" + strconv.FormatInt(simSeed, 10)
}

// runRep runs every seed once and sums their costs. A seed run that
// panics or whose audit reports a violation is an error and adds nothing
// to the sums. The returned error is one of reading the process's memory
// figures.
func runRep(w workloadSpec, seeds []int64, traced bool) (repResult, error) {
	rr := repResult{Digests: map[string]string{}}
	smp, tot := &rr.Sample, &rr.Totals
	startup := metrics.NewHistogram("vm.startup")
	preempt := metrics.NewHistogram("preempt")
	classes := map[string]sim.DispatchClass{}
	var vmFailed uint64

	var ms0, ms1 runtime.MemStats
	var cpu cpuTimes
	var peaks, slices []float64
	parallel := 1
	for i, s := range seeds {
		rr.Attempted++
		// Each seed run starts from a collected heap whose free pages went
		// back to the OS, with the peak resident set reset: garbage the
		// previous run left is not collected on its time, and its peak
		// memory is its own. The forced collection stays out of the
		// runtime figures.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return rr, err
		}
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuSeconds()
		out, err := runSeed(w, s, traced)
		runtime.ReadMemStats(&ms1)
		cpu1 := cpuSeconds()
		peak, rssErr := peakRSSMB()
		if rssErr != nil {
			return rr, rssErr
		}
		// The rep's yardstick slices are spread over the gaps between its
		// seed runs, so they see the host as the seed runs did.
		parallel = max(parallel, out.workers)
		for range (i+1)*repSlices/len(seeds) - i*repSlices/len(seeds) {
			slices = append(slices, timeSlice(parallel))
		}
		if err == nil && out.violations > 0 {
			err = fmt.Errorf("%s seed %d: %d audit violation(s)", w.name, s, out.violations)
		}
		if err != nil {
			rr.Errors = append(rr.Errors, err.Error())
			continue
		}
		peaks = append(peaks, peak)
		smp.GCCycles += uint64(ms1.NumGC - ms0.NumGC)
		smp.GCPauseS += float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
		cpu.rusage += cpu1.rusage - cpu0.rusage
		cpu.total += cpu1.total - cpu0.total
		cpu.gc += cpu1.gc - cpu0.gc
		rr.Digests[pinKey(w.name, s)] = out.digest()
		smp.add(&out)
		startup.Merge(out.startup)
		preempt.Merge(out.preempt)
		for _, c := range out.classes {
			agg := classes[c.Name]
			agg.Count += c.Count
			agg.WallNs += c.WallNs
			classes[c.Name] = agg
		}
		smp.HeapHWM = max(smp.HeapHWM, out.heapHWM)
		tot.add(&out.res)
		vmFailed += out.res.DeadLettered + out.res.Shed + uint64(out.res.ClusterDead)
		tot.TraceEvents += out.traceEvents
		tot.AuditViolations += out.violations
		tot.Spans += out.spans
		tot.ChromeBytes += out.chromeBytes
	}
	smp.CPUS = cpu.rusage
	if cpu.total > 0 {
		smp.GCCPUFrac = cpu.gc / cpu.total
	}
	for _, p := range peaks {
		smp.PeakRSSMB += p / float64(len(peaks))
	}
	_, smp.SliceS, _ = quartiles(slices)
	smp.Parallel = parallel
	for _, name := range metrics.SortedKeys(classes) {
		c := classes[name]
		smp.Classes = append(smp.Classes, classSample{name, c.Count, float64(c.WallNs) / 1e9})
	}
	tot.StartupP50Ms = ms(startup.Quantile(0.5))
	tot.StartupP99Ms = ms(startup.Quantile(0.99))
	tot.PreemptP99Us = float64(preempt.Quantile(0.99)) / 1e3
	if tot.Issued > 0 {
		tot.VMFailedFrac = float64(vmFailed) / float64(tot.Issued)
	}
	return rr, nil
}

// resetPeakRSS sets this process's peak resident set (VmHWM) back to its
// current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// peakRSSMB reads this process's peak resident set (VmHWM) since the last
// reset.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// record is everything measured of one workload on one seed set.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	SimSeeds  []int64           `json:"sim_seeds"`
	Reps      []sample          `json:"reps"`
	Traced    *sample           `json:"traced,omitempty"` // nil without -trace 1
	Totals    totals            `json:"totals"`
	Digests   map[string]string `json:"digests"` // keyed by pinKey
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
}

func newRecord(w workloadSpec, seed int64) *record {
	return &record{Workload: w.name, Seed: seed, SimSeeds: w.simSeeds(seed), Digests: map[string]string{}}
}

// add folds one rep into the record. A seed run fails if the rep reported
// it as an error, or if its digest differs from its pin or, for an
// unpinned seed, from its first run.
func (rec *record) add(rr repResult, traced bool, pins map[string]string) {
	rec.Attempted += rr.Attempted
	rec.Failed += len(rr.Errors)
	rec.Errors = append(rec.Errors, rr.Errors...)
	for _, k := range metrics.SortedKeys(rr.Digests) {
		d := rr.Digests[k]
		want, ok := pins[k]
		if !ok {
			want, ok = rec.Digests[k]
		}
		if ok && d != want {
			rec.Failed++
			rec.Errors = append(rec.Errors, fmt.Sprintf("%s: result digest %s differs from %s", k, d[:12], want[:12]))
		}
		if _, seen := rec.Digests[k]; !seen {
			rec.Digests[k] = d
		}
	}
	// Every rep's totals are the same when its digests are.
	rec.Totals = rr.Totals
	if traced {
		rec.Traced = &rr.Sample
	} else {
		rec.Reps = append(rec.Reps, rr.Sample)
	}
}

func ms(d sim.Duration) float64 { return float64(d) / 1e6 }

// add sums one seed run's host costs into the rep.
func (smp *sample) add(o *seedOut) {
	smp.WallS += float64(o.wallNs) / 1e9
	for i, ns := range o.setupNs {
		smp.SetupLayerS[i] += float64(ns) / 1e9
		smp.SetupS += float64(ns) / 1e9
	}
	smp.RunS += float64(o.runNs) / 1e9
	smp.Events += o.events
	smp.Allocs += o.allocs
	smp.Bytes += o.bytes
	smp.AuditS += float64(o.auditNs) / 1e9
	smp.DeriveS += float64(o.deriveNs) / 1e9
	smp.ChromeS += float64(o.chromeNs) / 1e9
	smp.AdvanceS += float64(o.advanceNs) / 1e9
	smp.SampleS += float64(o.sampleNs) / 1e9
	smp.ScanSpanS += float64(o.scanSpanNs) / 1e9
	smp.PlacerS += float64(o.placerNs) / 1e9
	smp.Workers = max(smp.Workers, o.workers)
}

// add sums one seed run's exact counts into the rep.
func (t *totals) add(r *result) {
	t.Issued += r.Issued
	t.Completed += r.Completed
	t.DeadLettered += r.DeadLettered
	t.Shed += r.Shed
	t.Retried += r.Retried
	t.Preempts += r.Preempts
	t.Yields += r.Yields
	t.OverloadEnters += r.OverloadEnters
	t.FaultsDetected += r.FaultsDetected
	t.FaultsRecovered += r.FaultsRecovered
	for _, n := range r.Faults {
		t.FaultsInjected += n
	}
	if r.Placement != nil {
		t.Scans += r.Placement.Scans
		t.Migrations += r.Placement.MigrationsDone
	}
}

// cpuTimes are the process's cumulative CPU seconds: from getrusage, and
// the runtime's own estimates of the total and the GC's share.
type cpuTimes struct{ rusage, total, gc float64 }

func cpuSeconds() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return cpuTimes{tv(ru.Utime) + tv(ru.Stime), s[0].Value.Float64(), s[1].Value.Float64()}
}
