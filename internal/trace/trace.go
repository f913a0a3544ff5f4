// This file and the readers that range over Tracer.All carry a go1.23
// constraint, which turns on range-over-func for them: the module's go
// line stays at 1.22 because the benchmark module that requires it
// declares 1.22.

//go:build go1.23

// Package trace records structured simulation events and provides the
// analyzers behind the paper's motivation figures: the non-preemptible
// routine census (Figure 5), the latency-spike anatomy timeline (Figure 4),
// scheduling-latency distributions (Table 1), and VM-exit reason
// accounting used by the adaptive time-slice ablation.
package trace

import (
	"fmt"
	"iter"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Kind classifies a trace event.
type Kind uint8

// Trace event kinds emitted by the kernel, vCPU, accelerator, and Tai Chi
// scheduler models.
const (
	KindNone Kind = iota
	// KindNonPreemptibleBegin/End bracket a kernel non-preemptible routine
	// (spinlock hold, driver critical section).
	KindNonPreemptibleBegin
	KindNonPreemptibleEnd
	// KindSchedSwitch is a context switch on a CPU.
	KindSchedSwitch
	// KindVMEntry / KindVMExit bracket vCPU residency on a physical core.
	KindVMEntry
	KindVMExit
	// KindIPISend / KindIPIDeliver bracket an inter-processor interrupt.
	KindIPISend
	KindIPIDeliver
	// KindPacketArrive/PreprocessDone/Delivered/Processed walk an I/O
	// request through the accelerator into the data plane (Figure 6).
	KindPacketArrive
	KindPacketPreprocessDone
	KindPacketDelivered
	KindPacketProcessed
	// KindYield / KindPreempt are the DP→CP lend and CP→DP reclaim
	// transitions of the §4.1 core-lending loop. (The adaptive empty-poll
	// policy that decides *when* to yield is the §4.3 software probe; the
	// transitions themselves belong to the §4.1 scheduler.)
	KindYield
	KindPreempt
	// KindProbeIRQ is a hardware-workload-probe early interrupt (§4.3):
	// the accelerator signals pending I/O for a lent core before
	// preprocessing finishes, opening the reclaim window obs derives as a
	// "reclaim" span.
	KindProbeIRQ
	// KindSoftirqRaise / KindSoftirqRun bracket the vCPU scheduler softirq.
	KindSoftirqRaise
	KindSoftirqRun
	// Request-lifecycle kinds, emitted by internal/cluster's VM-startup
	// manager. Arg is the VM id for all five.
	//
	// KindRequestIssued marks a VM-creation request entering the system.
	KindRequestIssued
	// KindRequestAttempt marks one provisioning attempt starting; Note
	// carries the attempt ordinal ("attempt1", "attempt2", ...).
	KindRequestAttempt
	// KindRequestRetry marks a failed attempt detouring through backoff;
	// Note carries the failure reason ("timeout", "nack").
	KindRequestRetry
	// KindRequestCompleted / KindRequestDeadLetter are the two terminal
	// outcomes; Note on the dead-letter event carries the final reason.
	KindRequestCompleted
	KindRequestDeadLetter
	// KindReclaimEscalate marks one rung of the reclaim watchdog's
	// escalation ladder (ARCHITECTURE.md §6.2): Arg is the DP core id and
	// Note is the rung ("forced-ipi", "teardown", "static", "sw-probe").
	KindReclaimEscalate
	// KindDefenseRecover marks one de-escalation rung of the recovery
	// ladder (ARCHITECTURE.md §6.5): CPU is -1 (scheduler-wide), Arg is
	// the recovery generation, Note the rung reached ("sw-probe",
	// "normal").
	KindDefenseRecover
	// KindNodeRejoin marks the scheduler returning to ModeNormal after a
	// degradation episode — the node is fully back in the lending (and,
	// fleet-side, dispatch) ring. CPU is -1, Arg the recovery generation.
	KindNodeRejoin
	// KindRequestResurrected marks a dead-lettered VM-creation request
	// re-entering the pipeline under the bounded requeue policy. Arg is
	// the VM id; Note carries the resurrection ordinal ("life2", ...).
	KindRequestResurrected
	// KindRequestShed marks a VM-creation request rejected or shed by the
	// admission gate (ARCHITECTURE.md §6.6) — a terminal outcome distinct
	// from dead-letter: no provisioning attempt was consumed and no
	// device inventory existed to roll back. Arg is the VM id; Note
	// carries the shed reason ("brownout" gate rejection or "sojourn"
	// queue-deadline expiry).
	KindRequestShed
	// KindOverloadEnter / KindOverloadExit mark the overload ladder
	// (normal→throttle→shed→brownout) moving one rung up or down. CPU is
	// -1 (scheduler-wide), Arg is the rung arrived at (OverloadState
	// ordinal), Note its name. The audit replayer checks the transitions
	// form a lattice-legal ±1 walk.
	KindOverloadEnter
	KindOverloadExit
	// Cluster-placement kinds, emitted by internal/placement's engine into
	// its own cluster-level tracer (node traces never carry them). CPU is
	// the fleet member index for all but rebalance_scan.
	//
	// KindVMPlace marks a VM-startup request admitted to a member by the
	// placer. Arg is the cluster VM id; CPU the chosen member, or -1 when
	// every member was excluded at decision time and the request
	// dead-letters at cluster level (Note "all-excluded"). A re-placement
	// of a node-dead-lettered request carries Note "replaced".
	KindVMPlace
	// KindVMMigrateStart / KindVMMigrateDone bracket one live migration.
	// Arg is the VM id; the start's CPU is the source member (Note
	// "to=<target>"), the done's CPU is the target member (Note
	// "from=<source>"). Residency stays on the source until the done.
	KindVMMigrateStart
	KindVMMigrateDone
	// KindRebalanceScan marks one periodic rebalance scan. CPU is -1
	// (cluster-wide), Arg the scan ordinal, and Note carries the hot and
	// excluded member sets ("hot=1,4 excl=0,2") — the decision-time
	// exclusion record the audit replayer checks placements against.
	KindRebalanceScan
)

// Class is a span class: a begin/end pairing that obs.Derive folds
// into an interval (OBSERVABILITY.md §2).
type Class uint8

// Span classes. ClassNone is the zero value a kind that opens nothing
// carries.
const (
	ClassNone Class = iota
	ClassNP
	ClassVM
	ClassLend
	ClassReclaim
	ClassSoftirq
	ClassIPI
	ClassPacket
	ClassAttempt
	ClassRequest
	ClassOverload
	ClassMigrate
	// NumClasses bounds the class values, for arrays indexed by Class.
	NumClasses = int(iota)
)

// pairKey names the event field that pairs a class's begins with its
// ends. An end pops the most recent open begin (LIFO) with the same
// class and key, so nested or re-entered sections pair deterministically.
type pairKey uint8

const (
	byCPU pairKey = iota // per-core classes pair on Event.CPU
	byArg                // per-entity classes pair on Event.Arg
)

// classInfo declares one span class.
type classInfo struct {
	name string
	key  pairKey
	// keyDoc says what the key identifies, for OBSERVABILITY.md §2.
	keyDoc string
}

var classes = [NumClasses]classInfo{
	ClassNP:       {name: "np", key: byCPU},
	ClassVM:       {name: "vm", key: byCPU},
	ClassLend:     {name: "lend", key: byCPU},
	ClassReclaim:  {name: "reclaim", key: byCPU},
	ClassSoftirq:  {name: "softirq", key: byCPU},
	ClassIPI:      {name: "ipi", key: byArg, keyDoc: "IPI id"},
	ClassPacket:   {name: "packet", key: byArg, keyDoc: "packet id"},
	ClassAttempt:  {name: "attempt", key: byArg, keyDoc: "VM id"},
	ClassRequest:  {name: "request", key: byArg, keyDoc: "VM id"},
	ClassOverload: {name: "overload", key: byCPU, keyDoc: "−1; LIFO nests rungs"},
	ClassMigrate:  {name: "migrate", key: byArg, keyDoc: "cluster VM id; CPU moves source → destination"},
}

// String returns the class name spans carry.
func (c Class) String() string { return classes[c].name }

// KeyOf returns the pairing key of event e under class c.
func (c Class) KeyOf(e Event) int64 {
	if classes[c].key == byArg {
		return e.Arg
	}
	return int64(e.CPU)
}

// AuditScope records whether the audit replayer checks a kind.
type AuditScope uint8

const (
	// AuditReplayed kinds are handled by audit.Run's replay switch. It
	// is the zero value, so a kind without an audit decision (or an
	// unknown kind) surfaces as an "unhandled-kind" violation.
	AuditReplayed AuditScope = iota
	// AuditOutOfScope kinds are deliberately not replayed:
	//   - kernel-interior mechanics (np, sched_switch, ipi, softirq) are
	//     cost-model detail below the invariants the auditor states, and
	//     obs span derivation pairs them structurally;
	//   - the packet lifecycle is left out of default tracing for volume
	//     and is conserved by construction in the accelerator model;
	//   - probe_irq opens the §4.3 reclaim window, and the reclaim itself
	//     (yield/preempt pairing) is what the auditor checks.
	AuditOutOfScope
)

// KindInfo is one row of the trace schema: everything the consumers of
// a kind (String, obs.Derive, the auditor, the exporter) need to know.
type KindInfo struct {
	Name string
	// Opens is the span class the kind begins, or ClassNone.
	Opens Class
	// Closes lists the span classes the kind ends, in pop order.
	Closes []Class
	// Instant marks kinds that also become timeline point markers.
	Instant bool
	Audit   AuditScope
}

// kinds is the trace schema, indexed by Kind. A kind added to the
// const block above needs exactly one row here.
var kinds = [...]KindInfo{
	KindNone:                 {},
	KindNonPreemptibleBegin:  {Name: "np_begin", Opens: ClassNP, Audit: AuditOutOfScope},
	KindNonPreemptibleEnd:    {Name: "np_end", Closes: []Class{ClassNP}, Audit: AuditOutOfScope},
	KindSchedSwitch:          {Name: "sched_switch", Instant: true, Audit: AuditOutOfScope},
	KindVMEntry:              {Name: "vm_entry", Opens: ClassVM},
	KindVMExit:               {Name: "vm_exit", Closes: []Class{ClassVM}},
	KindIPISend:              {Name: "ipi_send", Opens: ClassIPI, Audit: AuditOutOfScope},
	KindIPIDeliver:           {Name: "ipi_deliver", Closes: []Class{ClassIPI}, Audit: AuditOutOfScope},
	KindPacketArrive:         {Name: "pkt_arrive", Opens: ClassPacket, Audit: AuditOutOfScope},
	KindPacketPreprocessDone: {Name: "pkt_preprocessed", Instant: true, Audit: AuditOutOfScope},
	KindPacketDelivered:      {Name: "pkt_delivered", Instant: true, Audit: AuditOutOfScope},
	KindPacketProcessed:      {Name: "pkt_processed", Closes: []Class{ClassPacket}, Audit: AuditOutOfScope},
	KindYield:                {Name: "yield", Opens: ClassLend},
	// A preempt ends the open reclaim window and the lend it interrupts.
	KindPreempt:            {Name: "preempt", Closes: []Class{ClassReclaim, ClassLend}},
	KindProbeIRQ:           {Name: "probe_irq", Opens: ClassReclaim, Audit: AuditOutOfScope},
	KindSoftirqRaise:       {Name: "softirq_raise", Opens: ClassSoftirq, Audit: AuditOutOfScope},
	KindSoftirqRun:         {Name: "softirq_run", Closes: []Class{ClassSoftirq}, Audit: AuditOutOfScope},
	KindRequestIssued:      {Name: "req_issued", Opens: ClassRequest},
	KindRequestAttempt:     {Name: "req_attempt", Opens: ClassAttempt},
	KindRequestRetry:       {Name: "req_retry", Closes: []Class{ClassAttempt}, Instant: true},
	KindRequestCompleted:   {Name: "req_completed", Closes: []Class{ClassAttempt, ClassRequest}},
	KindRequestDeadLetter:  {Name: "req_deadletter", Closes: []Class{ClassAttempt, ClassRequest}},
	KindReclaimEscalate:    {Name: "reclaim_escalate", Instant: true},
	KindDefenseRecover:     {Name: "defense_recover", Instant: true},
	KindNodeRejoin:         {Name: "node_rejoin", Instant: true},
	KindRequestResurrected: {Name: "req_resurrected", Opens: ClassRequest, Instant: true},
	// Sheds happen before provisioning, so no attempt span can be open.
	KindRequestShed:    {Name: "req_shed", Closes: []Class{ClassRequest}, Instant: true},
	KindOverloadEnter:  {Name: "overload_enter", Opens: ClassOverload, Instant: true},
	KindOverloadExit:   {Name: "overload_exit", Closes: []Class{ClassOverload}, Instant: true},
	KindVMPlace:        {Name: "vm_place", Instant: true},
	KindVMMigrateStart: {Name: "vm_migrate_start", Opens: ClassMigrate, Instant: true},
	KindVMMigrateDone:  {Name: "vm_migrate_done", Closes: []Class{ClassMigrate}, Instant: true},
	KindRebalanceScan:  {Name: "rebalance_scan", Instant: true},
}

// Info returns the kind's schema row; unknown kinds get the zero row.
func (k Kind) Info() KindInfo {
	if int(k) < len(kinds) {
		return kinds[k]
	}
	return KindInfo{}
}

// Kinds returns every named kind in declaration order — the exporter's
// iteration surface, so a kind added here is automatically part of the
// export schema (OBSERVABILITY.md documents the mapping).
func Kinds() []Kind {
	out := make([]Kind, 0, len(kinds)-1)
	for k := range kinds {
		if kinds[k].Name != "" {
			out = append(out, Kind(k))
		}
	}
	return out
}

// String returns the canonical short name of the kind.
func (k Kind) String() string {
	if s := k.Info().Name; s != "" {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one trace record, as readers see it.
type Event struct {
	At   sim.Time
	Kind Kind
	CPU  int    // logical or physical CPU id, -1 if not applicable
	Arg  int64  // kind-specific argument (thread id, packet id, vector...)
	Note string // optional human-readable detail
}

// record is one stored event. It holds no pointer, so the garbage
// collector never scans a chunk of them, and the note is an index into
// the tracer's note table.
type record struct {
	at  sim.Time
	arg int64
	cpu int32
	// kindNote packs the Kind into the low 8 bits and the note ID above.
	kindNote uint32
}

const (
	// Chunks start small, so a tracer that records a few setup events
	// stays small, and grow with the event count up to maxChunk records
	// (24 KB, below the allocator's 32 KB large-object size).
	minChunk = 64
	maxChunk = 1024
	// maxNotes bounds the note table: an ID has the 24 bits kindNote
	// leaves above the kind.
	maxNotes = 1 << 24
)

// Tracer accumulates events. A nil *Tracer is a valid no-op sink so hot
// paths can trace unconditionally.
//
// Events are stored as pointer-free records in fixed-capacity chunks that
// are never copied or grown; notes are interned into an append-only
// table. All iterates the records in place. Events builds one []Event
// copy, releases the chunks it copied and returns the same slice until
// the next Emit.
type Tracer struct {
	on      [256]bool // indexed by Kind: whether Emit records the kind
	limit   int
	n       int // stored events: len(flat) + the records in chunks and cur
	dropped uint64

	flat   []Event    // the oldest events, as Events last returned them
	chunks [][]record // full chunks after flat, in emission order
	cur    []record   // the chunk being filled, after chunks

	notes    []string          // note ID → note; ID 0 is ""; nil before the first note
	noteIDs  map[string]uint32 // note → ID, for every note but ""
	lastNote string            // the last note interned, and its ID
	lastID   uint32
}

// New returns a tracer that records every kind, with an optional cap on
// stored events (0 means unlimited).
func New(limit int) *Tracer {
	t := &Tracer{limit: limit}
	for k := range t.on {
		t.on[k] = true
	}
	return t
}

// EnableOnly restricts recording to the given kinds. Passing no kinds
// disables recording entirely. A filtered tracer drops kinds outside
// the schema.
func (t *Tracer) EnableOnly(enable ...Kind) {
	t.on = [256]bool{}
	for _, k := range enable {
		if int(k) < len(kinds) {
			t.on[k] = true
		}
	}
}

// Emit records one event. Safe to call on a nil tracer. The filter check
// is a single array load and Emit inlines, so components can trace
// unconditionally on hot paths (the accelerator emits four events per
// packet). cpu must fit in 32 bits.
func (t *Tracer) Emit(at sim.Time, kind Kind, cpu int, arg int64, note string) {
	if t != nil && t.on[kind] {
		t.record(at, kind, cpu, arg, note)
	}
}

// record stores one event that passed the kind filter.
func (t *Tracer) record(at sim.Time, kind Kind, cpu int, arg int64, note string) {
	if t.limit > 0 && t.n >= t.limit {
		t.dropped++
		return
	}
	if int(int32(cpu)) != cpu {
		panic(fmt.Sprintf("trace: cpu %d does not fit in 32 bits", cpu))
	}
	if len(t.cur) == cap(t.cur) {
		if cap(t.cur) > 0 {
			t.chunks = append(t.chunks, t.cur)
		}
		t.cur = make([]record, 0, min(max(t.n, minChunk), maxChunk))
	}
	t.cur = append(t.cur, record{at: at, arg: arg, cpu: int32(cpu), kindNote: uint32(kind) | t.intern(note)<<8})
	t.n++
}

// intern returns the note's ID, adding the note to the table if new.
// Runs of one note are common (a burst of timer exits), so the last
// note is checked before the map.
func (t *Tracer) intern(note string) uint32 {
	if note == "" {
		return 0
	}
	if note == t.lastNote {
		return t.lastID
	}
	id, ok := t.noteIDs[note]
	if !ok {
		if t.noteIDs == nil {
			t.notes, t.noteIDs = []string{""}, map[string]uint32{}
		}
		id = uint32(len(t.notes))
		if id == maxNotes {
			panic("trace: note table full")
		}
		t.notes = append(t.notes, note)
		t.noteIDs[note] = id
	}
	t.lastNote, t.lastID = note, id
	return id
}

// event resolves a stored record.
func (t *Tracer) event(r record) Event {
	e := Event{At: r.at, Kind: Kind(r.kindNote), CPU: int(r.cpu), Arg: r.arg}
	if id := r.kindNote >> 8; id != 0 {
		e.Note = t.notes[id]
	}
	return e
}

// All iterates the recorded events in emission order without copying
// them. The tracer must not record while the iteration runs.
func (t *Tracer) All() iter.Seq[Event] {
	return func(yield func(Event) bool) {
		if t == nil {
			return
		}
		for _, e := range t.flat {
			if !yield(e) {
				return
			}
		}
		for _, c := range t.chunks {
			for _, r := range c {
				if !yield(t.event(r)) {
					return
				}
			}
		}
		for _, r := range t.cur {
			if !yield(t.event(r)) {
				return
			}
		}
	}
}

// Events returns the recorded events in emission order. The first call
// after an Emit builds one exact-sized slice and releases the chunks it
// copied; later calls return that slice until the next Emit. Readers
// that only iterate should use All, which copies nothing.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	if t.n > len(t.flat) {
		out := make([]Event, len(t.flat), t.n)
		copy(out, t.flat)
		for i, c := range t.chunks {
			for _, r := range c {
				out = append(out, t.event(r))
			}
			t.chunks[i] = nil
		}
		for _, r := range t.cur {
			out = append(out, t.event(r))
		}
		t.flat, t.chunks, t.cur = out, t.chunks[:0], t.cur[:0]
	}
	return t.flat
}

// Dropped returns how many events were discarded due to the cap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Len returns the number of stored events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Reset discards all stored events. The note table is kept.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.flat, t.chunks, t.cur = nil, nil, t.cur[:0]
	t.n, t.dropped = 0, 0
}

// NonPreemptibleCensus pairs np_begin/np_end events per CPU and returns a
// histogram of section durations — the analysis behind Figure 5.
func (t *Tracer) NonPreemptibleCensus() *metrics.Histogram {
	h := metrics.NewHistogram("non_preemptible_duration")
	open := map[int]sim.Time{} // cpu -> begin time
	for e := range t.All() {
		switch e.Kind {
		case KindNonPreemptibleBegin:
			open[e.CPU] = e.At
		case KindNonPreemptibleEnd:
			if begin, ok := open[e.CPU]; ok {
				h.Record(e.At.Sub(begin))
				delete(open, e.CPU)
			}
		}
	}
	return h
}

// DurationBucket is one row of the Figure 5 histogram: routines with
// duration in [Lo, Hi).
type DurationBucket struct {
	Lo, Hi sim.Duration
	Count  uint64
}

// CensusBuckets buckets a non-preemptible census into the paper's Figure 5
// ranges (1-5 ms, 5-10 ms, ..., >40 ms).
func CensusBuckets(h *metrics.Histogram) []DurationBucket {
	edges := []sim.Duration{
		1 * sim.Millisecond, 5 * sim.Millisecond, 10 * sim.Millisecond,
		20 * sim.Millisecond, 30 * sim.Millisecond, 40 * sim.Millisecond,
		70 * sim.Millisecond,
	}
	out := make([]DurationBucket, 0, len(edges)-1)
	for i := 0; i+1 < len(edges); i++ {
		out = append(out, DurationBucket{
			Lo:    edges[i],
			Hi:    edges[i+1],
			Count: h.CountBetween(edges[i], edges[i+1]),
		})
	}
	return out
}

// IPILatencies pairs ipi_send/ipi_deliver events by Arg (a per-IPI id) and
// returns the delivery latency histogram.
func (t *Tracer) IPILatencies() *metrics.Histogram {
	h := metrics.NewHistogram("ipi_latency")
	sent := map[int64]sim.Time{}
	for e := range t.All() {
		switch e.Kind {
		case KindIPISend:
			sent[e.Arg] = e.At
		case KindIPIDeliver:
			if at, ok := sent[e.Arg]; ok {
				h.Record(e.At.Sub(at))
				delete(sent, e.Arg)
			}
		}
	}
	return h
}

// PacketStage summarizes the mean residency of packets in each pipeline
// stage — the Figure 6 breakdown.
type PacketStage struct {
	Name string
	Mean sim.Duration
	N    uint64
}

// PacketBreakdown pairs packet lifecycle events by packet id (Arg) and
// computes per-stage means: arrive→preprocessed, preprocessed→delivered,
// delivered→processed.
func (t *Tracer) PacketBreakdown() []PacketStage {
	type times struct {
		arrive, pre, deliver, done sim.Time
		has                        [4]bool
	}
	pkts := map[int64]*times{}
	get := func(id int64) *times {
		p, ok := pkts[id]
		if !ok {
			p = &times{}
			pkts[id] = p
		}
		return p
	}
	for e := range t.All() {
		switch e.Kind {
		case KindPacketArrive:
			p := get(e.Arg)
			p.arrive, p.has[0] = e.At, true
		case KindPacketPreprocessDone:
			p := get(e.Arg)
			p.pre, p.has[1] = e.At, true
		case KindPacketDelivered:
			p := get(e.Arg)
			p.deliver, p.has[2] = e.At, true
		case KindPacketProcessed:
			p := get(e.Arg)
			p.done, p.has[3] = e.At, true
		}
	}
	// Iterate packets in id order: the stage sums are floating point,
	// and float addition is order-sensitive in the low bits, so summing
	// in (randomized) map order would break bit-for-bit replay of the
	// Figure 6 table. Caught by taichilint's maporder rule.
	ids := make([]int64, 0, len(pkts))
	for id := range pkts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var sums [3]float64
	var ns [3]uint64
	for _, id := range ids {
		p := pkts[id]
		if p.has[0] && p.has[1] {
			sums[0] += float64(p.pre.Sub(p.arrive))
			ns[0]++
		}
		if p.has[1] && p.has[2] {
			sums[1] += float64(p.deliver.Sub(p.pre))
			ns[1]++
		}
		if p.has[2] && p.has[3] {
			sums[2] += float64(p.done.Sub(p.deliver))
			ns[2]++
		}
	}
	names := []string{"preprocess", "transfer", "dp_processing"}
	out := make([]PacketStage, 3)
	for i := range out {
		out[i] = PacketStage{Name: names[i], N: ns[i]}
		if ns[i] > 0 {
			out[i].Mean = sim.Duration(sums[i] / float64(ns[i]))
		}
	}
	return out
}

// ExitReasonCounts tallies VM-exit events by their Note field (the exit
// reason string emitted by the vCPU model).
func (t *Tracer) ExitReasonCounts() map[string]uint64 {
	out := map[string]uint64{}
	for e := range t.All() {
		if e.Kind == KindVMExit {
			out[e.Note]++
		}
	}
	return out
}

// Timeline renders events in [from, to] as one line each — used by
// examples/coscheduling to show the Figure 4 spike anatomy.
func (t *Tracer) Timeline(from, to sim.Time) string {
	var b strings.Builder
	var sorted []Event
	for e := range t.All() {
		if e.At >= from && e.At <= to {
			sorted = append(sorted, e)
		}
	}
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	for _, e := range sorted {
		fmt.Fprintf(&b, "%12v cpu%-2d %-16s arg=%-6d %s\n", e.At, e.CPU, e.Kind, e.Arg, e.Note)
	}
	return b.String()
}
