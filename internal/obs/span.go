package obs

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Span is one derived lifecycle interval. IDs are deterministic: after
// derivation the spans are sorted canonically (Start, End, Class name,
// CPU, Arg, Note, Truncated) and the ID is the span's position in that
// order — so two runs of the same seed, or the same run exported twice,
// number their spans identically. The fields are ordered so a Span packs
// into 56 bytes (TestSpanLayout): Derive sorts and the Chrome writer
// reads one per span.
type Span struct {
	Start sim.Time
	End   sim.Time
	Arg   int64 // pairing key where relevant (IPI id, packet id, VM id)
	Note  string
	ID    int
	CPU   int32       // physical/logical CPU id; -1 for spans not tied to a core
	Class trace.Class // its String is the class name: "np", "vm", "lend", ...
	// Truncated marks a begin that never saw its end inside the trace
	// (run horizon hit, or the tracer's event cap dropped the close).
	// The span is clipped to the last traced instant.
	Truncated bool
}

// Duration returns End-Start.
func (s Span) Duration() sim.Duration { return s.End.Sub(s.Start) }

// Instant is a timeline marker for an event whose kind the trace schema
// flags as an instant (context switches, watchdog escalation rungs,
// retry detours, packet stage progress). Some instants also open or
// close a span.
type Instant struct {
	At   sim.Time
	Name string
	CPU  int
	Arg  int64
	Note string
}

// Derivation is the result of Derive: the span list (sorted, IDs
// assigned) plus the instant markers in trace order.
type Derivation struct {
	Spans    []Span
	Instants []Instant
}

// Derive pairs a trace's events into spans and instants by the trace
// schema (trace.Kind.Info), read through the pairing table: each event
// closes the classes its kind closes, opens the class it opens, and
// marks an instant if its kind is one. OBSERVABILITY.md §2 renders the
// pairings. Events must be in emission order (which is chronological:
// the tracer records at the engine clock). Open spans at the end of the
// trace are emitted truncated, clipped to the last event's instant.
// Like the tracer, it panics on an event whose CPU does not fit in 32
// bits.
func Derive(events []trace.Event) Derivation {
	// An empty output stays nil.
	nOpen, nInstant := outputCounts(events)
	var spans []Span
	var instants []Instant
	var open openStacks
	if nOpen > 0 {
		spans = make([]Span, 0, nOpen)
		open.below = make([]int32, 0, nOpen)
	}
	if nInstant > 0 {
		instants = make([]Instant, 0, nInstant)
	}

	// A span is stored at its begin, so a chronological trace lays the
	// spans out in Start order. Until its close it is Truncated.
	for i := range events {
		e := &events[i]
		if int(int32(e.CPU)) != e.CPU {
			panic(fmt.Sprintf("obs: event %d: cpu %d does not fit in 32 bits", i, e.CPU))
		}
		p := &pairings[e.Kind]
		for _, c := range p.closes {
			if c == trace.ClassNone {
				break
			}
			// Pop the most recent open begin, preferring the close
			// event's note when the begin carried none. An unpaired close
			// (its begin fell outside the trace) is dropped.
			j := open.pop(c, c.KeyOf(*e))
			if j < 0 {
				continue
			}
			s := &spans[j]
			s.End, s.Truncated = e.At, false
			if s.Note == "" {
				s.Note = e.Note
			}
		}
		if c := p.opens; c != trace.ClassNone {
			open.push(c, c.KeyOf(*e))
			spans = append(spans, Span{
				Start: e.At, Arg: e.Arg, Note: e.Note,
				CPU: int32(e.CPU), Class: c, Truncated: true,
			})
		}
		if p.instant {
			instants = append(instants, Instant{
				At: e.At, Name: p.name, CPU: e.CPU, Arg: e.Arg, Note: e.Note,
			})
		}
	}

	// Clip still-open spans to the last traced instant.
	if len(events) > 0 {
		end := events[len(events)-1].At
		for i := range spans {
			if spans[i].Truncated {
				spans[i].End = end
			}
		}
	}
	sortSpans(spans)
	return Derivation{Spans: spans, Instants: instants}
}

// outputCounts returns how many spans and instants Derive makes of
// events. Every open becomes exactly one span, closed or truncated.
func outputCounts(events []trace.Event) (nOpen, nInstant int) {
	for i := range events {
		p := &pairings[events[i].Kind]
		if p.opens != trace.ClassNone {
			nOpen++
		}
		if p.instant {
			nInstant++
		}
	}
	return nOpen, nInstant
}

// pairing is one kind's row of Derive's pairing table: what
// trace.Kind.Info says about the kind's spans and instant, without the
// Closes slice, so a row is read in place rather than copied per event.
type pairing struct {
	name    string         // the kind's name, which its instants carry
	closes  [2]trace.Class // the classes the kind closes, in pop order; ClassNone ends the list
	opens   trace.Class
	instant bool
}

// pairings is the pairing table, indexed by Kind. Every Kind value has
// a row, so an unknown kind reads the zero row and pairs nothing, as its
// zero KindInfo does.
var pairings = pairingTable()

// pairingTable builds the pairing table from the trace schema.
func pairingTable() *[1 << 8]pairing {
	var t [1 << 8]pairing
	for _, k := range trace.Kinds() {
		t[k] = pairingOf(k, k.Info())
	}
	return &t
}

// pairingOf returns kind k's row. It panics, naming the kind, if the
// kind closes more classes than a row holds.
func pairingOf(k trace.Kind, info trace.KindInfo) pairing {
	p := pairing{name: info.Name, opens: info.Opens, instant: info.Instant}
	if len(info.Closes) > len(p.closes) {
		panic(fmt.Sprintf("obs: kind %s closes %d classes; a pairing row holds %d", k, len(info.Closes), len(p.closes)))
	}
	copy(p.closes[:], info.Closes)
	return p
}

// openStacks holds Derive's open spans: one LIFO stack per (class,
// key), the key being the CPU or the Arg. Each stack is its newest
// span's index plus one (0 when empty), and below[i] is the index of
// the span that span i was pushed over, or -1. Keys from -1 to 62 index
// an array: on faulted VM churn they take 99% of the pushes and pops
// (every per-CPU class's), and holding them in the map instead makes
// Derive about a third slower. Other keys (IPI, request and attempt ids) go
// through a map, which drops a key whose stack empties.
type openStacks struct {
	small [trace.NumClasses][64]int32
	large [trace.NumClasses]map[int64]int32
	below []int32
}

// top returns the index of class c's newest open span under key, or -1.
func (o *openStacks) top(c trace.Class, key int64) int32 {
	if k := uint64(key + 1); k < uint64(len(o.small[c])) {
		return o.small[c][k] - 1
	}
	return o.large[c][key] - 1
}

// setTop makes span i, or no span if i is -1, the top of the stack.
func (o *openStacks) setTop(c trace.Class, key int64, i int32) {
	switch k := uint64(key + 1); {
	case k < uint64(len(o.small[c])):
		o.small[c][k] = i + 1
	case i < 0:
		delete(o.large[c], key)
	default:
		if o.large[c] == nil {
			o.large[c] = map[int64]int32{}
		}
		o.large[c][key] = i + 1
	}
}

// push opens the next span, index len(below), on class c's stack.
func (o *openStacks) push(c trace.Class, key int64) {
	o.below = append(o.below, o.top(c, key))
	o.setTop(c, key, int32(len(o.below)-1))
}

// pop closes class c's newest open span under key and returns its
// index, or -1 if none is open.
func (o *openStacks) pop(c trace.Class, key int64) int32 {
	i := o.top(c, key)
	if i >= 0 {
		o.setTop(c, key, o.below[i])
	}
	return i
}

// classRank orders the span classes by name: a class's rank is its
// position among the class names sorted as strings. The canonical span
// order compares ranks, so it sorts by name without comparing strings.
// classesByName lists the classes in that order.
var classRank, classesByName = rankClasses()

func rankClasses() (rank [trace.NumClasses]uint8, byName [trace.NumClasses]trace.Class) {
	for c := range byName {
		byName[c] = trace.Class(c)
	}
	slices.SortFunc(byName[:], func(a, b trace.Class) int { return strings.Compare(a.String(), b.String()) })
	for r, c := range byName {
		rank[c] = uint8(r)
	}
	return rank, byName
}

// maxInsertionRun bounds the runs of equal Start that sortSpans sorts
// by insertion. Runs on faulted VM churn are at most 12 spans long;
// longer ones go through slices.SortFunc, so a hand-built trace with one
// huge run does not sort in quadratic time.
const maxInsertionRun = 32

// sortSpans puts the spans in canonical order (Start, End, Class name,
// CPU, Arg, Note, Truncated) and assigns IDs. Derive stores spans in
// Start order when the trace is chronological, so only each run of
// equal Start is sorted, in place by insertion; a Start that decreases
// sends the whole slice through slices.SortFunc with the same
// comparison. Spans equal on all seven keys are equal in every field
// but ID, so an unstable sort gives exactly what a stable one would.
func sortSpans(spans []Span) {
	for i := 0; i < len(spans); {
		j := i + 1
		for j < len(spans) && spans[j].Start == spans[i].Start {
			j++
		}
		if j < len(spans) && spans[j].Start < spans[i].Start {
			slices.SortFunc(spans, compareSpanValues)
			break
		}
		switch run := spans[i:j]; {
		case len(run) > maxInsertionRun:
			slices.SortFunc(run, compareSpanValues)
		case len(run) > 1:
			insertionSort(run)
		}
		i = j
	}
	for i := range spans {
		spans[i].ID = i
	}
}

// insertionSort sorts a short run in canonical order, comparing spans
// through pointers so no comparison copies one.
func insertionSort(run []Span) {
	for i := 1; i < len(run); i++ {
		for j := i; j > 0 && compareSpans(&run[j], &run[j-1]) < 0; j-- {
			run[j], run[j-1] = run[j-1], run[j]
		}
	}
}

// compareSpanValues is compareSpans for slices.SortFunc.
func compareSpanValues(a, b Span) int { return compareSpans(&a, &b) }

// compareSpans is the canonical span order. A closed span sorts before
// a truncated one that equals it on every other key.
func compareSpans(a, b *Span) int {
	if c := cmp.Compare(a.Start, b.Start); c != 0 {
		return c
	}
	if c := cmp.Compare(a.End, b.End); c != 0 {
		return c
	}
	if c := cmp.Compare(classRank[a.Class], classRank[b.Class]); c != 0 {
		return c
	}
	if c := cmp.Compare(a.CPU, b.CPU); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Arg, b.Arg); c != 0 {
		return c
	}
	if c := strings.Compare(a.Note, b.Note); c != 0 {
		return c
	}
	switch {
	case a.Truncated == b.Truncated:
		return 0
	case a.Truncated:
		return 1
	}
	return -1
}
