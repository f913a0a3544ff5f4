package obs

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Span is one derived lifecycle interval. IDs are deterministic: after
// derivation the spans are sorted canonically (Start, End, Class, CPU,
// Arg, Note, Truncated) and the ID is the span's position in that order
// — so two runs of the same seed, or the same run exported twice, number
// their spans identically.
type Span struct {
	ID    int
	Class string // trace.Class name: "np", "vm", "lend", "request", ...
	CPU   int    // physical/logical CPU id; -1 for spans not tied to a core
	Arg   int64  // pairing key where relevant (IPI id, packet id, VM id)
	Start sim.Time
	End   sim.Time
	Note  string
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
// schema (trace.Kind.Info): each event closes the classes its kind
// closes, opens the class it opens, and marks an instant if its kind is
// one. OBSERVABILITY.md §2 renders the pairings. Events must be in
// emission order (which is chronological: the tracer records at the
// engine clock). Open spans at the end of the trace are emitted
// truncated, clipped to the last event's instant.
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
	for _, e := range events {
		info := e.Kind.Info()
		for _, c := range info.Closes {
			// Pop the most recent open begin, preferring the close
			// event's note when the begin carried none. An unpaired close
			// (its begin fell outside the trace) is dropped.
			i := open.pop(c, c.KeyOf(e))
			if i < 0 {
				continue
			}
			s := &spans[i]
			s.End, s.Truncated = e.At, false
			if s.Note == "" {
				s.Note = e.Note
			}
		}
		if c := info.Opens; c != trace.ClassNone {
			open.push(c, c.KeyOf(e))
			spans = append(spans, Span{
				Class: c.String(), CPU: e.CPU, Arg: e.Arg,
				Start: e.At, Note: e.Note, Truncated: true,
			})
		}
		if info.Instant {
			instants = append(instants, Instant{
				At: e.At, Name: info.Name, CPU: e.CPU, Arg: e.Arg, Note: e.Note,
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
	for _, e := range events {
		info := e.Kind.Info()
		if info.Opens != trace.ClassNone {
			nOpen++
		}
		if info.Instant {
			nInstant++
		}
	}
	return nOpen, nInstant
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

// sortSpans puts the spans in canonical order (Start, End, Class, CPU,
// Arg, Note, Truncated) and assigns IDs. Derive stores spans in Start
// order when the trace is chronological, so only each run of equal
// Start is sorted; a Start that decreases sends the whole slice through
// the same comparison. Spans equal on all seven keys are equal in every
// field but ID, so an unstable sort gives exactly what a stable one
// would.
func sortSpans(spans []Span) {
	for i := 0; i < len(spans); {
		j := i + 1
		for j < len(spans) && spans[j].Start == spans[i].Start {
			j++
		}
		if j < len(spans) && spans[j].Start < spans[i].Start {
			slices.SortFunc(spans, compareSpans)
			break
		}
		if j-i > 1 {
			slices.SortFunc(spans[i:j], compareSpans)
		}
		i = j
	}
	for i := range spans {
		spans[i].ID = i
	}
}

// compareSpans is the canonical span order. A closed span sorts before
// a truncated one that equals it on every other key.
func compareSpans(a, b Span) int {
	if c := cmp.Compare(a.Start, b.Start); c != 0 {
		return c
	}
	if c := cmp.Compare(a.End, b.End); c != 0 {
		return c
	}
	if c := strings.Compare(a.Class, b.Class); c != 0 {
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
