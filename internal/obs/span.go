package obs

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Span is one derived lifecycle interval. IDs are deterministic: after
// derivation the spans are sorted canonically (Start, End, Class, CPU,
// Arg, Note) and the ID is the span's position in that order — so two
// runs of the same seed, or the same run exported twice, number their
// spans identically.
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

type openSpan struct {
	start sim.Time
	cpu   int
	arg   int64
	note  string
}

// Derive pairs a trace's events into spans and instants by the trace
// schema (trace.Kind.Info): each event closes the classes its kind
// closes, opens the class it opens, and marks an instant if its kind is
// one. OBSERVABILITY.md §2 renders the pairings. Events must be in
// emission order (which is chronological: the tracer records at the
// engine clock). Open spans at the end of the trace are emitted
// truncated, clipped to the last event's instant.
func Derive(events []trace.Event) Derivation {
	// Every open becomes exactly one span, closed or truncated, so one
	// counting pass sizes both outputs. An empty output stays nil.
	var nOpen, nInstant int
	for _, e := range events {
		info := e.Kind.Info()
		if info.Opens != trace.ClassNone {
			nOpen++
		}
		if info.Instant {
			nInstant++
		}
	}
	var spans []Span
	var instants []Instant
	if nOpen > 0 {
		spans = make([]Span, 0, nOpen)
	}
	if nInstant > 0 {
		instants = make([]Instant, 0, nInstant)
	}

	// open[c][key] is class c's stack of open begins for one CPU or Arg.
	var open [trace.NumClasses]map[int64][]openSpan
	for _, e := range events {
		info := e.Kind.Info()
		for _, c := range info.Closes {
			// Pop the most recent open begin (LIFO), preferring the close
			// event's note when the begin carried none. An unpaired close
			// (its begin fell outside the trace) is dropped.
			key := c.KeyOf(e)
			stack := open[c][key]
			if len(stack) == 0 {
				continue
			}
			o := stack[len(stack)-1]
			open[c][key] = stack[:len(stack)-1]
			note := o.note
			if note == "" {
				note = e.Note
			}
			spans = append(spans, Span{
				Class: c.String(), CPU: o.cpu, Arg: o.arg,
				Start: o.start, End: e.At, Note: note,
			})
		}
		if c := info.Opens; c != trace.ClassNone {
			if open[c] == nil {
				open[c] = map[int64][]openSpan{}
			}
			key := c.KeyOf(e)
			open[c][key] = append(open[c][key], openSpan{start: e.At, cpu: e.CPU, arg: e.Arg, note: e.Note})
		}
		if info.Instant {
			instants = append(instants, Instant{
				At: e.At, Name: info.Name, CPU: e.CPU, Arg: e.Arg, Note: e.Note,
			})
		}
	}

	// Clip still-open spans to the last traced instant. Order does not
	// matter for correctness of the individual spans, but the final sort
	// below is what fixes IDs, so iterate (class name, key) order anyway
	// to keep every intermediate deterministic.
	if len(events) > 0 {
		end := events[len(events)-1].At
		byName := make([]trace.Class, 0, trace.NumClasses)
		for c := range open {
			if len(open[c]) > 0 {
				byName = append(byName, trace.Class(c))
			}
		}
		sort.Slice(byName, func(i, j int) bool { return byName[i].String() < byName[j].String() })
		for _, c := range byName {
			keys := make([]int64, 0, len(open[c]))
			for k := range open[c] {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for _, k := range keys {
				for _, o := range open[c][k] {
					spans = append(spans, Span{
						Class: c.String(), CPU: o.cpu, Arg: o.arg,
						Start: o.start, End: end, Note: o.note, Truncated: true,
					})
				}
			}
		}
	}
	return Derivation{Spans: sortSpans(spans), Instants: instants}
}

// spanOrder is one span's sort key, (Start, End) inline and the rest
// reached through the span's index: sorting these 24-byte records moves
// far less memory than sorting the Spans themselves.
type spanOrder struct {
	start, end sim.Time
	i          int
}

// sortSpans returns the spans in canonical order (Start, End, Class,
// CPU, Arg, Note) with IDs assigned. Ties on every key keep their
// derivation order — the final index comparison makes the order total,
// so an unstable sort gives exactly what a stable one would.
func sortSpans(spans []Span) []Span {
	if spans == nil {
		return nil
	}
	order := make([]spanOrder, len(spans))
	for i := range spans {
		order[i] = spanOrder{spans[i].Start, spans[i].End, i}
	}
	slices.SortFunc(order, func(x, y spanOrder) int {
		if c := cmp.Compare(x.start, y.start); c != 0 {
			return c
		}
		if c := cmp.Compare(x.end, y.end); c != 0 {
			return c
		}
		a, b := &spans[x.i], &spans[y.i]
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
		return cmp.Compare(x.i, y.i)
	})
	sorted := make([]Span, len(spans))
	for id, o := range order {
		sorted[id] = spans[o.i]
		sorted[id].ID = id
	}
	return sorted
}
