package obs

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// FuzzDerive is a differential test: the table-driven Derive must
// produce exactly what the kind-by-kind reference deriver below does,
// on arbitrary event scripts, nil slices included. The seed corpus is
// testdata/fuzz/FuzzDerive. Its equal-sort-keys and
// closed-and-truncated-tie entries hold spans equal on every sort key
// but Truncated, closed and truncated ones mixed, among spans the sort
// must reverse; equal-start-many-ends opens 8 and then 16 spans at one
// instant and closes each group in reverse, then ends on a closed span
// tied with a truncated one opened before it, so skipping the sort of a
// run of equal Start, dropping the Truncated key, or leaving a closed
// span marked truncated each misorders or mislabels spans;
// class-order-not-enum-order holds a vm and a lend span equal in Start
// and End, stored vm first, which only a class order by name ("lend"
// before "vm") rather than by Class value reverses; no-spans and
// opens-no-closes leave one output slice empty, which must stay nil.
func FuzzDerive(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events := decodeScript(data)
		got, want := Derive(events), deriveReference(events)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Derive diverged from the reference on %d events\ngot  %+v\nwant %+v", len(events), got, want)
		}
	})
}

// TestDeriveNonChronological holds Derive to the reference on scripts
// whose clock steps back, which the tracer never records and
// decodeScript never produces: a span that starts before the one stored
// ahead of it sends Derive through its whole-slice sort.
func TestDeriveNonChronological(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	unordered := 0
	for n := 0; n < 2000; n++ {
		data := make([]byte, 5*(1+r.Intn(60)))
		r.Read(data)
		events := decodeScript(data)
		for i := range events {
			if r.Intn(8) == 0 {
				events[i].At -= sim.Time(r.Int63n(int64(events[i].At) + 1))
			}
		}
		got, want := Derive(events), deriveReference(events)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("script %d: Derive diverged from the reference on %d events\ngot  %+v\nwant %+v", n, len(events), got, want)
		}
		last := sim.Time(-1)
		for _, e := range events {
			if e.Kind.Info().Opens == trace.ClassNone {
				continue
			}
			if e.At < last {
				unordered++
				break
			}
			last = e.At
		}
	}
	if unordered < 500 {
		t.Errorf("only %d of 2000 scripts open a span before an earlier-stored one", unordered)
	}
}

// TestDeriveLongRuns holds Derive to the reference on scripts that open
// more spans at one instant than sortSpans sorts by insertion, which
// decodeScript's short fuzz inputs rarely reach: every event of a
// script shares one time step, so each script is one run of equal Start.
func TestDeriveLongRuns(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	long := 0
	for n := 0; n < 200; n++ {
		data := make([]byte, 5*(maxInsertionRun+r.Intn(4*maxInsertionRun)))
		r.Read(data)
		for i := 1; i < len(data); i += 5 {
			data[i] = 0
		}
		events := decodeScript(data)
		got, want := Derive(events), deriveReference(events)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("script %d: Derive diverged from the reference on %d events\ngot  %+v\nwant %+v", n, len(events), got, want)
		}
		if len(got.Spans) > maxInsertionRun {
			long++
		}
	}
	if long < 50 {
		t.Errorf("only %d of 200 scripts open more than %d spans at one instant", long, maxInsertionRun)
	}
}

// decodeScript turns fuzz bytes into an event script, five bytes per
// event: kind, time step, CPU, Arg, note. The kind byte ranges over
// KindNone, every schema kind and one unknown kind; CPU, Arg and note
// take few values so begins and ends collide often, and the largest CPU
// and Arg are past the keys Derive keeps in an array, so its map of
// larger keys is exercised too; At never decreases.
func decodeScript(data []byte) []trace.Event {
	kinds := trace.Kinds()
	cpus := [...]int{-1, 0, 1, 100}
	args := [...]int64{0, 1, 2, 1 << 40}
	notes := [...]string{"", "a", "b"}
	var events []trace.Event
	var at sim.Time
	for ; len(data) >= 5; data = data[5:] {
		at += sim.Time(data[1] % 4)
		events = append(events, trace.Event{
			At:   at,
			Kind: trace.Kind(int(data[0]) % (len(kinds) + 2)),
			CPU:  cpus[data[2]%4],
			Arg:  args[data[3]%4],
			Note: notes[data[4]%3],
		})
	}
	return events
}

// Span derivation rules — the begin/end pairings documented in
// OBSERVABILITY.md. Per-CPU classes pair on the CPU field, per-entity
// classes on Arg. Ends pop the most recent open begin (LIFO), so
// nested or re-entered sections still pair deterministically.
//
//	np      np_begin        → np_end          per CPU
//	vm      vm_entry        → vm_exit         per CPU (note: exit reason)
//	lend    yield           → preempt         per CPU
//	reclaim probe_irq       → preempt         per CPU (the §4.3 window)
//	softirq softirq_raise   → softirq_run     per CPU
//	ipi     ipi_send        → ipi_deliver     per Arg (IPI id)
//	packet  pkt_arrive      → pkt_processed   per Arg (packet id)
//	attempt  req_attempt    → req_retry | req_completed | req_deadletter  per Arg (VM id)
//	request  req_issued     → req_completed | req_deadletter | req_shed   per Arg (VM id)
//	overload overload_enter → overload_exit   per CPU (-1; LIFO nests rungs)
//	migrate  vm_migrate_start → vm_migrate_done  per Arg (VM id; CPU moves source→target)
//
// A preempt closes both the open lend and the open reclaim window on
// its CPU: the reclaim is the tail of the lend it interrupts.
type refOpenKey struct {
	class string
	key   int64 // CPU for per-CPU classes, Arg for per-entity classes
}

type refOpenSpan struct {
	start sim.Time
	cpu   int
	arg   int64
	note  string
}

// refClass returns the span class named name.
func refClass(name string) trace.Class {
	for c := range trace.NumClasses {
		if trace.Class(c).String() == name {
			return trace.Class(c)
		}
	}
	panic("no span class " + name)
}

// deriveReference is the hand-written, kind-by-kind span deriver that
// Derive's table-driven loop replaced. FuzzDerive holds the two equal.
func deriveReference(events []trace.Event) Derivation {
	open := map[refOpenKey][]refOpenSpan{}
	var spans []Span
	var instants []Instant

	push := func(class string, key int64, e trace.Event) {
		k := refOpenKey{class, key}
		open[k] = append(open[k], refOpenSpan{start: e.At, cpu: e.CPU, arg: e.Arg, note: e.Note})
	}
	// pop closes the most recent open span of the class, preferring the
	// close event's note when the begin carried none.
	pop := func(class string, key int64, e trace.Event) bool {
		k := refOpenKey{class, key}
		stack := open[k]
		if len(stack) == 0 {
			return false
		}
		o := stack[len(stack)-1]
		open[k] = stack[:len(stack)-1]
		note := o.note
		if note == "" {
			note = e.Note
		}
		spans = append(spans, Span{
			Class: refClass(class), CPU: int32(o.cpu), Arg: o.arg,
			Start: o.start, End: e.At, Note: note,
		})
		return true
	}
	mark := func(e trace.Event) {
		instants = append(instants, Instant{
			At: e.At, Name: e.Kind.String(), CPU: e.CPU, Arg: e.Arg, Note: e.Note,
		})
	}

	for _, e := range events {
		switch e.Kind {
		case trace.KindNonPreemptibleBegin:
			push("np", int64(e.CPU), e)
		case trace.KindNonPreemptibleEnd:
			pop("np", int64(e.CPU), e)
		case trace.KindVMEntry:
			push("vm", int64(e.CPU), e)
		case trace.KindVMExit:
			pop("vm", int64(e.CPU), e)
		case trace.KindYield:
			push("lend", int64(e.CPU), e)
		case trace.KindProbeIRQ:
			push("reclaim", int64(e.CPU), e)
		case trace.KindPreempt:
			pop("reclaim", int64(e.CPU), e)
			pop("lend", int64(e.CPU), e)
		case trace.KindSoftirqRaise:
			push("softirq", int64(e.CPU), e)
		case trace.KindSoftirqRun:
			pop("softirq", int64(e.CPU), e)
		case trace.KindIPISend:
			push("ipi", e.Arg, e)
		case trace.KindIPIDeliver:
			pop("ipi", e.Arg, e)
		case trace.KindPacketArrive:
			push("packet", e.Arg, e)
		case trace.KindPacketProcessed:
			pop("packet", e.Arg, e)
		case trace.KindPacketPreprocessDone, trace.KindPacketDelivered:
			mark(e)
		case trace.KindRequestIssued:
			push("request", e.Arg, e)
		case trace.KindRequestAttempt:
			push("attempt", e.Arg, e)
		case trace.KindRequestRetry:
			pop("attempt", e.Arg, e)
			mark(e)
		case trace.KindRequestCompleted, trace.KindRequestDeadLetter:
			pop("attempt", e.Arg, e)
			pop("request", e.Arg, e)
		case trace.KindRequestResurrected:
			// A resurrected request re-opens its request span (the
			// dead-letter closed it); the instant itself is also marked so
			// timelines show the resurrection point.
			push("request", e.Arg, e)
			mark(e)
		case trace.KindRequestShed:
			// A shed closes the request span like the other terminals (no
			// attempt span can be open: sheds happen before provisioning);
			// the instant marks the shed point with its reason.
			pop("request", e.Arg, e)
			mark(e)
		case trace.KindOverloadEnter:
			// Each rung up opens an "overload" span; each rung down closes
			// the most recent one (LIFO), so nested rungs render as nested
			// intervals on the -1 track. Both edges also mark instants.
			push("overload", int64(e.CPU), e)
			mark(e)
		case trace.KindOverloadExit:
			pop("overload", int64(e.CPU), e)
			mark(e)
		case trace.KindVMMigrateStart:
			// The migration span carries the source member as its CPU (the
			// begin side); the done's Note records the source so timelines
			// can render the hop even though the span keys on the VM id.
			push("migrate", e.Arg, e)
			mark(e)
		case trace.KindVMMigrateDone:
			pop("migrate", e.Arg, e)
			mark(e)
		case trace.KindVMPlace, trace.KindRebalanceScan:
			mark(e)
		case trace.KindSchedSwitch, trace.KindReclaimEscalate,
			trace.KindDefenseRecover, trace.KindNodeRejoin:
			mark(e)
		}
	}

	// Clip still-open spans to the last traced instant. Key order does
	// not matter for correctness of the individual spans, but the final
	// sort below is what fixes IDs, so iterate sorted keys anyway to
	// keep every intermediate deterministic.
	if len(events) > 0 {
		end := events[len(events)-1].At
		keys := make([]refOpenKey, 0, len(open))
		for k := range open {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].class != keys[j].class {
				return keys[i].class < keys[j].class
			}
			return keys[i].key < keys[j].key
		})
		for _, k := range keys {
			for _, o := range open[k] {
				spans = append(spans, Span{
					Class: refClass(k.class), CPU: int32(o.cpu), Arg: o.arg,
					Start: o.start, End: end, Note: o.note, Truncated: true,
				})
			}
		}
	}

	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Class != b.Class {
			return a.Class.String() < b.Class.String()
		}
		if a.CPU != b.CPU {
			return a.CPU < b.CPU
		}
		if a.Arg != b.Arg {
			return a.Arg < b.Arg
		}
		return a.Note < b.Note
	})
	for i := range spans {
		spans[i].ID = i
	}
	return Derivation{Spans: spans, Instants: instants}
}
