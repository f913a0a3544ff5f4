package obs

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/trace"
)

// Derive sorts one Span per opened span and the Chrome writer reads one
// per line, so each byte of a Span is paid for once per span by both.
// The fields are ordered so nothing pads the struct past 56 bytes.
func TestSpanLayout(t *testing.T) {
	if n := unsafe.Sizeof(Span{}); n != 56 {
		t.Fatalf("Span is %d bytes; reorder its fields to pack it into 56", n)
	}
}

// The canonical span order sorts classes by name through classRank, so
// the rank table must order every pair of classes as their names order,
// and classesByName must list them in rank order.
func TestClassRankFollowsNames(t *testing.T) {
	for a := range trace.NumClasses {
		for b := range trace.NumClasses {
			ca, cb := trace.Class(a), trace.Class(b)
			got := cmp.Compare(classRank[ca], classRank[cb])
			if want := strings.Compare(ca.String(), cb.String()); got != want {
				t.Errorf("ranks order %q against %q as %d; their names order %d", ca, cb, got, want)
			}
		}
	}
	for r, c := range classesByName {
		if int(classRank[c]) != r {
			t.Errorf("classesByName[%d] is %q, whose rank is %d", r, c, classRank[c])
		}
	}
}

// The pairing table must say what trace.Kind.Info says of every kind:
// every schema kind's row, and the zero row for the kind values that
// have no schema row.
func TestPairingTableMatchesSchema(t *testing.T) {
	for k := range len(pairings) {
		kind := trace.Kind(k)
		info, p := kind.Info(), &pairings[k]
		closes := p.closes[:]
		if i := slices.Index(closes, trace.ClassNone); i >= 0 {
			closes = closes[:i]
		}
		if p.name != info.Name || p.opens != info.Opens || p.instant != info.Instant || !slices.Equal(closes, info.Closes) {
			t.Errorf("kind %d: pairing row %+v disagrees with the schema row %+v", k, *p, info)
		}
	}
}

// A kind that closes more classes than a pairing row holds must stop the
// table from being built, naming the kind, rather than lose a close.
func TestPairingRowOverflowPanics(t *testing.T) {
	info := trace.KindInfo{Name: "too_many", Closes: []trace.Class{trace.ClassNP, trace.ClassVM, trace.ClassLend}}
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "preempt") {
			t.Errorf("pairingOf panicked with %q; want a panic naming the kind", msg)
		}
	}()
	pairingOf(trace.KindPreempt, info)
}

// Derive refuses an event whose CPU a Span cannot hold rather than
// truncating it, and names the event.
func TestDeriveRejectsWideCPU(t *testing.T) {
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "event 1") {
			t.Errorf("Derive panicked with %q; want a panic naming event 1", msg)
		}
	}()
	Derive([]trace.Event{ev(0, trace.KindVMEntry, 0, 0, ""), ev(1, trace.KindVMEntry, 1<<32, 0, "")})
}
