//go:build go1.23

package trace

import (
	"math"
	"slices"
	"testing"

	"repro/internal/sim"
)

// refTracer is the reference model FuzzTracer holds Tracer to: the flat
// []Event tracer it replaced, one append per recorded event.
type refTracer struct {
	events   []Event
	filtered bool
	enabled  [len(kinds)]bool // indexed by Kind when filtered
	dropped  uint64
	limit    int
}

func (r *refTracer) enableOnly(enable ...Kind) {
	r.filtered = true
	r.enabled = [len(kinds)]bool{}
	for _, k := range enable {
		if int(k) < len(r.enabled) {
			r.enabled[k] = true
		}
	}
}

func (r *refTracer) emit(at sim.Time, kind Kind, cpu int, arg int64, note string) {
	if r.filtered && (int(kind) >= len(r.enabled) || !r.enabled[kind]) {
		return
	}
	if r.limit > 0 && len(r.events) >= r.limit {
		r.dropped++
		return
	}
	r.events = append(r.events, Event{At: at, Kind: kind, CPU: cpu, Arg: arg, Note: note})
}

func (r *refTracer) reset() {
	r.events = r.events[:0]
	r.dropped = 0
}

// Script alphabets: a few notes, the empty one included, and CPU ids
// that reach both ends of the stored 32 bits.
var (
	fuzzNotes = [...]string{"", "a", "hold:rtnl", "vec=1 dst=2"}
	fuzzCPUs  = [...]int{-1, 0, 1, 2, 3, 7, math.MaxInt32, math.MinInt32}
	// fuzzLimits are the stored-event caps a script can pick: none, one,
	// just past the first chunk, and inside the fourth.
	fuzzLimits = [...]int{0, 1, minChunk + 1, 700}
)

// fuzzKind decodes a kind byte: most values land on KindNone, a schema
// kind or the first kind past the schema; 0xF0 and up stay raw, far
// outside it.
func fuzzKind(b byte) Kind {
	if b >= 0xF0 {
		return Kind(b)
	}
	return Kind(int(b) % (len(kinds) + 1))
}

// FuzzTracer is a differential test: Tracer must record exactly what
// the reference []Event tracer does. A script is a limit byte and then
// four bytes per op (code, a, b, c):
//
//	0  emit one event: kind a, note and CPU from b, Arg c
//	1  emit a burst of 4c+1 events like op 0, Arg counting up, so
//	   scripts cross chunk boundaries
//	2  EnableOnly with c%3 kinds: none, kind a, or kinds a and b
//	3  Reset
//	4  compare Events() and All() against the reference
//	5  compare the first c events All() yields before breaking off
//
// Len and Dropped are compared after every op; every slice Events()
// returned must keep its contents through later emits and resets. The
// seed corpus is testdata/fuzz/FuzzTracer.
func FuzzTracer(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		if len(script) > 1+4*200 {
			script = script[:1+4*200]
		}
		limit := fuzzLimits[script[0]%byte(len(fuzzLimits))]
		got, want := New(limit), &refTracer{limit: limit}
		var at sim.Time
		type snapshot struct{ got, want []Event }
		var snaps []snapshot
		checkEvents := func(step int) {
			evs := got.Events()
			if !slices.Equal(evs, want.events) {
				t.Fatalf("op %d: Events() %v, reference %v", step, evs, want.events)
			}
			if all := slices.Collect(got.All()); !slices.Equal(all, want.events) {
				t.Fatalf("op %d: All() %v, reference %v", step, all, want.events)
			}
			snaps = append(snaps, snapshot{evs, slices.Clone(evs)})
		}
		emit := func(kind Kind, b byte, arg int64) {
			at += sim.Time(arg % 3)
			note, cpu := fuzzNotes[b%4], fuzzCPUs[b/4%8]
			got.Emit(at, kind, cpu, arg, note)
			want.emit(at, kind, cpu, arg, note)
		}
		for i := 1; i+3 < len(script); i += 4 {
			code, a, b, c := script[i], script[i+1], script[i+2], script[i+3]
			step := i / 4
			switch code % 6 {
			case 0:
				emit(fuzzKind(a), b, int64(c))
			case 1:
				for j := 0; j <= 4*int(c); j++ {
					emit(fuzzKind(a), b, int64(j))
				}
			case 2:
				enable := []Kind{fuzzKind(a), fuzzKind(b)}[:c%3]
				got.EnableOnly(enable...)
				want.enableOnly(enable...)
			case 3:
				got.Reset()
				want.reset()
			case 4:
				checkEvents(step)
			case 5:
				var prefix []Event
				for e := range got.All() {
					if len(prefix) == int(c) {
						break
					}
					prefix = append(prefix, e)
				}
				if n := min(int(c), len(want.events)); !slices.Equal(prefix, want.events[:n]) {
					t.Fatalf("op %d: All() broken off at %d yielded %v, reference %v", step, c, prefix, want.events[:n])
				}
			}
			if got.Len() != len(want.events) || got.Dropped() != want.dropped {
				t.Fatalf("op %d: Len/Dropped %d/%d, reference %d/%d", step,
					got.Len(), got.Dropped(), len(want.events), want.dropped)
			}
		}
		checkEvents(len(script) / 4)
		for i, s := range snaps {
			if !slices.Equal(s.got, s.want) {
				t.Fatalf("Events() result %d changed after it was returned", i)
			}
		}
	})
}
