package trace

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(0, KindYield, 0, 0, "")
	if tr.Len() != 0 || tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer must be a no-op")
	}
	tr.Reset()
}

func TestEmitAndFilter(t *testing.T) {
	tr := New(0)
	tr.EnableOnly(KindYield, KindPreempt)
	tr.Emit(10, KindYield, 1, 0, "")
	tr.Emit(20, KindVMExit, 1, 0, "timer")
	tr.Emit(30, KindPreempt, 1, 0, "")
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (filtered)", tr.Len())
	}
}

func TestLimitDrops(t *testing.T) {
	tr := New(2)
	for i := 0; i < 5; i++ {
		tr.Emit(sim.Time(i), KindYield, 0, 0, "")
	}
	if tr.Len() != 2 || tr.Dropped() != 3 {
		t.Fatalf("Len=%d Dropped=%d, want 2/3", tr.Len(), tr.Dropped())
	}
}

func TestNonPreemptibleCensus(t *testing.T) {
	tr := New(0)
	// cpu0: 3ms section; cpu1: 50ms section; interleaved.
	tr.Emit(0, KindNonPreemptibleBegin, 0, 0, "")
	tr.Emit(sim.Time(1*sim.Millisecond), KindNonPreemptibleBegin, 1, 0, "")
	tr.Emit(sim.Time(3*sim.Millisecond), KindNonPreemptibleEnd, 0, 0, "")
	tr.Emit(sim.Time(51*sim.Millisecond), KindNonPreemptibleEnd, 1, 0, "")
	h := tr.NonPreemptibleCensus()
	if h.Count() != 2 {
		t.Fatalf("census count = %d, want 2", h.Count())
	}
	if h.Max() < 45*sim.Millisecond {
		t.Fatalf("census max = %v, want ~50ms", h.Max())
	}
	buckets := CensusBuckets(h)
	var total uint64
	for _, b := range buckets {
		total += b.Count
	}
	if total != 2 {
		t.Fatalf("bucket total = %d, want 2", total)
	}
}

func TestUnpairedEndIgnored(t *testing.T) {
	tr := New(0)
	tr.Emit(10, KindNonPreemptibleEnd, 0, 0, "")
	if got := tr.NonPreemptibleCensus().Count(); got != 0 {
		t.Fatalf("unpaired end produced %d records", got)
	}
}

func TestIPILatencies(t *testing.T) {
	tr := New(0)
	tr.Emit(100, KindIPISend, 0, 7, "")
	tr.Emit(100+sim.Time(2*sim.Microsecond), KindIPIDeliver, 3, 7, "")
	h := tr.IPILatencies()
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() < sim.Duration(1900) || h.Mean() > sim.Duration(2100) {
		t.Fatalf("mean IPI latency = %v, want ~2µs", h.Mean())
	}
}

func TestPacketBreakdown(t *testing.T) {
	tr := New(0)
	base := sim.Time(0)
	for id := int64(0); id < 10; id++ {
		tr.Emit(base, KindPacketArrive, -1, id, "")
		tr.Emit(base.Add(2700), KindPacketPreprocessDone, -1, id, "")
		tr.Emit(base.Add(3200), KindPacketDelivered, 2, id, "")
		tr.Emit(base.Add(4200), KindPacketProcessed, 2, id, "")
		base = base.Add(sim.Time(10 * sim.Microsecond).Sub(0))
	}
	stages := tr.PacketBreakdown()
	if len(stages) != 3 {
		t.Fatalf("stages = %d", len(stages))
	}
	if stages[0].Mean != 2700 || stages[1].Mean != 500 || stages[2].Mean != 1000 {
		t.Fatalf("stage means %v/%v/%v, want 2.7µs/500ns/1µs",
			stages[0].Mean, stages[1].Mean, stages[2].Mean)
	}
	if stages[0].N != 10 {
		t.Fatalf("stage N = %d", stages[0].N)
	}
}

func TestExitReasonCounts(t *testing.T) {
	tr := New(0)
	tr.Emit(1, KindVMExit, 0, 0, "timer")
	tr.Emit(2, KindVMExit, 0, 0, "probe")
	tr.Emit(3, KindVMExit, 0, 0, "timer")
	got := tr.ExitReasonCounts()
	if got["timer"] != 2 || got["probe"] != 1 {
		t.Fatalf("exit reasons = %v", got)
	}
}

func TestTimelineWindow(t *testing.T) {
	tr := New(0)
	tr.Emit(5, KindYield, 0, 0, "dp idle")
	tr.Emit(50, KindProbeIRQ, 0, 0, "pkt")
	tr.Emit(500, KindPreempt, 0, 0, "")
	out := tr.Timeline(0, 100)
	if !strings.Contains(out, "yield") || !strings.Contains(out, "probe_irq") {
		t.Fatalf("timeline missing events:\n%s", out)
	}
	if strings.Contains(out, "preempt") {
		t.Fatalf("timeline included out-of-window event:\n%s", out)
	}
}

func TestKindString(t *testing.T) {
	if KindVMExit.String() != "vm_exit" {
		t.Fatal("KindVMExit name")
	}
	if !strings.Contains(Kind(200).String(), "200") {
		t.Fatal("unknown kind formatting")
	}
}

func TestReset(t *testing.T) {
	tr := New(0)
	tr.Emit(1, KindYield, 0, 0, "")
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("Reset")
	}
}

// TestPacketBreakdownDeterministic pins the maporder fix in
// PacketBreakdown: stage sums are floating point, so the packets must
// be folded in sorted-id order, not map-range order. With the unsorted
// loop this test fails with high probability — varied magnitudes make
// float addition order-sensitive in the low bits, and Go randomizes
// map order on every range.
func TestPacketBreakdownDeterministic(t *testing.T) {
	build := func() *Tracer {
		tr := New(0)
		base := sim.Time(0)
		for id := int64(0); id < 300; id++ {
			// Spread stage durations across more magnitude than a
			// float64 mantissa holds (2^40ns ≈ 18min up to 2^62ns),
			// so the fold rounds and any reordering changes the bits.
			d := sim.Duration(1)<<uint(40+id%23) + sim.Duration(id*7919)
			tr.Emit(base, KindPacketArrive, -1, id, "")
			tr.Emit(base.Add(d), KindPacketPreprocessDone, -1, id, "")
			tr.Emit(base.Add(d+500), KindPacketDelivered, 2, id, "")
			tr.Emit(base.Add(d+1500), KindPacketProcessed, 2, id, "")
			base = base.Add(sim.Duration(10 * sim.Microsecond))
		}
		return tr
	}
	want := build().PacketBreakdown()
	for run := 0; run < 20; run++ {
		got := build().PacketBreakdown()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d stage %s diverged: %+v != %+v — PacketBreakdown is iterating packets in map order",
					run, want[i].Name, got[i], want[i])
			}
		}
	}
}

// TestEmitAllocs pins the write path's allocation cost: an Emit the kind
// filter rejects, or on a nil tracer, allocates nothing, and recorded
// Emits allocate at most one chunk per maxChunk events, plus the
// amortized growth of the chunk index.
func TestEmitAllocs(t *testing.T) {
	var none *Tracer
	tr := New(0)
	tr.EnableOnly(KindYield)
	if n := testing.AllocsPerRun(1000, func() {
		none.Emit(1, KindVMExit, 0, 0, "timer")
		tr.Emit(1, KindVMExit, 0, 0, "timer")
	}); n != 0 {
		t.Fatalf("filtered-out Emit allocated %v times, want 0", n)
	}

	// AllocsPerRun calls the function once before measuring, so the
	// measured run appends to a tracer already past the small chunks.
	const events = 64 * maxChunk
	tr = New(0)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < events; i++ {
			tr.Emit(sim.Time(i), KindVMExit, 0, int64(i), "timer")
		}
	})
	if chunks := float64(events / maxChunk); allocs > 2*chunks {
		t.Fatalf("%d recorded Emits allocated %v times, want at most %v chunks plus as many index growths",
			events, allocs, chunks)
	}
}

// The last-note check in front of the note map changes no ID: over
// repeated, alternating, cycling and random note sequences, the note
// table and every event's note ID and note equal those of a map-only
// interner.
func TestInternMatchesMapOnly(t *testing.T) {
	alphabet := []string{"", "timer", "hlt", "io", "ipi", "msr", "ept", "cpuid"}
	r := rand.New(rand.NewSource(1))
	random := func(k int) []string {
		notes := make([]string, 4000)
		for i := range notes {
			notes[i] = alphabet[r.Intn(k)]
		}
		return notes
	}
	cycle := func(k int) []string {
		notes := make([]string, 4000)
		for i := range notes {
			notes[i] = alphabet[1+i%k]
		}
		return notes
	}
	for name, notes := range map[string][]string{
		"repeated":           cycle(1),
		"alternating":        cycle(2),
		"cycle of four":      cycle(4),
		"random, few notes":  random(3),
		"random, many notes": random(len(alphabet)),
	} {
		tr := New(0)
		table, ids := []string{""}, map[string]uint32{"": 0}
		var want []uint32
		for i, n := range notes {
			id, ok := ids[n]
			if !ok {
				id = uint32(len(table))
				table = append(table, n)
				ids[n] = id
			}
			want = append(want, id)
			tr.Emit(sim.Time(i), KindVMExit, 0, 0, n)
		}
		if !reflect.DeepEqual(tr.notes, table) {
			t.Fatalf("%s: note table %q, map-only interner %q", name, tr.notes, table)
		}
		var got []uint32
		for _, c := range append(tr.chunks, tr.cur) {
			for _, rec := range c {
				got = append(got, rec.kindNote>>8)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: note IDs differ from the map-only interner's", name)
		}
		i := 0
		tr.All()(func(e Event) bool {
			if e.Note != notes[i] {
				t.Fatalf("%s: event %d has note %q, want %q", name, i, e.Note, notes[i])
			}
			i++
			return true
		})
	}
}
