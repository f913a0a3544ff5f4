package dataplane

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/sim"
)

func TestConnTableLifecycle(t *testing.T) {
	tbl := newConnTable(64 << 10)
	// First packet of a flow: insert.
	if d := tbl.cost(1, true, false); d != insertCost {
		t.Fatalf("insert cost %v", d)
	}
	// Established packets: lookup.
	if d := tbl.cost(1, false, false); d != lookupCost {
		t.Fatalf("lookup cost %v", d)
	}
	// FIN: teardown, flow gone.
	if d := tbl.cost(1, false, true); d != teardownCost {
		t.Fatalf("teardown cost %v", d)
	}
	if tbl.Len() != 0 {
		t.Fatalf("table len %d after teardown", tbl.Len())
	}
	if tbl.Inserts != 1 || tbl.Hits != 1 || tbl.Teardowns != 1 {
		t.Fatalf("stats %+v", tbl)
	}
}

func TestConnTableEvictsLRU(t *testing.T) {
	tbl := newConnTable(3)
	for f := 0; f < 3; f++ {
		tbl.cost(f, true, false)
	}
	tbl.cost(0, false, false) // touch 0: now 1 is LRU
	if d := tbl.cost(9, true, false); d != insertCost+evictCost {
		t.Fatalf("evicting insert cost %v", d)
	}
	if tbl.Evictions != 1 {
		t.Fatalf("evictions %d", tbl.Evictions)
	}
	// Flow 1 was evicted: its next packet re-inserts (possibly evicting).
	if d := tbl.cost(1, false, false); d < insertCost {
		t.Fatalf("evicted flow should re-insert, cost %v", d)
	}
}

func TestServiceConnTrackCharging(t *testing.T) {
	e := sim.NewEngine()
	s := newService(e, 1, Config{})
	s.EnableConnTrack(64 << 10)

	var first, second sim.Time
	s.Deliver(0, &accel.Packet{ID: 1, Flow: 7, SYN: true, Work: sim.Microsecond,
		Done: func(_ *accel.Packet, at sim.Time) { first = at }}, 1)
	e.RunUntilIdle()
	s.Deliver(0, &accel.Packet{ID: 2, Flow: 7, Work: sim.Microsecond,
		Done: func(_ *accel.Packet, at sim.Time) { second = at }}, 1)
	e.RunUntilIdle()
	// Insert path: 1µs work + 900ns insert; established: 1µs + 60ns.
	if want := sim.Time(sim.Microsecond + insertCost); first != want {
		t.Fatalf("insert packet finished at %v, want %v", first, want)
	}
	if got, want := second.Sub(first), sim.Microsecond+lookupCost; got != want {
		t.Fatalf("established packet took %v, want %v", got, want)
	}
	stats := s.ConnTrack()
	if stats.Inserts != 1 || stats.Hits != 1 || stats.Flows != 1 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestConnTrackDisabledIsFree(t *testing.T) {
	e := sim.NewEngine()
	s := newService(e, 1, Config{})
	var doneAt sim.Time
	s.Deliver(0, &accel.Packet{ID: 1, Flow: 3, SYN: true, Work: sim.Microsecond,
		Done: func(_ *accel.Packet, at sim.Time) { doneAt = at }}, 1)
	e.RunUntilIdle()
	if doneAt != sim.Time(sim.Microsecond) {
		t.Fatalf("untracked packet cost %v, want exactly its work", doneAt)
	}
	if s.ConnTrack() != (ConnTrackStats{}) {
		t.Fatal("stats should be zero when disabled")
	}
}

// A capacity below one flow is malformed: EnableConnTrack panics naming
// it instead of fitting a default-sized table that never evicts.
func TestConnTrackRejectsNonPositiveCapacity(t *testing.T) {
	for _, capacity := range []int{-4, 0} {
		func() {
			e := sim.NewEngine()
			s := newService(e, 1, Config{})
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, fmt.Sprintf("capacity %d", capacity)) {
					t.Errorf("EnableConnTrack(%d) recovered %v, want a panic naming the capacity", capacity, r)
				}
			}()
			s.EnableConnTrack(capacity)
			for f := range 5 {
				s.Deliver(0, &accel.Packet{ID: int64(f + 1), Flow: f, SYN: true, Work: sim.Microsecond}, 1)
			}
			e.RunUntilIdle()
			t.Errorf("EnableConnTrack(%d) did not panic; 5 flows evicted %d", capacity, s.ConnTrack().Evictions)
		}()
	}
}
