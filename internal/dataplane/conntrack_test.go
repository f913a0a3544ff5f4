package dataplane

import (
	"testing"

	"repro/internal/accel"
	"repro/internal/sim"
)

func TestConnTableLifecycle(t *testing.T) {
	cfg := DefaultConnTrack()
	tbl := newConnTable(cfg)
	// First packet of a flow: insert.
	if d := tbl.cost(1, true, false); d != cfg.InsertCost {
		t.Fatalf("insert cost %v", d)
	}
	// Established packets: lookup.
	if d := tbl.cost(1, false, false); d != cfg.LookupCost {
		t.Fatalf("lookup cost %v", d)
	}
	// FIN: teardown, flow gone.
	if d := tbl.cost(1, false, true); d != cfg.TeardownCost {
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
	cfg := DefaultConnTrack()
	cfg.Capacity = 3
	tbl := newConnTable(cfg)
	for f := 0; f < 3; f++ {
		tbl.cost(f, true, false)
	}
	tbl.cost(0, false, false) // touch 0: now 1 is LRU
	if d := tbl.cost(9, true, false); d != cfg.InsertCost+cfg.EvictCost {
		t.Fatalf("evicting insert cost %v", d)
	}
	if tbl.Evictions != 1 {
		t.Fatalf("evictions %d", tbl.Evictions)
	}
	// Flow 1 was evicted: its next packet re-inserts (possibly evicting).
	if d := tbl.cost(1, false, false); d < cfg.InsertCost {
		t.Fatalf("evicted flow should re-insert, cost %v", d)
	}
}

func TestServiceConnTrackCharging(t *testing.T) {
	e := sim.NewEngine()
	s := newService(e, 1, Config{})
	ct := DefaultConnTrack()
	ct.InsertCost = 10 * sim.Microsecond
	ct.LookupCost = 1 * sim.Microsecond
	s.EnableConnTrack(ct)

	var first, second sim.Time
	s.Deliver(0, &accel.Packet{ID: 1, Flow: 7, SYN: true, Work: sim.Microsecond,
		Done: func(_ *accel.Packet, at sim.Time) { first = at }}, 1)
	e.RunUntilIdle()
	s.Deliver(0, &accel.Packet{ID: 2, Flow: 7, Work: sim.Microsecond,
		Done: func(_ *accel.Packet, at sim.Time) { second = at }}, 1)
	e.RunUntilIdle()
	// Insert path: 1µs work + 10µs insert; established: 1µs + 1µs.
	if first != sim.Time(11*sim.Microsecond) {
		t.Fatalf("insert packet finished at %v, want 11µs", first)
	}
	if got := second.Sub(first); got != 2*sim.Microsecond {
		t.Fatalf("established packet took %v, want 2µs", got)
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
