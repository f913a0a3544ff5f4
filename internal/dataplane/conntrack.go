package dataplane

import (
	"container/list"
	"fmt"

	"repro/internal/sim"
)

// The per-core connection-tracking table is the vSwitch flow-table
// reality behind the paper's tcp_crr and connections-per-second numbers
// (§6.1 cites Alibaba's hardware-assisted vSwitch). When enabled,
// per-packet cost is no longer a constant: the first packet of a flow
// pays the insert path, established packets pay a lookup, and a full
// table evicts least-recently-used entries. Its costs are those of a
// production-like table: cheap lookups, a heavier insert path.
const (
	// lookupCost is added to established-flow packets.
	lookupCost = 60 * sim.Nanosecond
	// insertCost is added to flow-creating packets (SYN path).
	insertCost = 900 * sim.Nanosecond
	// teardownCost is added to flow-closing packets (FIN path).
	teardownCost = 300 * sim.Nanosecond
	// evictCost is added when an insert must first evict an LRU entry.
	evictCost = 500 * sim.Nanosecond
)

// connTable is one core's flow table with LRU eviction.
type connTable struct {
	capacity int
	entries  map[int]*list.Element
	lru      *list.List // front = most recent; values are flow ids

	// Stats.
	Hits      uint64
	Inserts   uint64
	Teardowns uint64
	Evictions uint64
}

func newConnTable(capacity int) *connTable {
	return &connTable{capacity: capacity, entries: map[int]*list.Element{}, lru: list.New()}
}

// cost charges the table operations for one packet and returns the added
// processing time.
func (t *connTable) cost(flow int, syn, fin bool) sim.Duration {
	var d sim.Duration
	el, known := t.entries[flow]
	switch {
	case known && fin:
		t.lru.Remove(el)
		delete(t.entries, flow)
		t.Teardowns++
		d += teardownCost
	case known:
		t.lru.MoveToFront(el)
		t.Hits++
		d += lookupCost
	default:
		// Unknown flow: insert (whether or not the packet is a proper SYN
		// — mid-flow packets of evicted connections re-insert, as real
		// conntrack does).
		if t.lru.Len() >= t.capacity {
			back := t.lru.Back()
			t.lru.Remove(back)
			delete(t.entries, back.Value.(int))
			t.Evictions++
			d += evictCost
		}
		t.entries[flow] = t.lru.PushFront(flow)
		t.Inserts++
		d += insertCost
		_ = syn
	}
	return d
}

// Len returns the number of tracked flows.
func (t *connTable) Len() int { return t.lru.Len() }

// EnableConnTrack fits a connection table of capacity flows to every
// core of the service. Packets carry flow identity and SYN/FIN markers
// (accel.Packet); cores charge table costs on top of the packet's base
// work. It panics, naming the value, on a capacity below 1.
func (s *Service) EnableConnTrack(capacity int) {
	if capacity < 1 {
		panic(fmt.Sprintf("dataplane: conntrack capacity %d: want at least 1 flow", capacity))
	}
	for _, c := range s.cores {
		c.conns = newConnTable(capacity)
	}
}

// ConnTrackStats aggregates table statistics across the service's cores.
type ConnTrackStats struct {
	Flows     int
	Hits      uint64
	Inserts   uint64
	Teardowns uint64
	Evictions uint64
}

// ConnTrack returns aggregate flow-table statistics (zero value when
// tracking is disabled).
func (s *Service) ConnTrack() ConnTrackStats {
	var out ConnTrackStats
	for _, c := range s.cores {
		if c.conns == nil {
			continue
		}
		out.Flows += c.conns.Len()
		out.Hits += c.conns.Hits
		out.Inserts += c.conns.Inserts
		out.Teardowns += c.conns.Teardowns
		out.Evictions += c.conns.Evictions
	}
	return out
}
