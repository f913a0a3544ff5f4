package cluster

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/sim"
)

// PlacementPolicy puts the manager under an external cluster placer
// (internal/placement): arrivals come from the placer via Submit instead
// of the node-local Poisson process, each resident VM keeps a recurring
// control-plane load program alive on the node (HostVM/EvictVM — this is
// what live migration physically moves), and dead-lettered requests are
// parked for the placer to re-place instead of resurrecting node-locally.
//
// The zero value disables the machinery entirely: no streams are
// derived, Start keeps its arrival process, and runs are byte-identical
// to a manager without the field.
type PlacementPolicy struct {
	// Enabled turns placed mode on.
	Enabled bool
}

// Per-VM load program: sized so a handful of resident VMs is background
// noise and a few dozen visibly pressures the CP — the gradient the
// pressure policy steers against.
const (
	// vmLoadPeriod is the mean gap between a resident VM's CP load
	// bursts.
	vmLoadPeriod = 40 * sim.Millisecond
	// vmLoadBusy is the CP compute time of each burst.
	vmLoadBusy = 400 * sim.Microsecond
	// vmLoadJitter spreads the period (±frac) from the VM's
	// "cluster.vmload%d" stream so co-resident VMs do not beat.
	vmLoadJitter = 0.2
)

// DefaultPlacementPolicy turns placed mode on.
func DefaultPlacementPolicy() PlacementPolicy { return PlacementPolicy{Enabled: true} }

// vmLoad is one resident VM's recurring load program. The stopped flag
// is how eviction works: the program checks it before every segment, so
// an evicted VM's thread winds down at its next scheduling point without
// needing thread-kill machinery.
type vmLoad struct {
	stopped bool
}

// Submit issues one VM-startup request on behalf of the cluster placer —
// the placed-mode replacement for the node-local arrival process. The
// request runs the exact same lifecycle as an internally-arrived one
// (admission gate, retries, dead-letter) and is returned so the caller
// can map its cluster-level VM id onto the node-local request.
func (m *Manager) Submit() *Request {
	if !m.cfg.Placement.Enabled {
		return nil
	}
	return m.issueRequest()
}

// HostVM marks cluster VM id resident on this node and starts its
// recurring load program. Idempotent: a VM already resident keeps its
// existing program (no second stream derivation), so migration code can
// admit without first checking residency.
func (m *Manager) HostVM(id int) {
	if !m.cfg.Placement.Enabled {
		return
	}
	if _, ok := m.vmLoads[id]; ok {
		return
	}
	l := &vmLoad{}
	if m.vmLoads == nil {
		m.vmLoads = map[int]*vmLoad{}
	}
	m.vmLoads[id] = l
	r := m.host.Stream(fmt.Sprintf("cluster.vmload%d", id))
	burst := true
	m.host.SpawnCP(fmt.Sprintf("vmload%d", id),
		kernel.ProgramFunc(func(*kernel.Thread) (kernel.Segment, bool) {
			if l.stopped {
				return kernel.Segment{}, false
			}
			if burst {
				burst = false
				return kernel.Segment{Kind: kernel.SegCompute, Dur: vmLoadBusy}, true
			}
			burst = true
			return kernel.Segment{Kind: kernel.SegSleep, Dur: sim.Jitter(r, vmLoadPeriod, vmLoadJitter)}, true
		}))
}

// EvictVM removes cluster VM id's residency; its load program stops at
// its next segment boundary. A no-op for VMs not resident here.
func (m *Manager) EvictVM(id int) {
	if l, ok := m.vmLoads[id]; ok {
		l.stopped = true
		delete(m.vmLoads, id)
	}
}

// ResidentVMs returns how many placed VMs currently load this node.
func (m *Manager) ResidentVMs() int { return len(m.vmLoads) }

// DrainDeadLetters returns — and clears — the requests that
// dead-lettered since the last drain. In placed mode the placer owns
// resurrection: it re-places each drained request on a fresh member
// instead of the node-local requeue path pinning it here.
func (m *Manager) DrainDeadLetters() []*Request {
	d := m.placedDead
	m.placedDead = nil
	return d
}
