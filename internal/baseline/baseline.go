// Package baseline implements the comparison systems of the paper's
// evaluation (§6.1, §6.3):
//
//   - Static: the production static-partitioning deployment (8 DP + 4 CP
//     physical cores, no co-scheduling) — the paper's primary baseline;
//   - Type1 ("Tai Chi-vDP"): identical to Tai Chi except the data plane
//     itself runs in vCPU contexts, paying the nested-page-table/VM-exit
//     tax on every packet (~7%);
//   - Type2 (QEMU+KVM): a Static node whose control plane is isolated in
//     a separate guest OS — device emulation and the guest kernel
//     permanently occupy DP cores, and every CP↔DP interaction crosses an
//     RPC hop because native IPC semantics are broken;
//   - Naive: co-scheduling CP tasks onto idle DP cycles *without*
//     virtualization — preemption must wait out non-preemptible kernel
//     routines, reproducing the ms-scale latency spikes of Figure 4.
package baseline

import (
	"math/rand"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Static is the production static-partitioning baseline: DP services own
// their cores outright and never yield; CP tasks run natively on the CP
// pCPUs under the stock kernel scheduler. NewType2 builds the type-2
// baseline as a Static too: fewer DP cores, an RPC coordinator.
type Static struct {
	Node       *platform.Node
	DriverLock *kernel.SpinLock

	coord controlplane.DPCoordinator
}

// NewStatic assembles the static baseline on a node. The node should be
// built with HWProbe=false (the probe is a Tai Chi addition).
func NewStatic(node *platform.Node) *Static {
	return &Static{Node: node, DriverLock: kernel.NewSpinLock("driver"), coord: core.NewNetCoordinator(node)}
}

// NewStaticDefault builds the default static baseline.
func NewStaticDefault(seed int64) *Static {
	opts := platform.DefaultOptions()
	opts.Seed = seed
	opts.HWProbe = false
	return NewStatic(platform.NewNode(opts))
}

// CPAffinity returns the CP pCPU ids.
func (b *Static) CPAffinity() []kernel.CPUID {
	var ids []kernel.CPUID
	for _, c := range b.Node.Opts.Topology.CPCores {
		ids = append(ids, kernel.CPUID(c))
	}
	return ids
}

// SpawnCP deploys a CP task on the statically partitioned CP cores.
func (b *Static) SpawnCP(name string, prog kernel.Program) *kernel.Thread {
	return b.Node.Kernel.Spawn(name, prog, b.CPAffinity()...)
}

// Run advances simulated time.
func (b *Static) Run(until sim.Time) { b.Node.Run(until) }

// Engine exposes the node's event engine (cluster.Host).
func (b *Static) Engine() *sim.Engine { return b.Node.Engine }

// Lock returns the shared device-driver lock (cluster.Host).
func (b *Static) Lock() *kernel.SpinLock { return b.DriverLock }

// Stream returns a deterministic RNG stream (cluster.Host).
func (b *Static) Stream(name string) *rand.Rand { return b.Node.RNG.Stream(name) }

// Tracer exposes the node's event tracer (cluster.Host).
func (b *Static) Tracer() *trace.Tracer { return b.Node.Tracer }

// Coordinator returns the CP→DP configuration path: native IPC, or the
// RPC path NewType2 installs (cluster.Host).
func (b *Static) Coordinator() controlplane.DPCoordinator { return b.coord }

// Type1Tax is the measured data-path virtualization tax of running DP
// services in vCPU contexts (§6.3: ~7% average).
const Type1Tax = 1.07

// NewType1 assembles the Tai Chi-vDP baseline: full Tai Chi, but the DP
// services pay the virtualization tax on every unit of work (they execute
// in non-root mode), modeling nested page tables and VM-exits on the I/O
// path.
func NewType1(seed int64) *core.TaiChi {
	opts := platform.DefaultOptions()
	opts.Seed = seed
	opts.Net.TaxFactor = Type1Tax
	opts.Stor.TaxFactor = Type1Tax
	return core.New(platform.NewNode(opts), core.DefaultConfig())
}

// RPCPerHop is the type-2 baseline's one-way virtio/vsock marshalling
// cost.
const RPCPerHop = 25 * sim.Microsecond

// NewType2 assembles the QEMU+KVM baseline: the CP lives in a guest OS
// whose device-emulation thread and guest kernel housekeeping permanently
// occupy one core of each DP service (the "at least one dedicated CPU"
// cost of §3.4, measured at ~26% DP degradation on the 4-core services),
// and CP↔DP coordination pays an RPC round trip. The guest's vCPUs are
// backed 1:1 by the CP pCPUs, and the guest scheduler is modeled by the
// same kernel mechanics, so CP placement is Static's.
func NewType2(seed int64) *Static {
	opts := platform.DefaultOptions()
	opts.Seed = seed
	opts.HWProbe = false
	topo := opts.Topology
	topo.NetCores = topo.NetCores[:len(topo.NetCores)-1]
	topo.StorCores = topo.StorCores[:len(topo.StorCores)-1]
	opts.Topology = topo
	b := NewStatic(platform.NewNode(opts))
	b.coord = &core.RPCCoordinator{
		Inner:  core.NewNetCoordinator(b.Node),
		Engine: b.Node.Engine,
		PerHop: RPCPerHop,
	}
	return b
}

// NewNaive assembles the "conventional co-scheduling" strawman: CP tasks
// borrow idle DP cycles without virtualization, so reclaiming the core
// must wait for non-preemptible routines to finish — Figure 4's T2→T3
// spike and Table 1's ms-scale granularity.
func NewNaive(seed int64) *core.TaiChi {
	opts := platform.DefaultOptions()
	opts.Seed = seed
	cfg := core.DefaultConfig()
	cfg.NaiveCoSchedule = true
	// Conventional context switches are cheaper than VM transitions; what
	// hurts is the wait for preemptibility.
	cfg.Costs.Entry = 500 * sim.Nanosecond
	cfg.Costs.Exit = 1 * sim.Microsecond
	return core.New(platform.NewNode(opts), cfg)
}
