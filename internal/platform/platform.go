// Package platform assembles a simulated SmartNIC node: the event engine,
// tracer, native OS kernel on the CP cores, the programmable accelerator
// pipeline (with or without the hardware workload probe), and the
// network/storage data-plane services on the DP cores. The default
// topology and cost models are the paper's hardware shape (Table 4,
// §6.1: 12 cores partitioned 8 DP + 4 CP; Figure 6 accelerator timing).
// It supplies mechanism only; scheduling policy (Tai Chi, static
// partitioning, the virtualization baselines) is mounted on top by
// internal/core and internal/baseline. A Node confines all of its state
// to itself — no package-level mutability — so independently-seeded
// nodes can run concurrently on the internal/fleet worker pool.
package platform

import (
	"fmt"
	"math/rand"

	"repro/internal/accel"
	"repro/internal/dataplane"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Topology fixes which physical cores do what. The default mirrors the
// paper's production partitioning (§6.1): 12 SmartNIC cores, 8 reserved
// for DP (split between networking and storage) and 4 for CP.
type Topology struct {
	NetCores  []int
	StorCores []int
	CPCores   []int
}

// DefaultTopology returns the 4 net + 4 storage + 4 CP split.
func DefaultTopology() Topology {
	return Topology{
		NetCores:  []int{0, 1, 2, 3},
		StorCores: []int{4, 5, 6, 7},
		CPCores:   []int{8, 9, 10, 11},
	}
}

// DPCores returns all data-plane core ids (net then storage).
func (t Topology) DPCores() []int {
	out := append([]int{}, t.NetCores...)
	return append(out, t.StorCores...)
}

// Options configures node assembly.
type Options struct {
	Seed     int64
	Topology Topology
	// Kernel is the OS cost model.
	Kernel kernel.Config
	// Net / Stor are the per-service DP cost models.
	Net  dataplane.Config
	Stor dataplane.Config
	// Accel is the pipeline timing (Figure 6).
	Accel accel.Config
	// HWProbe fits the hardware workload probe into the accelerator.
	HWProbe bool
	// ProbeIRQLatency is the accelerator→CPU interrupt latency.
	ProbeIRQLatency sim.Duration
	// TraceLimit caps stored trace events (0 = unlimited).
	TraceLimit int
	// TraceKinds restricts tracing to the given kinds. When nil and
	// TraceAll is false, a default set excluding the per-packet lifecycle
	// kinds applies — packet events dominate event volume (four per
	// packet at millions of packets per second) and only the Figure 6
	// breakdown needs them.
	TraceKinds []trace.Kind
	// TraceAll records every kind, including packet lifecycle events.
	TraceAll bool
}

// DefaultOptions returns a production-like node configuration with
// calibrated per-packet costs: ~1 µs of DP software work per network
// packet and ~4 µs per 4 KB storage command.
func DefaultOptions() Options {
	net := dataplane.DefaultConfig()
	stor := dataplane.DefaultConfig()
	stor.EmptyPollCost = 120 * sim.Nanosecond
	return Options{
		Seed:            1,
		Topology:        DefaultTopology(),
		Kernel:          kernel.DefaultConfig(),
		Net:             net,
		Stor:            stor,
		Accel:           accel.DefaultConfig(),
		HWProbe:         true,
		ProbeIRQLatency: 500 * sim.Nanosecond,
	}
}

// DefaultTraceKinds returns every trace kind except the per-packet
// lifecycle events, whose volume would dwarf everything else.
func DefaultTraceKinds() []trace.Kind {
	var out []trace.Kind
	for _, k := range trace.Kinds() {
		switch k {
		case trace.KindPacketArrive, trace.KindPacketPreprocessDone,
			trace.KindPacketDelivered, trace.KindPacketProcessed:
			continue
		}
		out = append(out, k)
	}
	return out
}

// Node is one assembled SmartNIC.
type Node struct {
	Opts   Options
	Engine *sim.Engine
	RNG    *sim.RNG
	Tracer *trace.Tracer
	Kernel *kernel.Kernel
	Net    *dataplane.Service
	Stor   *dataplane.Service
	Pipe   *accel.Pipeline
	Probe  *accel.Probe // nil unless Options.HWProbe

	// byCore indexes the data-plane cores by physical id; nil where an id
	// is not a DP core.
	byCore []*dataplane.Core
}

// NewNode assembles a SmartNIC from options. It panics on an invalid
// topology; New is the error-returning form for options that arrive from
// config or flags.
func NewNode(opts Options) *Node {
	n, err := New(opts)
	if err != nil {
		panic(err.Error())
	}
	return n
}

// validateTopology checks the core layout: at least one DP core, no
// negative core id (per-core tables are slices indexed by id), and no
// physical core id claimed twice (within or across the net, storage, and
// CP sets).
func validateTopology(t Topology) error {
	if len(t.NetCores) == 0 && len(t.StorCores) == 0 {
		return fmt.Errorf("platform: topology has no DP cores")
	}
	seen := map[int]string{}
	claim := func(set string, ids []int) error {
		for _, id := range ids {
			if id < 0 {
				return fmt.Errorf("platform: %s core id %d is negative", set, id)
			}
			if prev, dup := seen[id]; dup {
				return fmt.Errorf("platform: core %d claimed by both %s and %s", id, prev, set)
			}
			seen[id] = set
		}
		return nil
	}
	for _, s := range []struct {
		name string
		ids  []int
	}{{"net", t.NetCores}, {"stor", t.StorCores}, {"cp", t.CPCores}} {
		if err := claim(s.name, s.ids); err != nil {
			return err
		}
	}
	return nil
}

// New assembles a SmartNIC from options, reporting an invalid topology
// as an error instead of panicking.
func New(opts Options) (*Node, error) {
	if err := validateTopology(opts.Topology); err != nil {
		return nil, err
	}
	engine := sim.NewEngine()
	tracer := trace.New(opts.TraceLimit)
	switch {
	case opts.TraceAll:
		// record everything
	case len(opts.TraceKinds) > 0:
		tracer.EnableOnly(opts.TraceKinds...)
	default:
		tracer.EnableOnly(DefaultTraceKinds()...)
	}
	n := &Node{
		Opts:   opts,
		Engine: engine,
		RNG:    sim.NewRNG(opts.Seed),
		Tracer: tracer,
		Kernel: kernel.New(engine, opts.Kernel, tracer),
	}
	for _, id := range opts.Topology.CPCores {
		n.Kernel.AddCPU(kernel.CPUID(id), false)
	}
	if len(opts.Topology.NetCores) > 0 {
		n.Net = dataplane.NewService(engine, "net", opts.Topology.NetCores, opts.Net, tracer)
		n.addDPCores(n.Net.Cores())
	}
	if len(opts.Topology.StorCores) > 0 {
		n.Stor = dataplane.NewService(engine, "stor", opts.Topology.StorCores, opts.Stor, tracer)
		n.addDPCores(n.Stor.Cores())
	}
	if opts.HWProbe {
		n.Probe = accel.NewProbe(opts.ProbeIRQLatency)
	}
	n.Pipe = accel.NewPipeline(engine, opts.Accel, n.Probe, tracer, func(core int, p *accel.Packet) {
		c := n.DPCore(core)
		if c == nil {
			// Genuine internal invariant: the pipeline only routes to cores
			// registered above, so this is a mis-wired experiment.
			panic(fmt.Sprintf("platform: packet for unknown DP core %d", core))
		}
		c.Deliver(p)
	})
	return n, nil
}

// addDPCores files cores in byCore under their ids, which
// validateTopology has checked are non-negative and distinct.
func (n *Node) addDPCores(cores []*dataplane.Core) {
	for _, c := range cores {
		if c.ID >= len(n.byCore) {
			n.byCore = append(n.byCore, make([]*dataplane.Core, c.ID+1-len(n.byCore))...)
		}
		n.byCore[c.ID] = c
	}
}

// DPCore returns the data-plane core with the given physical id, or nil.
func (n *Node) DPCore(id int) *dataplane.Core {
	if id < 0 || id >= len(n.byCore) {
		return nil
	}
	return n.byCore[id]
}

// DPCores returns every data-plane core (net then storage order).
func (n *Node) DPCores() []*dataplane.Core {
	var out []*dataplane.Core
	if n.Net != nil {
		out = append(out, n.Net.Cores()...)
	}
	if n.Stor != nil {
		out = append(out, n.Stor.Cores()...)
	}
	return out
}

// InjectNet sends a network packet for the given flow through the
// accelerator into the network DP service.
func (n *Node) InjectNet(flow int, work sim.Duration, done func(p *accel.Packet, at sim.Time)) {
	core := n.Net.CoreForFlow(flow)
	n.Pipe.Inject(&accel.Packet{Core: core.ID, Work: work, Done: done})
}

// InjectStor sends a storage command for the given flow through the
// accelerator into the storage DP service.
func (n *Node) InjectStor(flow int, work sim.Duration, done func(p *accel.Packet, at sim.Time)) {
	core := n.Stor.CoreForFlow(flow)
	n.Pipe.Inject(&accel.Packet{Core: core.ID, Work: work, Done: done})
}

// Stream returns a deterministic RNG stream for a named workload.
func (n *Node) Stream(name string) *rand.Rand { return n.RNG.Stream(name) }

// Run advances the node's simulation to the given instant.
func (n *Node) Run(until sim.Time) { n.Engine.Run(until) }

// Now returns the node's simulated clock.
func (n *Node) Now() sim.Time { return n.Engine.Now() }
