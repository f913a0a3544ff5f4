package core

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/accel"
	"repro/internal/controlplane"
	"repro/internal/dataplane"
	"repro/internal/kernel"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vcpu"
)

// TaiChi is a fully assembled Tai Chi node: the platform (accelerator,
// DP services, native OS on the CP cores) plus the hybrid-virtualization
// scheduling framework.
type TaiChi struct {
	Node  *platform.Node
	Sched *Scheduler
	Cfg   Config

	// DriverLock is the shared device-driver lock CP tasks contend on —
	// the source of the paper's Figure 4 latency-spike anatomy.
	DriverLock *kernel.SpinLock

	coord controlplane.DPCoordinator
	// Breaker is the circuit breaker on the CP→DP coordination path, nil
	// until InstallBreaker wires one in (the fault injector does this when
	// coordinator fault classes are armed).
	Breaker *controlplane.Breaker
	// audit is the audit currently holding the dedicated auditing vCPU
	// (nil when none); StartAudit refuses a second concurrent audit.
	audit *Audit
}

// New mounts Tai Chi onto a platform node.
func New(node *platform.Node, cfg Config) *TaiChi {
	t := &TaiChi{
		Node:       node,
		Sched:      NewScheduler(node, cfg),
		Cfg:        cfg,
		DriverLock: kernel.NewSpinLock("driver"),
	}
	// Static fallback suspends lending, so vCPUs — including a dedicated
	// audit vCPU — stop being hosted; brownout suspends optional work, and
	// an audit holding a pinned vCPU is load the node can no longer
	// afford. Either way an active audit is detached gracefully (affinity
	// restored to the CP pCPUs) or its pinned thread would starve.
	t.Sched.OnSuspend = func() {
		if t.audit != nil && t.audit.Active() {
			t.audit.Stop()
		}
	}
	return t
}

// TryNew is New with the configuration-error paths surfaced as errors
// instead of panics: an empty vCPU pool and vCPU logical-id collisions
// with CPUs the kernel already owns are caller mistakes a long-running
// harness should be able to report, not die on.
func TryNew(node *platform.Node, cfg Config) (*TaiChi, error) {
	if cfg.VCPUs <= 0 {
		return nil, fmt.Errorf("core: config needs at least one vCPU (got %d)", cfg.VCPUs)
	}
	for i := 0; i < cfg.VCPUs; i++ {
		id := cfg.VCPUBaseID + kernel.CPUID(i)
		if node.Kernel.CPU(id) != nil {
			return nil, fmt.Errorf("core: vCPU logical id %d collides with an existing CPU", id)
		}
	}
	return New(node, cfg), nil
}

// NewDefault builds a production-like Tai Chi node in one call.
func NewDefault(seed int64) *TaiChi {
	opts := platform.DefaultOptions()
	opts.Seed = seed
	return New(platform.NewNode(opts), DefaultConfig())
}

// Describe renders a deterministic plain-text summary of the node's
// scheduler, kernel, dataplane, and vCPU state. It is the regression
// surface of the fault-injection layer: a zero-fault run with the
// injector attached must produce byte-identical output to a run without
// it, so the defense counters are always printed (all zero when the
// machinery never armed).
func (t *TaiChi) Describe() string {
	var b strings.Builder
	s := t.Sched
	k := t.Node.Kernel
	fmt.Fprintf(&b, "taichi: yields=%d preempts=%d rescues=%d rotations=%d\n",
		s.Yields.Value(), s.Preempts.Value(), s.Rescues.Value(), s.Rotations.Value())
	pl := s.PreemptLatency
	fmt.Fprintf(&b, "preempt-latency: n=%d mean=%v p99=%v max=%v\n",
		pl.Count(), pl.Mean(), pl.Quantile(0.99), pl.Max())
	fmt.Fprintf(&b, "kernel: ctx=%d ipis=%d deferred=%d dropped=%d preemptions=%d watchdog-kicks=%d\n",
		k.CtxSwitches.Value(), k.IPIsSent.Value(), k.IPIsDeferred.Value(),
		k.IPIsDropped.Value(), k.Preemptions.Value(), k.WatchdogKicks.Value())
	var entries, teardowns uint64
	var exits [5]uint64
	for _, v := range s.vcpus {
		entries += v.Entries
		teardowns += v.Teardowns
		for i, n := range v.ExitsByWhy {
			exits[i] += n
		}
	}
	fmt.Fprintf(&b, "vcpus: entries=%d exits timer=%d probe=%d halt=%d ipi=%d forced=%d teardowns=%d\n",
		entries, exits[vcpu.ExitTimer], exits[vcpu.ExitProbe], exits[vcpu.ExitHalt],
		exits[vcpu.ExitIPI], exits[vcpu.ExitForced], teardowns)
	for _, id := range s.order {
		dp := s.slots[id].dp
		fmt.Fprintf(&b, "dp.core%d: processed=%d yields=%d resumes=%d maxq=%d\n",
			id, dp.Processed, dp.Yields, dp.Resumes, dp.MaxQueueLen)
	}
	fmt.Fprintf(&b, "defense: mode=%s detected=%d recovered=%d retries=%d teardowns=%d probe-fallbacks=%d static-fallbacks=%d\n",
		s.DefenseMode(), s.FaultsDetected.Value(), s.FaultsRecovered.Value(),
		s.WatchdogRetries.Value(), s.WatchdogTeardowns.Value(),
		s.ProbeFallbacks.Value(), s.StaticFallbacks.Value())
	// The recovery line is always printed for the same reason as the
	// defense line: byte-identity between armed-but-idle and unarmed runs.
	rs := s.RecoveryStats()
	fmt.Fprintf(&b, "recovery: recoveries=%d reescalations=%d generation=%d rejoined=%v\n",
		s.DefenseRecoveries.Value(), s.Reescalations.Value(), rs.Generation, rs.Rejoined)
	// The overload line is always printed for the same reason: an
	// armed-but-idle ladder renders the identical all-normal line.
	os := s.OverloadStats()
	fmt.Fprintf(&b, "overload: state=%s peak=%s enters=%d exits=%d\n",
		s.OverloadState(), os.Peak, s.OverloadEnters.Value(), s.OverloadExits.Value())
	// Like the defense counters, the breaker line is always printed: a
	// node that never installed one renders the identical zero line.
	if t.Breaker != nil {
		fmt.Fprintf(&b, "%s\n", t.Breaker.Describe())
	} else {
		fmt.Fprintf(&b, "%s\n", controlplane.ZeroBreakerLine())
	}
	// Self-profiling lines appear only when a profile was explicitly
	// installed (sim.Engine.EnableProfile); default runs keep the exact
	// historical Describe bytes.
	if p := t.Node.Engine.Profile(); p != nil {
		b.WriteString(p.Describe())
	}
	return b.String()
}

// CPAffinity returns the logical CPUs CP tasks are bound to: the vCPU
// pool plus the dedicated CP pCPUs — exactly the production deployment
// of §5 ("binding them to vCPUs and CP-dedicated physical CPUs through
// standard CPU affinity configuration").
func (t *TaiChi) CPAffinity() []kernel.CPUID {
	var ids []kernel.CPUID
	for _, c := range t.Node.Opts.Topology.CPCores {
		ids = append(ids, kernel.CPUID(c))
	}
	return append(ids, t.Sched.VCPUIDs()...)
}

// SpawnCP deploys an unmodified CP task under Tai Chi: a plain kernel
// thread whose affinity mask covers the vCPUs and CP pCPUs. No code
// changes — the transparency claim of §4.2.
func (t *TaiChi) SpawnCP(name string, prog kernel.Program) *kernel.Thread {
	return t.Node.Kernel.Spawn(name, prog, t.CPAffinity()...)
}

// Stream returns a deterministic RNG stream for a named workload.
func (t *TaiChi) Stream(name string) *rand.Rand { return t.Node.RNG.Stream(name) }

// Tracer exposes the node's event tracer (cluster.Host).
func (t *TaiChi) Tracer() *trace.Tracer { return t.Node.Tracer }

// Run advances simulated time.
func (t *TaiChi) Run(until sim.Time) { t.Node.Run(until) }

// Engine exposes the node's event engine (cluster.Host).
func (t *TaiChi) Engine() *sim.Engine { return t.Node.Engine }

// Lock returns the shared device-driver lock (cluster.Host).
func (t *TaiChi) Lock() *kernel.SpinLock { return t.DriverLock }

// Coordinator returns the native CP→DP configuration path (cluster.Host).
func (t *TaiChi) Coordinator() controlplane.DPCoordinator {
	if t.coord == nil {
		t.coord = NewNetCoordinator(t.Node)
	}
	return t.coord
}

// SetCoordinator replaces the CP→DP coordination path. The fault
// injector uses it to interpose NACK/timeout fault wrappers between CP
// jobs and the native coordinator; tests use it to install fakes.
func (t *TaiChi) SetCoordinator(c controlplane.DPCoordinator) { t.coord = c }

// InstallBreaker wraps the current coordinator with a circuit breaker so
// every subsequent Coordinator() caller goes through it. Idempotent: a
// second call leaves the existing breaker in place.
func (t *TaiChi) InstallBreaker(cfg controlplane.BreakerConfig) *controlplane.Breaker {
	if t.Breaker == nil {
		t.Breaker = controlplane.NewBreaker(t.Node.Engine, t.Coordinator(), cfg)
		t.coord = t.Breaker
	}
	return t.Breaker
}

// NativeCoordinator implements controlplane.DPCoordinator over Tai Chi's
// native IPC path: the device-configuration op rides the normal
// accelerator→DP pipeline and the completion signals the CP thread
// directly (shared memory + IPI semantics, zero framework overhead).
type NativeCoordinator struct {
	Node    *platform.Node
	Service *dataplane.Service
	// OpWork is the DP-side cost of applying one queue configuration.
	OpWork sim.Duration
}

// NewNetCoordinator returns a coordinator targeting the network service.
func NewNetCoordinator(node *platform.Node) *NativeCoordinator {
	return &NativeCoordinator{Node: node, Service: node.Net, OpWork: 5 * sim.Microsecond}
}

// NewStorCoordinator returns a coordinator targeting the storage service.
func NewStorCoordinator(node *platform.Node) *NativeCoordinator {
	return &NativeCoordinator{Node: node, Service: node.Stor, OpWork: 5 * sim.Microsecond}
}

// ConfigureDevice implements controlplane.DPCoordinator; native IPC never
// NACKs.
func (c *NativeCoordinator) ConfigureDevice(flow int, done func(ok bool)) {
	core := c.Service.CoreForFlow(flow)
	c.Node.Pipe.Inject(&accel.Packet{
		Core: core.ID,
		Work: c.OpWork,
		Done: func(*accel.Packet, sim.Time) { done(true) },
	})
}

// RPCCoordinator wraps a coordinator with the marshalling/transport
// penalty of replacing native IPC with RPC — the type-2 virtualization
// cost of §3.4 (guest CP must cross virtio/vsock to reach the DP). Each
// round trip pays two hops, the request and the reply.
type RPCCoordinator struct {
	Inner  controlplane.DPCoordinator
	Engine *sim.Engine
	PerHop sim.Duration // one-way transport+marshalling cost
}

// ConfigureDevice implements controlplane.DPCoordinator with an RPC hop
// on both the request and the reply; the reply carries the inner
// coordinator's outcome.
func (c *RPCCoordinator) ConfigureDevice(flow int, done func(ok bool)) {
	c.Engine.ScheduleNamed(c.PerHop, "core.rpc-hop", func() {
		c.Inner.ConfigureDevice(flow, func(ok bool) {
			c.Engine.ScheduleNamed(c.PerHop, "core.rpc-hop", func() { done(ok) })
		})
	})
}
