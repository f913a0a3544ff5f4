// Package taichi is the public facade of this repository's reproduction
// of "Tai Chi: A General High-Efficiency Scheduling Framework for
// SmartNICs in Hyperscale Clouds" (SOSP 2025).
//
// Tai Chi co-schedules control-plane (CP) tasks and data-plane (DP)
// services on a SmartNIC through hybrid virtualization: CP tasks run on
// virtual CPUs registered as native CPUs of the single SmartNIC OS, idle
// DP cores lend themselves out at microsecond granularity, and a
// hardware workload probe in the I/O accelerator reclaims a lent core
// *before* the packet that needs it finishes preprocessing — hiding the
// 2 µs VM-exit inside the 3.2 µs preprocessing window.
//
// Because the paper's substrate (a production SmartNIC and a Linux
// kernel module) is not reproducible in a portable library, the whole
// system runs inside a deterministic nanosecond-resolution discrete-event
// simulation; see DESIGN.md for the substitution argument and
// ARCHITECTURE.md for the package map. The simulation is exact and
// repeatable: same seed, same results — and multi-node analyses fan out
// across a worker pool (Scale.Workers, taichi-bench -parallel) without
// changing a single output byte.
//
// # Quick start
//
//	node := taichi.New(42)                  // assembled SmartNIC with Tai Chi
//	node.SpawnCP("job", myProgram)          // deploy an unmodified CP task
//	node.Run(taichi.Seconds(1))             // advance simulated time
//
// The examples/ directory contains runnable scenarios, cmd/taichi-bench
// regenerates every table and figure of the paper, and EXPERIMENTS.md
// records paper-versus-measured numbers.
package taichi

import (
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/platform"
	"repro/internal/sim"
)

// System is a fully assembled Tai Chi node: platform (accelerator, DP
// services, kernel) plus the hybrid-virtualization scheduler.
type System = core.TaiChi

// Config is the Tai Chi configuration surface (slice cap, adaptive time
// slice and yield switches, lock rescue, vCPU costs). The 8-vCPU pool is
// fixed.
type Config = core.Config

// Options configures the underlying platform (topology, DP cost models,
// hardware probe). The kernel and accelerator cost models are fixed.
// TryNewWithConfig rejects a negative or NaN DP cost field.
type Options = platform.Options

// StaticBaseline is the production static-partitioning deployment the
// paper compares against.
type StaticBaseline = baseline.Static

// Scale selects experiment runtime (Quick for smoke runs, Full for the
// recorded numbers).
type Scale = experiments.Scale

// Result is one experiment's rendered tables, series and raw values.
type Result = experiments.Result

// Experiment couples an experiment id with its harness.
type Experiment = experiments.Named

// FaultSpec declares per-class fault rates for the deterministic fault
// injector (probe misses, IPI loss, exit stalls, CP crashes, core
// offline events, ...). The zero value injects nothing.
type FaultSpec = faults.Spec

// FaultInjector wires a FaultSpec into a System and tallies injected
// faults per class.
type FaultInjector = faults.Injector

// Quick and Full are the standard experiment scales.
var (
	Quick = experiments.Quick
	Full  = experiments.Full
)

// New builds a production-like Tai Chi node with default topology
// (4 net + 4 storage + 4 CP cores, 8 vCPUs) and cost models.
func New(seed int64) *System { return core.NewDefault(seed) }

// NewWithConfig builds a Tai Chi node from explicit platform options and
// scheduler configuration. It panics on invalid input; TryNewWithConfig
// is the error-returning form.
func NewWithConfig(opts Options, cfg Config) *System {
	return core.New(platform.NewNode(opts), cfg)
}

// TryNewWithConfig builds a Tai Chi node from explicit platform options
// and scheduler configuration, reporting invalid topologies (no DP
// cores, duplicate core ids), negative or NaN DP cost-model fields and
// invalid scheduler configurations (negative vCPU costs, vCPU id
// collisions) as errors instead of panicking.
func TryNewWithConfig(opts Options, cfg Config) (*System, error) {
	node, err := platform.New(opts)
	if err != nil {
		return nil, err
	}
	return core.TryNew(node, cfg)
}

// NewStatic builds the static-partitioning baseline node.
func NewStatic(seed int64) *StaticBaseline { return baseline.NewStaticDefault(seed) }

// DefaultOptions returns the calibrated platform defaults (Table 4
// hardware shape, Figure 6 accelerator timing).
func DefaultOptions() Options { return platform.DefaultOptions() }

// DefaultConfig returns the paper's Tai Chi tuning (50 µs initial slice,
// adaptive yield, lock rescue, posted interrupts).
func DefaultConfig() Config { return core.DefaultConfig() }

// NewFaultInjector builds a deterministic fault injector; call Attach on
// a System to arm it (and the scheduler's graceful-degradation defense).
func NewFaultInjector(spec FaultSpec) *FaultInjector { return faults.NewInjector(spec) }

// ParseFaultSpec parses the -faults flag syntax ("probe-miss=0.2,..."),
// "default" for the standard chaos profile, or "off".
func ParseFaultSpec(text string) (FaultSpec, error) { return faults.ParseSpec(text) }

// DefaultFaultSpec returns the moderate mixed-fault chaos profile.
func DefaultFaultSpec() FaultSpec { return faults.DefaultSpec() }

// RetryPolicy governs the VM-startup request lifecycle: per-attempt
// deadlines, exponential backoff with deterministic jitter, and the
// dead-letter cap. The zero value disables retries entirely.
type RetryPolicy = cluster.RetryPolicy

// DefaultRetryPolicy returns the standard request-lifecycle tuning:
// three attempts, 500 ms attempt deadline, 20 ms base backoff doubling
// per retry with 20% deterministic jitter.
func DefaultRetryPolicy() RetryPolicy { return cluster.DefaultRetryPolicy() }

// AdmissionPolicy governs the deterministic admission gate on the
// VM-startup pipeline: a token bucket plus a CoDel-style queue-deadline
// shedder with strict-priority classes. The zero value disables the
// machinery entirely.
type AdmissionPolicy = cluster.AdmissionPolicy

// Priority is a VM-creation request's priority class (batch, normal,
// latency-critical). Shedding is strict-priority: batch sheds first,
// latency-critical last.
type Priority = cluster.Priority

// Priority classes, lowest (first to shed) to highest (last to shed).
const (
	PriorityBatch           = cluster.PriorityBatch
	PriorityNormal          = cluster.PriorityNormal
	PriorityLatencyCritical = cluster.PriorityLatencyCritical
)

// OverloadPolicy arms the node's brownout ladder (lending-pressure
// sampling, normal→throttle→shed→brownout escalation, hysteretic
// cooldown-gated de-escalation). It has no fields: the ladder's tuning
// is fixed.
type OverloadPolicy = core.OverloadPolicy

// OverloadState is the node's overload-ladder rung.
type OverloadState = core.OverloadState

// Overload rungs, in escalation order.
const (
	OverloadNormal   = core.OverloadNormal
	OverloadThrottle = core.OverloadThrottle
	OverloadShed     = core.OverloadShed
	OverloadBrownout = core.OverloadBrownout
)

// DefaultAdmissionPolicy returns the overload experiments' gate tuning:
// 24 admissions/s refill, burst 8, 400 ms base sojourn threshold with
// per-class and per-overload-level scaling.
func DefaultAdmissionPolicy() AdmissionPolicy { return cluster.DefaultAdmissionPolicy() }

// DefaultOverloadPolicy returns the brownout-ladder tuning used by the
// overload experiments.
func DefaultOverloadPolicy() OverloadPolicy { return core.DefaultOverloadPolicy() }

// DefaultClassify is the deterministic 50/40/10 batch/normal/latency-
// critical class mix, assigned by request id.
func DefaultClassify(id int) Priority { return cluster.DefaultClassify(id) }

// Experiments returns every table/figure harness in paper order.
func Experiments() []Experiment { return experiments.Registry() }

// ExperimentByID returns one harness ("fig11", "table5", ...), or nil.
func ExperimentByID(id string) *Experiment { return experiments.ByID(id) }

// Seconds converts seconds of simulated time to a sim.Time instant.
func Seconds(s float64) sim.Time { return sim.Time(s * float64(sim.Second)) }

// Milliseconds converts milliseconds of simulated time to a sim.Time
// instant.
func Milliseconds(ms float64) sim.Time { return sim.Time(ms * float64(sim.Millisecond)) }
