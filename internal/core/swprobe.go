// Package core implements Tai Chi: the hybrid-virtualization scheduling
// framework of the paper. It mounts three components onto a
// platform.Node (§4, Figure 7b):
//
//   - the vCPU scheduler (scheduler.go): softirq-based pCPU↔vCPU context
//     switching on idle DP cores, the adaptive vCPU time slice, and safe
//     lock-context rescheduling;
//   - the unified IPI orchestrator (ipiorch.go): interception and routing
//     of every IPI so vCPUs behave as native CPUs of the single SmartNIC
//     OS, enabling unmodified CP tasks and native DP-CP IPC;
//   - the workload probes (swprobe.go + the hardware probe in
//     internal/accel): adaptive empty-poll yield detection on the DP
//     side, and early preemption IRQs that hide the 2 µs vCPU switch
//     inside the 3.2 µs accelerator preprocessing window.
package core

import "repro/internal/sim"

// Software-probe yield thresholds (§4.3, Figure 9): N starts at 200
// empty polls (~20 µs of confirmed idleness at 100 ns/poll) and adapts
// within [50, 1600]. The ceiling is deliberately modest: even when every
// yield gets punished by an immediate preemption, the framework keeps
// offering sub-200µs idle gaps to the control plane rather than starving
// it — the CP has SLOs too (§3.1), and the hardware probe keeps the cost
// of a "wrong" yield at ~2 µs.
const (
	initialYieldThreshold = 200
	minYieldThreshold     = 50
	maxYieldThreshold     = 1600
)

// SWProbe is the software workload probe: it owns the per-DP-core
// empty-poll yield threshold and adapts it from VM-exit reasons — more
// eager after sustained idleness (slice-timer exits), more conservative
// after false-positive yields (hardware-probe exits).
type SWProbe struct {
	// adaptive enables threshold adaptation; false freezes N at the
	// initial value (the fixed-threshold ablation).
	adaptive bool
	// thresholds holds N per DP core id; zero (never a valid N) stands
	// for the initial value, so the slice grows only on adaptation.
	thresholds []int

	// Raises / Drops count adaptation steps, for the ablation bench.
	Raises uint64
	Drops  uint64
}

// NewSWProbe returns a probe with every core at the initial threshold;
// adaptive=false freezes it there.
func NewSWProbe(adaptive bool) *SWProbe {
	return &SWProbe{adaptive: adaptive}
}

// Threshold returns core's current consecutive-empty-poll yield threshold.
func (p *SWProbe) Threshold(core int) int {
	if uint(core) < uint(len(p.thresholds)) && p.thresholds[core] != 0 {
		return p.thresholds[core]
	}
	return initialYieldThreshold
}

// set records core's threshold n.
func (p *SWProbe) set(core, n int) {
	for len(p.thresholds) <= core {
		p.thresholds = append(p.thresholds, 0)
	}
	p.thresholds[core] = n
}

// IdleWindow converts the threshold into the countdown duration for a
// given per-poll cost, the quantity the DP core actually arms.
func (p *SWProbe) IdleWindow(core int, pollCost sim.Duration) sim.Duration {
	return sim.Duration(p.Threshold(core)) * pollCost
}

// SustainedIdle records a slice-timer VM-exit on the core: the DP stayed
// idle through a whole vCPU slice, so idleness detection can be more
// eager (N decreases).
func (p *SWProbe) SustainedIdle(core int) {
	if !p.adaptive {
		return
	}
	n := p.Threshold(core) / 2
	if n < minYieldThreshold {
		n = minYieldThreshold
	}
	if n != p.Threshold(core) {
		p.Drops++
	}
	p.set(core, n)
}

// FalsePositive records a hardware-probe VM-exit on the core: the yield
// was premature (I/O arrived), so idleness detection must be more
// conservative (N increases).
func (p *SWProbe) FalsePositive(core int) {
	if !p.adaptive {
		return
	}
	n := p.Threshold(core) * 2
	if n > maxYieldThreshold {
		n = maxYieldThreshold
	}
	if n != p.Threshold(core) {
		p.Raises++
	}
	p.set(core, n)
}
