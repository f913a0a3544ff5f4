// Package faults is the deterministic fault-injection layer: a
// seed-driven chaos harness that perturbs the real component interfaces
// (hardware probe, IPI delivery, VM-exit latency, CP task programs,
// non-preemptible sections, DP core availability) through hooks those
// components expose, while leaving the zero-fault event stream completely
// untouched. All randomness comes from named sim.RNG streams — one per
// fault class — so runs are reproducible bit-for-bit and fault classes
// can be toggled independently without perturbing each other's draws.
package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
)

// Spec declares fault rates and intensities for every injectable class.
// The zero value injects nothing; Attach with a zero Spec is a complete
// no-op (no hooks, no events, no RNG streams).
type Spec struct {
	// ProbeMissRate is the probability that one hardware-probe IRQ is
	// silently lost — the probe saw traffic for a V-state core but the
	// interrupt never reached the scheduler.
	ProbeMissRate float64
	// SpuriousReclaimMTBF is the mean time between spurious probe IRQs
	// (reclaims with no traffic behind them); 0 disables.
	SpuriousReclaimMTBF sim.Duration

	// IPIDropRate is the probability one kernel IPI is lost in delivery.
	IPIDropRate float64
	// IPIDelayRate / IPIDelayMean: probability an IPI is late, and the
	// mean of the exponential extra latency.
	IPIDelayRate float64
	IPIDelayMean sim.Duration

	// ExitStallRate / ExitStallMean: probability a VM-exit overstays the
	// ~2 µs envelope, and the mean exponential overstay.
	ExitStallRate float64
	ExitStallMean sim.Duration

	// CPCrashRate is the per-segment-boundary probability a wrapped CP
	// task dies. CPHangRate / CPHangMean: probability the task wedges in
	// a long busy segment instead, with the given mean length.
	CPCrashRate float64
	CPHangRate  float64
	CPHangMean  sim.Duration

	// LockStallRate / LockStallMean: probability a non-preemptible
	// section (driver routine or spinlock hold) overstays, and the mean
	// exponential stretch.
	LockStallRate float64
	LockStallMean sim.Duration

	// CoreOfflineMTBF / CoreOfflineMean: mean time between DP core
	// offline events, and the mean outage length; 0 disables.
	CoreOfflineMTBF sim.Duration
	CoreOfflineMean sim.Duration

	// ProvisionNackRate is the probability a CP→DP device-configuration
	// op is refused by the DP service (provisioning NACK): the op's done
	// callback reports failure promptly and the attempt fails fast.
	ProvisionNackRate float64
	// PartialInitRate is the probability a configuration op is applied by
	// the DP but its completion ack is lost — partial device init. The
	// issuing job wedges in its ack wait until the request layer's
	// attempt deadline (or the breaker's ack timeout) fires.
	PartialInitRate float64
	// CoordTimeoutRate is the probability an op is lost before reaching
	// the DP service at all (coordinator timeout): no work done, no ack.
	CoordTimeoutRate float64
}

// DefaultSpec is a moderate mixed-fault profile, the ×1.0 level of the
// chaos experiment's fault-rate sweep.
func DefaultSpec() Spec {
	return Spec{
		ProbeMissRate:       0.05,
		SpuriousReclaimMTBF: 2 * sim.Millisecond,
		IPIDropRate:         0.02,
		IPIDelayRate:        0.05,
		IPIDelayMean:        20 * sim.Microsecond,
		ExitStallRate:       0.05,
		ExitStallMean:       20 * sim.Microsecond,
		CPCrashRate:         0.0002,
		CPHangRate:          0.0005,
		CPHangMean:          2 * sim.Millisecond,
		LockStallRate:       0.02,
		LockStallMean:       50 * sim.Microsecond,
		CoreOfflineMTBF:     50 * sim.Millisecond,
		CoreOfflineMean:     5 * sim.Millisecond,
		ProvisionNackRate:   0.02,
		PartialInitRate:     0.01,
		CoordTimeoutRate:    0.01,
	}
}

// Zero reports whether the spec injects nothing (all rates and MTBFs
// zero; mean fields alone do not arm anything).
func (s Spec) Zero() bool {
	return s.ProbeMissRate == 0 && s.SpuriousReclaimMTBF == 0 &&
		s.IPIDropRate == 0 && s.IPIDelayRate == 0 &&
		s.ExitStallRate == 0 && s.CPCrashRate == 0 && s.CPHangRate == 0 &&
		s.LockStallRate == 0 && s.CoreOfflineMTBF == 0 &&
		s.ProvisionNackRate == 0 && s.PartialInitRate == 0 && s.CoordTimeoutRate == 0
}

// CoordFaultsArmed reports whether any CP→DP coordination fault class is
// armed (NACK, partial init, coordinator timeout) — the classes that
// make Attach interpose a coordinator wrapper and a circuit breaker.
func (s Spec) CoordFaultsArmed() bool {
	return s.ProvisionNackRate > 0 || s.PartialInitRate > 0 || s.CoordTimeoutRate > 0
}

// Scaled multiplies every fault rate by f (capped at 1) and divides
// every MTBF by f, keeping intensity means unchanged — the fault-rate
// sweep's level knob. f <= 0 yields the zero spec.
func (s Spec) Scaled(f float64) Spec {
	if f <= 0 {
		return Spec{}
	}
	rate := func(r float64) float64 {
		r *= f
		if r > 1 {
			r = 1
		}
		return r
	}
	mtbf := func(d sim.Duration) sim.Duration {
		if d <= 0 {
			return 0
		}
		out := sim.Duration(float64(d) / f)
		if out < 1 {
			out = 1
		}
		return out
	}
	out := s
	out.ProbeMissRate = rate(s.ProbeMissRate)
	out.SpuriousReclaimMTBF = mtbf(s.SpuriousReclaimMTBF)
	out.IPIDropRate = rate(s.IPIDropRate)
	out.IPIDelayRate = rate(s.IPIDelayRate)
	out.ExitStallRate = rate(s.ExitStallRate)
	out.CPCrashRate = rate(s.CPCrashRate)
	out.CPHangRate = rate(s.CPHangRate)
	out.LockStallRate = rate(s.LockStallRate)
	out.CoreOfflineMTBF = mtbf(s.CoreOfflineMTBF)
	out.ProvisionNackRate = rate(s.ProvisionNackRate)
	out.PartialInitRate = rate(s.PartialInitRate)
	out.CoordTimeoutRate = rate(s.CoordTimeoutRate)
	return out
}

// applyMeanDefaults fills intensity means for classes whose rate is
// armed but whose mean was left zero.
func (s *Spec) applyMeanDefaults() {
	d := DefaultSpec()
	if s.IPIDelayRate > 0 && s.IPIDelayMean == 0 {
		s.IPIDelayMean = d.IPIDelayMean
	}
	if s.ExitStallRate > 0 && s.ExitStallMean == 0 {
		s.ExitStallMean = d.ExitStallMean
	}
	if s.CPHangRate > 0 && s.CPHangMean == 0 {
		s.CPHangMean = d.CPHangMean
	}
	if s.LockStallRate > 0 && s.LockStallMean == 0 {
		s.LockStallMean = d.LockStallMean
	}
	if s.CoreOfflineMTBF > 0 && s.CoreOfflineMean == 0 {
		s.CoreOfflineMean = d.CoreOfflineMean
	}
}

// ParseSpec parses the -faults flag syntax: a comma-separated list of
// key=value pairs, e.g.
//
//	probe-miss=0.2,ipi-drop=0.05,offline-mtbf=20ms
//
// Rates are probabilities in [0,1]; durations use Go syntax ("50us",
// "2ms"). The words "off", "none", or an empty string give the zero
// spec; "default" (or "chaos") gives DefaultSpec. A key may appear
// at most once. Keys:
//
//	probe-miss      spurious-mtbf
//	ipi-drop        ipi-delay       ipi-delay-mean
//	exit-stall      exit-stall-mean
//	cp-crash        cp-hang         cp-hang-mean
//	lock-stall      lock-stall-mean
//	offline-mtbf    offline-mean
//	nack            partial-init    coord-timeout
func ParseSpec(text string) (Spec, error) {
	var s Spec
	switch strings.TrimSpace(text) {
	case "", "off", "none":
		return s, nil
	case "default", "chaos":
		return DefaultSpec(), nil
	}
	seen := map[string]bool{}
	for _, part := range strings.Split(text, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return Spec{}, fmt.Errorf("faults: %q is not key=value", part)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if seen[key] {
			return Spec{}, fmt.Errorf("faults: %s: key given twice", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "probe-miss":
			s.ProbeMissRate, err = parseRate(val)
		case "spurious-mtbf":
			s.SpuriousReclaimMTBF, err = parseDur(val)
		case "ipi-drop":
			s.IPIDropRate, err = parseRate(val)
		case "ipi-delay":
			s.IPIDelayRate, err = parseRate(val)
		case "ipi-delay-mean":
			s.IPIDelayMean, err = parseDur(val)
		case "exit-stall":
			s.ExitStallRate, err = parseRate(val)
		case "exit-stall-mean":
			s.ExitStallMean, err = parseDur(val)
		case "cp-crash":
			s.CPCrashRate, err = parseRate(val)
		case "cp-hang":
			s.CPHangRate, err = parseRate(val)
		case "cp-hang-mean":
			s.CPHangMean, err = parseDur(val)
		case "lock-stall":
			s.LockStallRate, err = parseRate(val)
		case "lock-stall-mean":
			s.LockStallMean, err = parseDur(val)
		case "offline-mtbf":
			s.CoreOfflineMTBF, err = parseDur(val)
		case "offline-mean":
			s.CoreOfflineMean, err = parseDur(val)
		case "nack":
			s.ProvisionNackRate, err = parseRate(val)
		case "partial-init":
			s.PartialInitRate, err = parseRate(val)
		case "coord-timeout":
			s.CoordTimeoutRate, err = parseRate(val)
		default:
			return Spec{}, fmt.Errorf("faults: unknown key %q", key)
		}
		if err != nil {
			return Spec{}, fmt.Errorf("faults: %s: %w", key, err)
		}
	}
	return s, nil
}

func parseRate(val string) (float64, error) {
	r, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, fmt.Errorf("bad rate %q", val)
	}
	if !(r >= 0 && r <= 1) { // also rejects NaN
		return 0, fmt.Errorf("rate %v outside [0,1]", r)
	}
	return r, nil
}

func parseDur(val string) (sim.Duration, error) {
	d, err := time.ParseDuration(val)
	if err != nil {
		return 0, fmt.Errorf("bad duration %q", val)
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %q", val)
	}
	return sim.Duration(d.Nanoseconds()), nil
}
