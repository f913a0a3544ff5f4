// Package workload implements the benchmark and application models of the
// paper's evaluation (Table 3): ping RTT, netperf (tcp_crr, udp_stream,
// tcp_stream, tcp_rr), sockperf (tcp CPS, udp latency), fio storage, and
// the MySQL/sysbench and Nginx/wrk application workloads. Every model
// drives a platform.Node's injection surface, so the same workload runs
// unchanged against Tai Chi, the static baseline, and the virtualization
// baselines.
package workload

import (
	"math/rand"

	"repro/internal/accel"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
)

// PingConfig parameterizes the RTT probe (Table 3: "ping").
type PingConfig struct {
	// Interval between echo requests.
	Interval sim.Duration
	// Count of echo requests to send.
	Count int
	// WireBase is the constant non-SmartNIC part of the RTT (host stacks,
	// switch, propagation). Calibrated so the static baseline lands on the
	// paper's 26 µs minimum.
	WireBase sim.Duration
	// WireJitterMean is the mean of the exponential wire-side jitter,
	// capped at WireJitterCap (reproduces the 26/30/38 µs min/avg/max).
	WireJitterMean sim.Duration
	WireJitterCap  sim.Duration
	// RxWork / TxWork are the DP software costs of the echo's two passes.
	RxWork sim.Duration
	TxWork sim.Duration
	// Flow selects the eNIC queue (and hence the DP core) the ping rides.
	Flow int
}

// DefaultPing mirrors Table 5's baseline distribution.
func DefaultPing() PingConfig {
	return PingConfig{
		Interval:       1 * sim.Millisecond,
		Count:          20000,
		WireBase:       18400 * sim.Nanosecond,
		WireJitterMean: 6 * sim.Microsecond,
		WireJitterCap:  12 * sim.Microsecond,
		RxWork:         600 * sim.Nanosecond,
		TxWork:         600 * sim.Nanosecond,
		Flow:           0,
	}
}

// Ping runs the RTT benchmark against a node.
type Ping struct {
	cfg  PingConfig
	node *platform.Node
	r    *rand.Rand

	// RTT collects round-trip times.
	RTT  *metrics.Histogram
	sent int
	done func()
}

// NewPing builds the benchmark (not yet started).
func NewPing(node *platform.Node, cfg PingConfig) *Ping {
	return &Ping{
		cfg:  cfg,
		node: node,
		r:    node.Stream("ping"),
		RTT:  metrics.NewHistogram("ping.rtt"),
	}
}

// Start begins sending echo requests; onDone (optional) fires after the
// last reply.
func (p *Ping) Start(onDone func()) {
	p.done = onDone
	p.node.Engine.Schedule(p.cfg.Interval, p.sendOne)
}

func (p *Ping) sendOne() {
	p.sent++
	start := p.node.Now()
	wire := p.cfg.WireBase + p.jitter()
	// Inbound pass: accelerator → network DP core.
	p.node.InjectNet(p.cfg.Flow, p.cfg.RxWork, func(_ *accel.Packet, _ sim.Time) {
		// Echo turnaround: outbound pass through the same DP core.
		p.node.InjectNet(p.cfg.Flow, p.cfg.TxWork, func(_ *accel.Packet, at sim.Time) {
			p.RTT.Record(at.Sub(start) + sim.Duration(wire))
			if p.sent >= p.cfg.Count {
				if p.done != nil {
					p.done()
				}
				return
			}
			p.node.Engine.Schedule(p.cfg.Interval, p.sendOne)
		})
	})
}

func (p *Ping) jitter() sim.Duration {
	j := sim.Exponential(p.r, p.cfg.WireJitterMean)
	if j > p.cfg.WireJitterCap {
		j = p.cfg.WireJitterCap
	}
	return j
}
