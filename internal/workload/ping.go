// Package workload implements the benchmark and application models of the
// paper's evaluation (Table 3): ping RTT, netperf (tcp_crr, udp_stream,
// tcp_stream, tcp_rr), sockperf (tcp CPS, udp latency), fio storage, and
// the MySQL/sysbench and Nginx/wrk application workloads. Every model
// drives a platform.Node's injection surface, so the same workload runs
// unchanged against Tai Chi, the static baseline, and the virtualization
// baselines.
package workload

import (
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
)

// PingInterval is the gap between echo requests (Table 3: "ping").
const PingInterval = 1 * sim.Millisecond

// The ping model's wire and DP costs, calibrated to Table 5's baseline
// distribution.
const (
	// pingWireBase is the constant non-SmartNIC part of the RTT (host
	// stacks, switch, propagation). Calibrated so the static baseline
	// lands on the paper's 26 µs minimum.
	pingWireBase = 18400 * sim.Nanosecond
	// pingWireJitterMean is the mean of the exponential wire-side jitter,
	// capped at pingWireJitterCap (reproduces the 26/30/38 µs
	// min/avg/max).
	pingWireJitterMean = 6 * sim.Microsecond
	pingWireJitterCap  = 12 * sim.Microsecond
	// pingRxWork / pingTxWork are the DP software costs of the echo's two
	// passes.
	pingRxWork = 600 * sim.Nanosecond
	pingTxWork = 600 * sim.Nanosecond
	// pingFlow selects the eNIC queue (and hence the DP core) the ping
	// rides.
	pingFlow = 0
)

// PingConfig parameterizes the RTT probe.
type PingConfig struct {
	// Count of echo requests to send.
	Count int
}

// DefaultPing sends 20,000 echo requests.
func DefaultPing() PingConfig {
	return PingConfig{Count: 20000}
}

// Ping runs the RTT benchmark against a node.
type Ping struct {
	cfg  PingConfig
	loop clients
	echo *client

	// RTT collects round-trip times.
	RTT  *metrics.Histogram
	sent int
	wire sim.Duration // the wire-side part of the echo in flight
	done func()
}

// NewPing builds the benchmark (not yet started).
func NewPing(node *platform.Node, cfg PingConfig) *Ping {
	p := &Ping{cfg: cfg, RTT: metrics.NewHistogram("ping.rtt")}
	p.loop = clients{node: node, r: node.Stream("ping"), label: "workload.ping", step: p.step}
	p.echo = p.loop.add(pingFlow)
	return p
}

// Start begins sending echo requests; onDone (optional) fires after the
// last reply.
func (p *Ping) Start(onDone func()) {
	p.done = onDone
	p.loop.node.Engine.ScheduleNamed(PingInterval, p.loop.label, p.echo.issueFn)
}

// step sends one echo request: an inbound pass from the accelerator to a
// network DP core, then the turnaround's outbound pass through the same
// core. The next request follows the reply after PingInterval.
func (p *Ping) step(c *client) {
	switch c.stage {
	case 0:
		p.sent++
		p.wire = pingWireBase + p.jitter()
		c.net(pingRxWork)
	case 1:
		c.net(pingTxWork)
	case 2:
		p.RTT.Record(c.at.Sub(c.start) + p.wire)
		if p.sent >= p.cfg.Count {
			if p.done != nil {
				p.done()
			}
			return
		}
		c.wait(PingInterval)
	default:
		c.issue()
	}
}

func (p *Ping) jitter() sim.Duration {
	j := sim.Exponential(p.loop.r, pingWireJitterMean)
	if j > pingWireJitterCap {
		j = pingWireJitterCap
	}
	return j
}
