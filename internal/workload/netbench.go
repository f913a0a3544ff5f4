package workload

import (
	"repro/internal/accel"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
)

// CRRConfig parameterizes netperf tcp_crr / sockperf tcp: closed-loop
// connect-request-response across many concurrent connections, the
// connection-churn benchmark of Figures 12 and 14.
type CRRConfig struct {
	// Connections is the closed-loop concurrency (paper: 64 for tcp_crr,
	// 1024 for sockperf tcp).
	Connections int
	// Phase optionally gates transactions into on/off bursts (production
	// duty-cycled traffic); nil means continuous.
	Phase *Phaser
}

// The per-transaction shape of the netperf tcp_crr setup of Table 3.
const (
	// crrPacketsPerTxn is how many DP passes one transaction needs (SYN,
	// SYN-ACK, request, response, FIN ≈ 5 RX + 5 TX halves folded into
	// per-pass costs).
	crrPacketsPerTxn = 6
	// crrPerPacketWork is the DP software cost per pass.
	crrPerPacketWork = 1200 * sim.Nanosecond
	// crrConnSetupWork is extra DP work on the first pass (connection
	// table insert).
	crrConnSetupWork = 2 * sim.Microsecond
	// crrClientThink is remote-side latency between passes (wire + peer).
	crrClientThink = 2 * sim.Microsecond
)

// DefaultCRR mirrors the netperf tcp_crr setup of Table 3.
func DefaultCRR() CRRConfig {
	return CRRConfig{Connections: 64}
}

// CRR is the running connect-request-response benchmark.
type CRR struct {
	clients
	connections int

	// Txns counts completed transactions; Packets counts DP passes.
	Txns    *metrics.Counter
	Packets *metrics.Counter
	// TxnLatency is the per-transaction completion latency.
	TxnLatency *metrics.Histogram
}

// NewCRR builds the benchmark.
func NewCRR(node *platform.Node, cfg CRRConfig) *CRR {
	cr := &CRR{
		connections: cfg.Connections,
		Txns:        metrics.NewCounter("crr.txns"),
		Packets:     metrics.NewCounter("crr.packets"),
		TxnLatency:  metrics.NewHistogram("crr.txn_latency"),
	}
	cr.clients = clients{node: node, r: node.Stream("crr"), label: "workload.crr", phase: cfg.Phase, step: cr.step}
	return cr
}

// Start launches every connection's closed loop, staggered to avoid a
// synchronized thundering herd.
func (cr *CRR) Start() { cr.start(cr.connections, 1, 50*sim.Microsecond) }

// step runs one transaction: each pass goes through the DP and is
// followed by the peer's think time; the first pass opens the flow and
// the last closes it.
func (cr *CRR) step(c *client) {
	if c.stage%2 == 1 {
		cr.Packets.Inc()
		c.wait(crrClientThink)
		return
	}
	pass := c.stage / 2
	if pass == crrPacketsPerTxn {
		cr.Txns.Inc()
		cr.TxnLatency.Record(c.at.Sub(c.start))
		c.issue()
		return
	}
	work := crrPerPacketWork
	if pass == 0 {
		work += crrConnSetupWork
	}
	c.inject(&accel.Packet{
		Core: cr.node.Net.CoreForFlow(c.flow).ID,
		Work: work,
		Flow: c.flow,
		SYN:  pass == 0,
		FIN:  pass == crrPacketsPerTxn-1,
	})
}

// CPS returns completed transactions per second over the run.
func (cr *CRR) CPS(now sim.Time) float64 { return cr.rate(cr.Txns, now) }

// PPS returns processed packets per second over the run. The RX and TX
// directions are symmetric in this model, so avg_rx_pps = avg_tx_pps =
// PPS/2.
func (cr *CRR) PPS(now sim.Time) float64 { return cr.rate(cr.Packets, now) }

// StreamConfig parameterizes the throughput benchmarks (udp_stream,
// tcp_stream): per-flow windowed pipelining that saturates the DP when
// Window×Flows exceeds service capacity.
type StreamConfig struct {
	// Window is the number of in-flight packets per flow.
	Window int
	// OfferedRate, if non-zero, switches to open-loop Poisson arrivals at
	// this aggregate packets/sec (used for fixed-utilization experiments
	// like Figure 3 and the latency rows of Figure 14).
	OfferedRate float64
	// Phase optionally gates the flows into on/off bursts; nil means
	// continuous.
	Phase *Phaser
}

// The netperf stream setup: 64 connections of 1500-byte MTU frames.
const (
	// streamFlows is the number of concurrent connections (paper: 64).
	streamFlows = 64
	// streamPerPacketWork is the DP cost per packet.
	streamPerPacketWork = 900 * sim.Nanosecond
	// streamPacketBytes sizes bandwidth reporting (Table 3's avg_rx_bw).
	streamPacketBytes = 1500
)

// DefaultStream mirrors the netperf stream setup (closed-loop
// saturation).
func DefaultStream() StreamConfig {
	return StreamConfig{Window: 8}
}

// Stream is the running throughput benchmark.
type Stream struct {
	clients
	cfg StreamConfig

	Packets *metrics.Counter
	Latency *metrics.Histogram

	// The open loop's arrival timer and completion callback, bound once.
	arrival   *sim.Timer
	arrivedFn func(*accel.Packet, sim.Time)
}

// NewStream builds the benchmark.
func NewStream(node *platform.Node, cfg StreamConfig) *Stream {
	s := &Stream{
		cfg:     cfg,
		Packets: metrics.NewCounter("stream.packets"),
		Latency: metrics.NewHistogram("stream.latency"),
	}
	s.clients = clients{node: node, r: node.Stream("stream"), label: "workload.stream", phase: cfg.Phase, step: s.step}
	s.arrival = node.Engine.NewTimer(0, s.label, s.arrive)
	s.arrivedFn = s.arrived
	return s
}

// Start launches the flows (closed-loop) or the Poisson arrival process
// (open-loop).
func (s *Stream) Start() {
	if s.cfg.OfferedRate > 0 {
		s.startedAt = s.node.Now()
		s.openLoopArrival()
		return
	}
	s.start(streamFlows, s.cfg.Window, 20*sim.Microsecond)
}

// step sends one packet of a flow's window and sends the next when it is
// through.
func (s *Stream) step(c *client) {
	if c.stage == 0 {
		c.net(streamPerPacketWork)
		return
	}
	s.Packets.Inc()
	s.Latency.Record(c.at.Sub(c.start))
	c.issue()
}

// openLoopArrival arms the next open-loop arrival.
func (s *Stream) openLoopArrival() {
	if s.stopped {
		return
	}
	gap := sim.Duration(float64(sim.Second) / s.cfg.OfferedRate)
	s.arrival.Reset(sim.Exponential(s.r, gap))
}

// arrive sends one packet on a random flow.
func (s *Stream) arrive() {
	if s.stopped {
		return
	}
	s.node.InjectNet(s.r.Intn(streamFlows), streamPerPacketWork, s.arrivedFn)
	s.openLoopArrival()
}

// arrived counts an open-loop packet, which the pipeline stamped with its
// arrival instant.
func (s *Stream) arrived(p *accel.Packet, at sim.Time) {
	s.Packets.Inc()
	s.Latency.Record(at.Sub(p.Arrival))
}

// PPS returns processed packets per second over the run.
func (s *Stream) PPS(now sim.Time) float64 { return s.rate(s.Packets, now) }

// BandwidthGbps returns throughput in gigabits per second — netperf
// udp_stream's avg_rx_bw metric.
func (s *Stream) BandwidthGbps(now sim.Time) float64 {
	return s.PPS(now) * streamPacketBytes * 8 / 1e9
}

// RRConfig parameterizes request-response latency benchmarks (tcp_rr,
// sockperf udp): K concurrent closed-loop echo flows.
type RRConfig struct {
	// Phase optionally gates the flows into on/off bursts; nil means
	// continuous.
	Phase *Phaser
}

// The netperf tcp_rr setup.
const (
	// rrFlows is the closed-loop concurrency (paper: 1024 for tcp_rr).
	rrFlows = 1024
	// rrPerPacketWork is the DP cost per direction.
	rrPerPacketWork = sim.Microsecond
	// rrClientThink is the remote-side turnaround between a response and
	// the next request.
	rrClientThink = 30 * sim.Microsecond
)

// DefaultRR mirrors the netperf tcp_rr setup: continuous rounds.
func DefaultRR() RRConfig { return RRConfig{} }

// RR is the running request-response benchmark.
type RR struct {
	clients

	Rounds  *metrics.Counter
	Packets *metrics.Counter
	Latency *metrics.Histogram
}

// NewRR builds the benchmark.
func NewRR(node *platform.Node, cfg RRConfig) *RR {
	rr := &RR{
		Rounds:  metrics.NewCounter("rr.rounds"),
		Packets: metrics.NewCounter("rr.packets"),
		Latency: metrics.NewHistogram("rr.latency"),
	}
	rr.clients = clients{node: node, r: node.Stream("rr"), label: "workload.rr", phase: cfg.Phase, step: rr.step}
	return rr
}

// Start launches the flows.
func (rr *RR) Start() { rr.start(rrFlows, 1, 100*sim.Microsecond) }

// step runs one round: the request and the response each take a DP
// pass, and the remote side turns around before the next round.
func (rr *RR) step(c *client) {
	switch c.stage {
	case 0:
		c.net(rrPerPacketWork)
	case 1:
		rr.Packets.Inc()
		c.net(rrPerPacketWork)
	case 2:
		rr.Packets.Inc()
		rr.Rounds.Inc()
		rr.Latency.Record(c.at.Sub(c.start))
		c.wait(rrClientThink)
	default:
		c.issue()
	}
}

// PPS returns processed packets per second.
func (rr *RR) PPS(now sim.Time) float64 { return rr.rate(rr.Packets, now) }
