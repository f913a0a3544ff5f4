package workload

import (
	"math/rand"

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
	cfg  CRRConfig
	node *platform.Node
	r    *rand.Rand

	// Txns counts completed transactions; Packets counts DP passes.
	Txns    *metrics.Counter
	Packets *metrics.Counter
	// TxnLatency is the per-transaction completion latency.
	TxnLatency *metrics.Histogram
	startedAt  sim.Time
	stopped    bool
}

// NewCRR builds the benchmark.
func NewCRR(node *platform.Node, cfg CRRConfig) *CRR {
	return &CRR{
		cfg:        cfg,
		node:       node,
		r:          node.Stream("crr"),
		Txns:       metrics.NewCounter("crr.txns"),
		Packets:    metrics.NewCounter("crr.packets"),
		TxnLatency: metrics.NewHistogram("crr.txn_latency"),
	}
}

// Start launches every connection's closed loop.
func (c *CRR) Start() {
	c.startedAt = c.node.Now()
	for i := 0; i < c.cfg.Connections; i++ {
		conn := i
		// Stagger starts to avoid a synchronized thundering herd.
		c.node.Engine.Schedule(sim.Duration(c.r.Int63n(int64(50*sim.Microsecond))+1), func() {
			c.runTxn(conn)
		})
	}
}

// Stop freezes the benchmark (outstanding passes drain without renewing).
func (c *CRR) Stop() { c.stopped = true }

func (c *CRR) runTxn(conn int) {
	if c.stopped {
		return
	}
	if !c.cfg.Phase.On() {
		c.cfg.Phase.Do(func() { c.runTxn(conn) })
		return
	}
	start := c.node.Now()
	var step func(remaining int)
	step = func(remaining int) {
		if remaining == 0 {
			c.Txns.Inc()
			c.TxnLatency.Record(c.node.Now().Sub(start))
			if !c.stopped {
				c.runTxn(conn)
			}
			return
		}
		work := crrPerPacketWork
		if remaining == crrPacketsPerTxn {
			work += crrConnSetupWork
		}
		core := c.node.Net.CoreForFlow(conn)
		c.node.Pipe.Inject(&accel.Packet{
			Core: core.ID,
			Work: work,
			Flow: conn,
			SYN:  remaining == crrPacketsPerTxn,
			FIN:  remaining == 1,
			Done: func(_ *accel.Packet, _ sim.Time) {
				c.Packets.Inc()
				c.node.Engine.Schedule(crrClientThink, func() { step(remaining - 1) })
			},
		})
	}
	step(crrPacketsPerTxn)
}

// CPS returns completed transactions per second over the run.
func (c *CRR) CPS(now sim.Time) float64 {
	return c.Txns.RatePerSecond(now.Sub(c.startedAt))
}

// PPS returns processed packets per second over the run. The RX and TX
// directions are symmetric in this model, so avg_rx_pps = avg_tx_pps =
// PPS/2.
func (c *CRR) PPS(now sim.Time) float64 {
	return c.Packets.RatePerSecond(now.Sub(c.startedAt))
}

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
	cfg  StreamConfig
	node *platform.Node
	r    *rand.Rand

	Packets   *metrics.Counter
	Latency   *metrics.Histogram
	startedAt sim.Time
	stopped   bool
}

// NewStream builds the benchmark.
func NewStream(node *platform.Node, cfg StreamConfig) *Stream {
	return &Stream{
		cfg:     cfg,
		node:    node,
		r:       node.Stream("stream"),
		Packets: metrics.NewCounter("stream.packets"),
		Latency: metrics.NewHistogram("stream.latency"),
	}
}

// Start launches the flows (closed-loop) or the Poisson arrival process
// (open-loop).
func (s *Stream) Start() {
	s.startedAt = s.node.Now()
	if s.cfg.OfferedRate > 0 {
		s.openLoopArrival()
		return
	}
	for f := 0; f < streamFlows; f++ {
		for w := 0; w < s.cfg.Window; w++ {
			flow := f
			s.node.Engine.Schedule(sim.Duration(s.r.Int63n(int64(20*sim.Microsecond))+1), func() {
				s.sendOne(flow)
			})
		}
	}
}

// Stop freezes the benchmark.
func (s *Stream) Stop() { s.stopped = true }

func (s *Stream) sendOne(flow int) {
	if s.stopped {
		return
	}
	if !s.cfg.Phase.On() {
		s.cfg.Phase.Do(func() { s.sendOne(flow) })
		return
	}
	start := s.node.Now()
	s.node.InjectNet(flow, streamPerPacketWork, func(_ *accel.Packet, at sim.Time) {
		s.Packets.Inc()
		s.Latency.Record(at.Sub(start))
		if !s.stopped {
			s.sendOne(flow)
		}
	})
}

func (s *Stream) openLoopArrival() {
	if s.stopped {
		return
	}
	gap := sim.Duration(float64(sim.Second) / s.cfg.OfferedRate)
	s.node.Engine.Schedule(sim.Exponential(s.r, gap), func() {
		if s.stopped {
			return
		}
		flow := s.r.Intn(streamFlows)
		start := s.node.Now()
		s.node.InjectNet(flow, streamPerPacketWork, func(_ *accel.Packet, at sim.Time) {
			s.Packets.Inc()
			s.Latency.Record(at.Sub(start))
		})
		s.openLoopArrival()
	})
}

// PPS returns processed packets per second over the run.
func (s *Stream) PPS(now sim.Time) float64 {
	return s.Packets.RatePerSecond(now.Sub(s.startedAt))
}

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
	cfg  RRConfig
	node *platform.Node
	r    *rand.Rand

	Rounds    *metrics.Counter
	Packets   *metrics.Counter
	Latency   *metrics.Histogram
	startedAt sim.Time
	stopped   bool
}

// NewRR builds the benchmark.
func NewRR(node *platform.Node, cfg RRConfig) *RR {
	return &RR{
		cfg:     cfg,
		node:    node,
		r:       node.Stream("rr"),
		Rounds:  metrics.NewCounter("rr.rounds"),
		Packets: metrics.NewCounter("rr.packets"),
		Latency: metrics.NewHistogram("rr.latency"),
	}
}

// Start launches the flows.
func (rr *RR) Start() {
	rr.startedAt = rr.node.Now()
	for f := 0; f < rrFlows; f++ {
		flow := f
		rr.node.Engine.Schedule(sim.Duration(rr.r.Int63n(int64(100*sim.Microsecond))+1), func() {
			rr.round(flow)
		})
	}
}

// Stop freezes the benchmark.
func (rr *RR) Stop() { rr.stopped = true }

func (rr *RR) round(flow int) {
	if rr.stopped {
		return
	}
	if !rr.cfg.Phase.On() {
		rr.cfg.Phase.Do(func() { rr.round(flow) })
		return
	}
	start := rr.node.Now()
	rr.node.InjectNet(flow, rrPerPacketWork, func(*accel.Packet, sim.Time) {
		rr.Packets.Inc()
		rr.node.InjectNet(flow, rrPerPacketWork, func(_ *accel.Packet, at sim.Time) {
			rr.Packets.Inc()
			rr.Rounds.Inc()
			rr.Latency.Record(at.Sub(start))
			rr.node.Engine.Schedule(rrClientThink, func() { rr.round(flow) })
		})
	})
}

// PPS returns processed packets per second.
func (rr *RR) PPS(now sim.Time) float64 {
	return rr.Packets.RatePerSecond(now.Sub(rr.startedAt))
}
