package workload

import (
	"math/rand"

	"repro/internal/accel"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
)

// The MySQL model is the sysbench-driven workload of §6.1/§6.5: 192
// client threads issuing queries against a VM whose network and storage
// I/O ride the SmartNIC data plane. Each query takes two DP passes,
// request in and result out.
const (
	// mysqlThreads is the sysbench concurrency (paper: 192).
	mysqlThreads = 192
	// mysqlHostCompute is the VM-side CPU time per query.
	mysqlHostCompute = 220 * sim.Microsecond
	// mysqlNetWork is the DP cost per pass.
	mysqlNetWork = 1100 * sim.Nanosecond
	// mysqlStorProb is the probability a query misses the buffer pool
	// and issues a storage read.
	mysqlStorProb = 0.35
	// mysqlStorWork / mysqlStorBackend model that read.
	mysqlStorWork    = 3500 * sim.Nanosecond
	mysqlStorBackend = 25 * sim.Microsecond
	// mysqlQueriesPerTxn converts query counts into sysbench
	// transactions.
	mysqlQueriesPerTxn = 20
	// mysqlWindowForMax sizes the window for max_query/max_trans
	// reporting.
	mysqlWindowForMax = 100 * sim.Millisecond
)

// MySQLConfig parameterizes the MySQL workload.
type MySQLConfig struct {
	// Phase optionally gates queries into on/off bursts; nil means
	// continuous.
	Phase *Phaser
}

// DefaultMySQL mirrors the §6.5 MySQL setup: continuous queries.
func DefaultMySQL() MySQLConfig { return MySQLConfig{} }

// MySQL is the running database workload.
type MySQL struct {
	cfg  MySQLConfig
	node *platform.Node
	r    *rand.Rand

	Queries   *metrics.Counter
	Latency   *metrics.Histogram
	startedAt sim.Time
	stopped   bool

	windowStart sim.Time
	windowCount uint64
	maxWindowQP float64
}

// NewMySQL builds the workload.
func NewMySQL(node *platform.Node, cfg MySQLConfig) *MySQL {
	return &MySQL{
		cfg:     cfg,
		node:    node,
		r:       node.Stream("mysql"),
		Queries: metrics.NewCounter("mysql.queries"),
		Latency: metrics.NewHistogram("mysql.latency"),
	}
}

// Start launches the sysbench threads.
func (m *MySQL) Start() {
	m.startedAt = m.node.Now()
	m.windowStart = m.startedAt
	for i := 0; i < mysqlThreads; i++ {
		th := i
		m.node.Engine.Schedule(sim.Duration(m.r.Int63n(int64(200*sim.Microsecond))+1), func() {
			m.query(th)
		})
	}
}

// Stop freezes the workload.
func (m *MySQL) Stop() { m.stopped = true }

func (m *MySQL) query(th int) {
	if m.stopped {
		return
	}
	if !m.cfg.Phase.On() {
		m.cfg.Phase.Do(func() { m.query(th) })
		return
	}
	start := m.node.Now()
	finish := func() {
		m.Queries.Inc()
		m.recordWindow()
		m.Latency.Record(m.node.Now().Sub(start))
		if !m.stopped {
			m.query(th)
		}
	}
	// Request in through the network DP.
	m.node.InjectNet(th, mysqlNetWork, func(*accel.Packet, sim.Time) {
		// VM-side execution, possibly with a storage read underneath.
		m.node.Engine.Schedule(sim.Jitter(m.r, mysqlHostCompute, 0.2), func() {
			respond := func() {
				m.node.InjectNet(th, mysqlNetWork, func(*accel.Packet, sim.Time) { finish() })
			}
			if m.r.Float64() < mysqlStorProb {
				m.node.InjectStor(th, mysqlStorWork, func(*accel.Packet, sim.Time) {
					m.node.Engine.Schedule(mysqlStorBackend, respond)
				})
			} else {
				respond()
			}
		})
	})
}

func (m *MySQL) recordWindow() {
	m.windowCount++
	now := m.node.Now()
	if w := now.Sub(m.windowStart); w >= mysqlWindowForMax {
		qps := float64(m.windowCount) / w.Seconds()
		if qps > m.maxWindowQP {
			m.maxWindowQP = qps
		}
		m.windowStart = now
		m.windowCount = 0
	}
}

// AvgQPS returns queries per second over the whole run.
func (m *MySQL) AvgQPS(now sim.Time) float64 {
	return m.Queries.RatePerSecond(now.Sub(m.startedAt))
}

// MaxQPS returns the best observed window throughput.
func (m *MySQL) MaxQPS() float64 { return m.maxWindowQP }

// AvgTPS returns sysbench transactions per second.
func (m *MySQL) AvgTPS(now sim.Time) float64 {
	return m.AvgQPS(now) / mysqlQueriesPerTxn
}

// MaxTPS returns the best window transaction rate.
func (m *MySQL) MaxTPS() float64 { return m.maxWindowQP / mysqlQueriesPerTxn }

// The Nginx model is the wrk-driven workload of §6.5: 10,000 concurrent
// connections fetching small pages over HTTP or HTTPS.
const (
	// nginxHostCompute is the server-side CPU time per request.
	nginxHostCompute = 60 * sim.Microsecond
	// nginxHandshakeCompute is the extra server CPU for TLS.
	nginxHandshakeCompute = 180 * sim.Microsecond
	// nginxNetPassesLong / nginxNetPassesShort are DP passes per request.
	nginxNetPassesLong  = 2
	nginxNetPassesShort = 5
	// nginxNetWork is the DP cost per pass.
	nginxNetWork = 1000 * sim.Nanosecond
)

// NginxConfig parameterizes the Nginx workload.
type NginxConfig struct {
	// Connections is the wrk concurrency (paper: 10k).
	Connections int
	// HTTPS adds the handshake cost to every short-lived connection.
	HTTPS bool
	// ShortConnection makes every request open a fresh connection
	// (connection churn through the DP's connection table).
	ShortConnection bool
	// Phase optionally gates requests into on/off bursts; nil means
	// continuous.
	Phase *Phaser
}

// DefaultNginx mirrors the §6.5 Nginx setup.
func DefaultNginx(https, short bool) NginxConfig {
	return NginxConfig{
		Connections:     10000,
		HTTPS:           https,
		ShortConnection: short,
	}
}

// Nginx is the running web workload.
type Nginx struct {
	cfg  NginxConfig
	node *platform.Node
	r    *rand.Rand

	Requests  *metrics.Counter
	Latency   *metrics.Histogram
	startedAt sim.Time
	stopped   bool
}

// NewNginx builds the workload.
func NewNginx(node *platform.Node, cfg NginxConfig) *Nginx {
	return &Nginx{
		cfg:      cfg,
		node:     node,
		r:        node.Stream("nginx"),
		Requests: metrics.NewCounter("nginx.requests"),
		Latency:  metrics.NewHistogram("nginx.latency"),
	}
}

// Start launches the wrk connections.
func (n *Nginx) Start() {
	n.startedAt = n.node.Now()
	for i := 0; i < n.cfg.Connections; i++ {
		conn := i
		n.node.Engine.Schedule(sim.Duration(n.r.Int63n(int64(2*sim.Millisecond))+1), func() {
			n.request(conn)
		})
	}
}

// Stop freezes the workload.
func (n *Nginx) Stop() { n.stopped = true }

func (n *Nginx) request(conn int) {
	if n.stopped {
		return
	}
	if !n.cfg.Phase.On() {
		n.cfg.Phase.Do(func() { n.request(conn) })
		return
	}
	start := n.node.Now()
	passes := nginxNetPassesLong
	if n.cfg.ShortConnection {
		passes = nginxNetPassesShort
	}
	compute := nginxHostCompute
	if n.cfg.HTTPS && n.cfg.ShortConnection {
		compute += nginxHandshakeCompute
	}
	var step func(remaining int)
	step = func(remaining int) {
		if remaining == 0 {
			n.node.Engine.Schedule(sim.Jitter(n.r, compute, 0.2), func() {
				n.Requests.Inc()
				n.Latency.Record(n.node.Now().Sub(start))
				if !n.stopped {
					n.request(conn)
				}
			})
			return
		}
		n.node.InjectNet(conn, nginxNetWork, func(*accel.Packet, sim.Time) {
			step(remaining - 1)
		})
	}
	step(passes)
}

// RPS returns requests per second over the run.
func (n *Nginx) RPS(now sim.Time) float64 {
	return n.Requests.RatePerSecond(now.Sub(n.startedAt))
}
