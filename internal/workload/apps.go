package workload

import (
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
	clients

	Queries *metrics.Counter
	Latency *metrics.Histogram

	windowStart sim.Time
	windowCount uint64
	maxWindowQP float64
}

// NewMySQL builds the workload.
func NewMySQL(node *platform.Node, cfg MySQLConfig) *MySQL {
	m := &MySQL{
		Queries: metrics.NewCounter("mysql.queries"),
		Latency: metrics.NewHistogram("mysql.latency"),
	}
	m.clients = clients{node: node, r: node.Stream("mysql"), label: "workload.mysql", phase: cfg.Phase, step: m.step}
	return m
}

// Start launches the sysbench threads.
func (m *MySQL) Start() {
	m.start(mysqlThreads, 1, 200*sim.Microsecond)
	m.windowStart = m.startedAt
}

// step runs one query: the request comes in through the network DP, the
// VM executes it, possibly reading storage underneath, and the result
// goes out through the network DP.
func (m *MySQL) step(c *client) {
	switch c.stage {
	case 0:
		c.net(mysqlNetWork)
	case 1:
		c.wait(sim.Jitter(m.r, mysqlHostCompute, 0.2))
	case 2:
		if m.r.Float64() < mysqlStorProb {
			c.stor(mysqlStorWork)
			return
		}
		c.stage = 4 // no read: respond at once
		c.net(mysqlNetWork)
	case 3:
		c.wait(mysqlStorBackend)
	case 4:
		c.net(mysqlNetWork)
	default:
		m.Queries.Inc()
		m.recordWindow()
		m.Latency.Record(c.at.Sub(c.start))
		c.issue()
	}
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
func (m *MySQL) AvgQPS(now sim.Time) float64 { return m.rate(m.Queries, now) }

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
	clients
	connections int
	passes      int
	compute     sim.Duration

	Requests *metrics.Counter
	Latency  *metrics.Histogram
}

// NewNginx builds the workload.
func NewNginx(node *platform.Node, cfg NginxConfig) *Nginx {
	n := &Nginx{
		connections: cfg.Connections,
		passes:      nginxNetPassesLong,
		compute:     nginxHostCompute,
		Requests:    metrics.NewCounter("nginx.requests"),
		Latency:     metrics.NewHistogram("nginx.latency"),
	}
	if cfg.ShortConnection {
		n.passes = nginxNetPassesShort
		if cfg.HTTPS {
			n.compute += nginxHandshakeCompute
		}
	}
	n.clients = clients{node: node, r: node.Stream("nginx"), label: "workload.nginx", phase: cfg.Phase, step: n.step}
	return n
}

// Start launches the wrk connections.
func (n *Nginx) Start() { n.start(n.connections, 1, 2*sim.Millisecond) }

// step runs one request: its DP passes one after another, then the
// server's compute.
func (n *Nginx) step(c *client) {
	switch {
	case c.stage < n.passes:
		c.net(nginxNetWork)
	case c.stage == n.passes:
		c.wait(sim.Jitter(n.r, n.compute, 0.2))
	default:
		n.Requests.Inc()
		n.Latency.Record(c.at.Sub(c.start))
		c.issue()
	}
}

// RPS returns requests per second over the run.
func (n *Nginx) RPS(now sim.Time) float64 { return n.rate(n.Requests, now) }
