package workload

import (
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
)

// The fio storage benchmark mirrors Table 3's fio_rw case: 16 threads,
// libaio, 4 KB blocks.
const (
	// fioJobs is the number of fio worker threads.
	fioJobs = 16
	// fioIODepth is the async queue depth each job sustains.
	fioIODepth = 8
	// fioPerOpWork is the storage-DP software cost of one 4 KB command.
	fioPerOpWork = 3500 * sim.Nanosecond
	// fioBackendLatency is the media/backend service time after DP
	// processing (NVMe-oF hop, flash program, etc.).
	fioBackendLatency = 20 * sim.Microsecond
	// fioBlockBytes sizes bandwidth reporting.
	fioBlockBytes = 4096
)

// Fio is the running storage benchmark.
type Fio struct {
	clients

	Ops     *metrics.Counter
	Latency *metrics.Histogram
}

// NewFio builds the benchmark.
func NewFio(node *platform.Node) *Fio {
	f := &Fio{
		Ops:     metrics.NewCounter("fio.ops"),
		Latency: metrics.NewHistogram("fio.latency"),
	}
	f.clients = clients{node: node, r: node.Stream("fio"), label: "workload.fio", step: f.step}
	return f
}

// Start launches every job's async queue.
func (f *Fio) Start() { f.start(fioJobs, fioIODepth, 30*sim.Microsecond) }

// step runs one operation: the DP forwards the command, and it completes
// after the backend's service time.
func (f *Fio) step(c *client) {
	switch c.stage {
	case 0:
		c.stor(fioPerOpWork)
	case 1:
		c.wait(fioBackendLatency)
	default:
		f.Ops.Inc()
		f.Latency.Record(c.at.Sub(c.start))
		c.issue()
	}
}

// IOPS returns completed operations per second over the run.
func (f *Fio) IOPS(now sim.Time) float64 { return f.rate(f.Ops, now) }

// BandwidthMBps returns throughput in MB/s.
func (f *Fio) BandwidthMBps(now sim.Time) float64 {
	return f.IOPS(now) * fioBlockBytes / 1e6
}
