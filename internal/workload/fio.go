package workload

import (
	"math/rand"

	"repro/internal/accel"
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
	node *platform.Node
	r    *rand.Rand

	Ops       *metrics.Counter
	Latency   *metrics.Histogram
	startedAt sim.Time
	stopped   bool
}

// NewFio builds the benchmark.
func NewFio(node *platform.Node) *Fio {
	return &Fio{
		node:    node,
		r:       node.Stream("fio"),
		Ops:     metrics.NewCounter("fio.ops"),
		Latency: metrics.NewHistogram("fio.latency"),
	}
}

// Start launches every job's async queue.
func (f *Fio) Start() {
	f.startedAt = f.node.Now()
	for j := 0; j < fioJobs; j++ {
		for d := 0; d < fioIODepth; d++ {
			job := j
			f.node.Engine.Schedule(sim.Duration(f.r.Int63n(int64(30*sim.Microsecond))+1), func() {
				f.issue(job)
			})
		}
	}
}

// Stop freezes the benchmark.
func (f *Fio) Stop() { f.stopped = true }

func (f *Fio) issue(job int) {
	if f.stopped {
		return
	}
	start := f.node.Now()
	f.node.InjectStor(job, fioPerOpWork, func(_ *accel.Packet, at sim.Time) {
		// The DP forwarded the command; completion comes back after the
		// backend's service time.
		f.node.Engine.Schedule(fioBackendLatency, func() {
			f.Ops.Inc()
			f.Latency.Record(f.node.Now().Sub(start))
			if !f.stopped {
				f.issue(job)
			}
		})
	})
}

// IOPS returns completed operations per second over the run.
func (f *Fio) IOPS(now sim.Time) float64 {
	return f.Ops.RatePerSecond(now.Sub(f.startedAt))
}

// BandwidthMBps returns throughput in MB/s.
func (f *Fio) BandwidthMBps(now sim.Time) float64 {
	return f.IOPS(now) * fioBlockBytes / 1e6
}
