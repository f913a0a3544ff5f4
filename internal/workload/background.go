package workload

import (
	"fmt"

	"repro/internal/accel"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sim"
)

// BackgroundConfig drives production-like bursty traffic against the DP
// services: a two-state MMPP per core whose calm/burst balance yields the
// target mean utilization while producing the long-idle/short-burst
// pattern behind the paper's Figure 3 CDF (99.68% of per-second samples
// below 32.5%).
type BackgroundConfig struct {
	// MeanUtilization is the long-run target busy fraction per DP core.
	MeanUtilization float64
	// BurstUtilization is the busy fraction while bursting (can be ~1.0).
	BurstUtilization float64
	// NetWork / StorWork are per-packet costs.
	NetWork  sim.Duration
	StorWork sim.Duration
}

// The modulating chain and arrival batching every background generator
// shares.
const (
	// bgCalmHold / bgBurstHold are mean dwell times of the modulating
	// chain.
	bgCalmHold  = 80 * sim.Millisecond
	bgBurstHold = 20 * sim.Millisecond
	// bgTrain is how many packets arrive back-to-back per arrival event
	// (interrupt-coalescing/batching as seen on real NICs); inter-train
	// gaps scale with the train length so utilization is preserved.
	bgTrain = 12
)

// DefaultBackground produces the ~30% operating point of §6.2 with
// production-style burstiness. The traffic is mirrored onto the storage
// service whenever the node has one.
func DefaultBackground(mean float64) BackgroundConfig {
	return BackgroundConfig{
		MeanUtilization:  mean,
		BurstUtilization: 0.95,
		NetWork:          900 * sim.Nanosecond,
		StorWork:         3500 * sim.Nanosecond,
	}
}

// Background is the running traffic generator.
type Background struct {
	cfg  BackgroundConfig
	node *platform.Node

	Packets *metrics.Counter
	stopped bool
}

// NewBackground builds the generator. It panics, naming the field, on a
// negative or NaN MeanUtilization, a BurstUtilization that is not
// positive (the burst gap divides by it), or a per-packet work that is
// not positive (every gap would be zero).
func NewBackground(node *platform.Node, cfg BackgroundConfig) *Background {
	switch {
	case !(cfg.MeanUtilization >= 0):
		panic(fmt.Sprintf("workload: background MeanUtilization = %v: negative or NaN", cfg.MeanUtilization))
	case !(cfg.BurstUtilization > 0):
		panic(fmt.Sprintf("workload: background BurstUtilization = %v: not positive", cfg.BurstUtilization))
	case cfg.NetWork <= 0:
		panic(fmt.Sprintf("workload: background NetWork = %v: not positive", cfg.NetWork))
	case cfg.StorWork <= 0:
		panic(fmt.Sprintf("workload: background StorWork = %v: not positive", cfg.StorWork))
	}
	return &Background{cfg: cfg, node: node, Packets: metrics.NewCounter("bg.packets")}
}

// Start launches one MMPP arrival process per DP core.
func (b *Background) Start() {
	for i, c := range b.node.Net.Cores() {
		b.launch(c.ID, b.cfg.NetWork, false, i)
	}
	if b.node.Stor != nil {
		for i, c := range b.node.Stor.Cores() {
			b.launch(c.ID, b.cfg.StorWork, true, i)
		}
	}
}

// Stop freezes the generator.
func (b *Background) Stop() { b.stopped = true }

func (b *Background) launch(core int, work sim.Duration, storage bool, idx int) {
	// Keep the two families as literal formats (not "%s%d" over a
	// variable prefix) so the streamdraw lint can audit them against
	// the stream registry; the derived names are unchanged.
	stream := fmt.Sprintf("bg.net%d", idx)
	if storage {
		stream = fmt.Sprintf("bg.stor%d", idx)
	}
	r := b.node.Stream(stream)

	// Derive the calm-state rate so the long-run mean hits the target:
	// mean = fCalm*uCalm + fBurst*uBurst, with dwell-time fractions.
	fBurst := float64(bgBurstHold) / float64(bgBurstHold+bgCalmHold)
	uBurst := b.cfg.BurstUtilization
	uCalm := (b.cfg.MeanUtilization - fBurst*uBurst) / (1 - fBurst)
	if uCalm < 0.005 {
		uCalm = 0.005
	}
	calmGap := sim.Duration(float64(work) / uCalm * bgTrain)
	burstGap := sim.Duration(float64(work) / uBurst * bgTrain)
	mmpp := &dist.MMPP2{
		CalmInterarrival:  calmGap,
		BurstInterarrival: burstGap,
		CalmHold:          bgCalmHold,
		BurstHold:         bgBurstHold,
	}
	// The arrival timer is built once per arrival process and re-armed
	// only from its own callback, which re-keys its heap slot in place;
	// the pipeline copies each train as one run, so a train allocates
	// nothing.
	var arrive *sim.Timer
	next := func() {
		if !b.stopped {
			arrive.Reset(mmpp.Next(r, b.node.Now()))
		}
	}
	arrive = b.node.Engine.NewTimer(0, "accel.ingress", func() {
		if b.stopped {
			return
		}
		b.Packets.Add(bgTrain)
		b.node.Pipe.InjectTrain(&accel.Packet{Core: core, Work: work}, bgTrain)
		next()
	})
	next()
}
