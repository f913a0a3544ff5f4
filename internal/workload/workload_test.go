package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/platform"
	"repro/internal/sim"
)

func staticNode(seed int64) *platform.Node {
	return baseline.NewStaticDefault(seed).Node
}

func TestPingBaselineDistribution(t *testing.T) {
	node := staticNode(1)
	cfg := DefaultPing()
	cfg.Count = 2000
	p := NewPing(node, cfg)
	p.Start(nil)
	node.Run(sim.Time(3 * sim.Second))
	s := p.RTT.Summarize()
	if s.Count < 2000 {
		t.Fatalf("only %d pings completed", s.Count)
	}
	// Paper Table 5 baseline: min 26 / avg 30 / max 38 µs.
	if s.Min < 24*sim.Microsecond || s.Min > 28*sim.Microsecond {
		t.Fatalf("min RTT %v, want ~26µs", s.Min)
	}
	if s.Mean < 28*sim.Microsecond || s.Mean > 32*sim.Microsecond {
		t.Fatalf("mean RTT %v, want ~30µs", s.Mean)
	}
	if s.Max < 34*sim.Microsecond || s.Max > 42*sim.Microsecond {
		t.Fatalf("max RTT %v, want ~38µs", s.Max)
	}
}

func TestCRRSaturatesAndScalesWithCores(t *testing.T) {
	run := func(cores int) float64 {
		opts := platform.DefaultOptions()
		opts.HWProbe = false
		opts.Topology.NetCores = opts.Topology.NetCores[:cores]
		node := platform.NewNode(opts)
		c := NewCRR(node, DefaultCRR())
		c.Start()
		node.Run(sim.Time(300 * sim.Millisecond))
		return c.CPS(node.Now())
	}
	cps4 := run(4)
	cps3 := run(3)
	if cps4 <= 0 || cps3 <= 0 {
		t.Fatal("no transactions completed")
	}
	ratio := cps3 / cps4
	// Saturated closed loop: throughput ∝ cores (±15% for queueing).
	if ratio < 0.6 || ratio > 0.92 {
		t.Fatalf("3-core/4-core CPS ratio %.3f, want ~0.75", ratio)
	}
}

func TestStreamClosedLoopSaturation(t *testing.T) {
	node := staticNode(3)
	s := NewStream(node, DefaultStream())
	s.Start()
	node.Run(sim.Time(300 * sim.Millisecond))
	pps := s.PPS(node.Now())
	// 4 cores / 900ns ≈ 4.4 Mpps ceiling; expect within 50%-100% of it.
	ceiling := 4.0 / 900e-9
	if pps < 0.5*ceiling || pps > 1.05*ceiling {
		t.Fatalf("pps %.0f vs ceiling %.0f", pps, ceiling)
	}
}

func TestStreamOpenLoopHitsOfferedRate(t *testing.T) {
	node := staticNode(4)
	cfg := DefaultStream()
	cfg.OfferedRate = 100000
	s := NewStream(node, cfg)
	s.Start()
	node.Run(sim.Time(sim.Second))
	pps := s.PPS(node.Now())
	if pps < 90000 || pps > 110000 {
		t.Fatalf("open-loop pps %.0f, want ~100k", pps)
	}
}

func TestRRLatencyReasonable(t *testing.T) {
	node := staticNode(5)
	rr := NewRR(node, DefaultRR())
	rr.Start()
	node.Run(sim.Time(300 * sim.Millisecond))
	if rr.Rounds.Value() == 0 {
		t.Fatal("no rounds")
	}
	s := rr.Latency.Summarize()
	// Two passes ≈ 2×(3.2µs+1µs) plus queueing: the closed loop keeps
	// the net cores saturated, so a round waits at most behind the two
	// passes of every other flow on its core.
	window := node.Pipe.Window()
	floor := 2 * (window + rrPerPacketWork)
	ceiling := 2*window + 2*rrPerPacketWork*sim.Duration(rrFlows/len(node.Net.Cores()))
	if s.P50 < floor || s.P50 > ceiling {
		t.Fatalf("p50 %v out of plausible band [%v, %v]", s.P50, floor, ceiling)
	}
}

func TestFioIOPSScalesWithCores(t *testing.T) {
	run := func(cores int) float64 {
		opts := platform.DefaultOptions()
		opts.HWProbe = false
		opts.Topology.StorCores = opts.Topology.StorCores[:cores]
		node := platform.NewNode(opts)
		f := NewFio(node)
		f.Start()
		node.Run(sim.Time(300 * sim.Millisecond))
		return f.IOPS(node.Now())
	}
	iops4 := run(4)
	iops3 := run(3)
	if iops4 < 100000 {
		t.Fatalf("4-core IOPS %.0f implausibly low", iops4)
	}
	ratio := iops3 / iops4
	if ratio < 0.6 || ratio > 0.95 {
		t.Fatalf("3/4-core IOPS ratio %.3f", ratio)
	}
}

func TestFioBandwidth(t *testing.T) {
	node := staticNode(6)
	f := NewFio(node)
	f.Start()
	node.Run(sim.Time(200 * sim.Millisecond))
	if bw := f.BandwidthMBps(node.Now()); bw <= 0 {
		t.Fatalf("bandwidth %.1f", bw)
	}
}

func TestMySQLThroughput(t *testing.T) {
	node := staticNode(7)
	m := NewMySQL(node, DefaultMySQL())
	m.Start()
	node.Run(sim.Time(sim.Second))
	avg := m.AvgQPS(node.Now())
	if avg <= 0 {
		t.Fatal("no queries")
	}
	if m.MaxQPS() < avg*0.8 {
		t.Fatalf("max window QPS %.0f below average %.0f", m.MaxQPS(), avg)
	}
	if m.AvgTPS(node.Now()) <= 0 || m.MaxTPS() <= 0 {
		t.Fatal("transaction rates")
	}
}

func TestNginxHTTPSCostsMore(t *testing.T) {
	run := func(https bool) float64 {
		node := staticNode(8)
		cfg := DefaultNginx(https, true)
		cfg.Connections = 500
		n := NewNginx(node, cfg)
		n.Start()
		node.Run(sim.Time(400 * sim.Millisecond))
		return n.RPS(node.Now())
	}
	http := run(false)
	tls := run(true)
	if http <= 0 || tls <= 0 {
		t.Fatal("no requests")
	}
	if tls >= http {
		t.Fatalf("HTTPS RPS %.0f not below HTTP %.0f", tls, http)
	}
}

func TestBackgroundHitsTargetUtilization(t *testing.T) {
	node := staticNode(9)
	bg := NewBackground(node, DefaultBackground(0.30))
	bg.Start()
	node.Run(sim.Time(3 * sim.Second))
	got := node.Net.MeanUtilization()
	if got < 0.22 || got > 0.38 {
		t.Fatalf("net utilization %.3f, want ~0.30", got)
	}
}

// A malformed background config panics naming the field, instead of
// clamping a negative mean to the calm floor or dividing a burst gap by
// zero.
func TestMalformedBackgroundPanics(t *testing.T) {
	node := staticNode(9)
	for _, tc := range []struct {
		field string
		mut   func(*BackgroundConfig)
	}{
		{"MeanUtilization", func(c *BackgroundConfig) { c.MeanUtilization = -0.3 }},
		{"MeanUtilization", func(c *BackgroundConfig) { c.MeanUtilization = math.NaN() }},
		{"BurstUtilization", func(c *BackgroundConfig) { c.BurstUtilization = 0 }},
		{"BurstUtilization", func(c *BackgroundConfig) { c.BurstUtilization = -0.95 }},
		{"NetWork", func(c *BackgroundConfig) { c.NetWork = 0 }},
		{"StorWork", func(c *BackgroundConfig) { c.StorWork = 0 }},
	} {
		cfg := DefaultBackground(0.30)
		tc.mut(&cfg)
		func() {
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.Contains(msg, tc.field) {
					t.Errorf("%s: NewBackground recovered %v, want a panic naming the field", tc.field, r)
				}
			}()
			NewBackground(node, cfg)
		}()
	}
}

func TestWorkloadStopFreezes(t *testing.T) {
	node := staticNode(10)
	s := NewStream(node, DefaultStream())
	s.Start()
	node.Run(sim.Time(50 * sim.Millisecond))
	s.Stop()
	at := s.Packets.Value()
	node.Run(sim.Time(100 * sim.Millisecond))
	// Outstanding packets drain but no renewals: growth bounded by the
	// in-flight window.
	if s.Packets.Value() > at+uint64(streamFlows*DefaultStream().Window) {
		t.Fatalf("packets kept flowing after Stop: %d → %d", at, s.Packets.Value())
	}
}

func TestStreamBandwidth(t *testing.T) {
	node := staticNode(11)
	s := NewStream(node, DefaultStream())
	s.Start()
	node.Run(sim.Time(100 * sim.Millisecond))
	bw := s.BandwidthGbps(node.Now())
	// ~4.4 Mpps × 1500 B × 8 ≈ 53 Gb/s, within the 200 Gb/s NIC budget.
	if bw < 20 || bw > 80 {
		t.Fatalf("bandwidth %.1f Gb/s out of plausible band", bw)
	}
}
