package baseline

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Every node flavour the cluster manager drives is a cluster.Host; the
// type-2 baseline is a *Static.
var (
	_ cluster.Host = (*Static)(nil)
	_ cluster.Host = (*core.TaiChi)(nil)
)

func TestStaticNeverYields(t *testing.T) {
	b := NewStaticDefault(1)
	bg := workload.NewBackground(b.Node, workload.DefaultBackground(0.2))
	bg.Start()
	b.SpawnCP("cp", controlplane.SynthCP(controlplane.DefaultSynthCP(), b.Node.Stream("cp")))
	b.Run(sim.Time(500 * sim.Millisecond))
	for _, c := range b.Node.DPCores() {
		if c.Yields != 0 {
			t.Fatalf("static baseline yielded core %d", c.ID)
		}
	}
	if b.Node.Probe != nil {
		t.Fatal("static baseline must not carry the hardware probe")
	}
}

func TestStaticCPConfinedToCPCores(t *testing.T) {
	b := NewStaticDefault(2)
	th := b.SpawnCP("cp", controlplane.SynthCP(controlplane.DefaultSynthCP(), b.Node.Stream("cp")))
	for _, id := range []kernel.CPUID{8, 9, 10, 11} {
		if !th.AllowedOn(id) {
			t.Fatalf("CP task not allowed on CP core %d", id)
		}
	}
	if th.AllowedOn(0) {
		t.Fatal("CP task allowed on a DP core under static partitioning")
	}
}

func TestType1PaysDataPathTax(t *testing.T) {
	tc := NewType1(3)
	if tc.Node.Opts.Net.TaxFactor != Type1Tax || tc.Node.Opts.Stor.TaxFactor != Type1Tax {
		t.Fatalf("tax factors %v/%v", tc.Node.Opts.Net.TaxFactor, tc.Node.Opts.Stor.TaxFactor)
	}
	// The tax shows up as reduced saturated throughput.
	s := workload.NewStream(tc.Node, workload.DefaultStream())
	s.Start()
	tc.Run(sim.Time(300 * sim.Millisecond))
	pps := s.PPS(tc.Node.Now())
	ceiling := 4.0 / (900e-9 * Type1Tax)
	if pps > 1.02*ceiling {
		t.Fatalf("type-1 pps %.0f exceeds taxed ceiling %.0f", pps, ceiling)
	}
}

func TestType2SurrendersCores(t *testing.T) {
	b := NewType2(4)
	topo := b.Node.Opts.Topology
	if len(topo.NetCores) != 3 || len(topo.StorCores) != 3 {
		t.Fatalf("type-2 topology %v/%v cores, want 3/3 (QEMU + guest OS tax)", len(topo.NetCores), len(topo.StorCores))
	}
}

func TestType2IPCCrossesRPC(t *testing.T) {
	b := NewType2(5)
	coord := b.Coordinator()
	start := b.Node.Now()
	var doneAt sim.Time
	coord.ConfigureDevice(0, func(bool) { doneAt = b.Node.Now() })
	b.Run(sim.Time(10 * sim.Millisecond))
	if doneAt == 0 {
		t.Fatal("coordination never completed")
	}
	rtt := doneAt.Sub(start)
	if rtt < 2*RPCPerHop {
		t.Fatalf("type-2 coordination RTT %v below the RPC floor %v", rtt, 2*RPCPerHop)
	}
}

func TestNaiveModeConfigured(t *testing.T) {
	tc := NewNaive(6)
	if !tc.Cfg.NaiveCoSchedule {
		t.Fatal("naive baseline lost its flag")
	}
}
