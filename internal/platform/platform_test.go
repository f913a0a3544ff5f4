package platform

import (
	"math"
	"strings"
	"testing"

	"repro/internal/accel"
	"repro/internal/dataplane"
	"repro/internal/sim"
)

func TestDefaultTopology(t *testing.T) {
	topo := DefaultTopology()
	if len(topo.NetCores) != 4 || len(topo.StorCores) != 4 || len(topo.CPCores) != 4 {
		t.Fatalf("topology %+v, want 4/4/4 (Table 4: 12 SmartNIC cores)", topo)
	}
	if got := len(topo.DPCores()); got != 8 {
		t.Fatalf("DPCores = %d", got)
	}
}

func TestNodeAssembly(t *testing.T) {
	n := NewNode(DefaultOptions())
	if n.Net == nil || n.Stor == nil || n.Pipe == nil || n.Kernel == nil {
		t.Fatal("incomplete assembly")
	}
	if n.Probe == nil {
		t.Fatal("default options fit the hardware probe")
	}
	if len(n.Kernel.CPUs()) != 4 {
		t.Fatalf("kernel sees %d CPUs, want the 4 CP cores", len(n.Kernel.CPUs()))
	}
	if len(n.DPCores()) != 8 {
		t.Fatalf("DP cores %d", len(n.DPCores()))
	}
	for _, id := range DefaultTopology().DPCores() {
		if n.DPCore(id) == nil {
			t.Fatalf("missing DP core %d", id)
		}
	}
}

// DPCore finds each DP core by id in a sparse topology, and returns nil
// for a CP core, a gap, a negative id and an id past the last core. A
// packet routed to a core that is not a DP core panics on delivery.
func TestDPCoreLookup(t *testing.T) {
	opts := DefaultOptions()
	opts.Topology = Topology{NetCores: []int{5, 2}, StorCores: []int{9}, CPCores: []int{0}}
	n := NewNode(opts)
	for _, id := range opts.Topology.DPCores() {
		if c := n.DPCore(id); c == nil || c.ID != id {
			t.Fatalf("DPCore(%d) = %v", id, c)
		}
	}
	for _, id := range []int{0, 3, -1, 10, 1 << 20} {
		if c := n.DPCore(id); c != nil {
			t.Fatalf("DPCore(%d) = core %d, want nil", id, c.ID)
		}
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "unknown DP core 3") {
			t.Fatalf("delivery to core 3 recovered %v, want the unknown-core panic", r)
		}
	}()
	n.Pipe.Inject(&accel.Packet{Core: 3, Work: sim.Microsecond})
	n.Run(sim.Time(sim.Millisecond))
}

func TestNoProbeOption(t *testing.T) {
	opts := DefaultOptions()
	opts.HWProbe = false
	n := NewNode(opts)
	if n.Probe != nil {
		t.Fatal("probe fitted despite HWProbe=false")
	}
}

func TestInjectRouting(t *testing.T) {
	n := NewNode(DefaultOptions())
	var netDone, storDone bool
	n.InjectNet(0, sim.Microsecond, func(*accel.Packet, sim.Time) { netDone = true })
	n.InjectStor(0, sim.Microsecond, func(*accel.Packet, sim.Time) { storDone = true })
	n.Run(sim.Time(sim.Millisecond))
	if !netDone || !storDone {
		t.Fatalf("net=%v stor=%v", netDone, storDone)
	}
	if n.Net.TotalProcessed() != 1 || n.Stor.TotalProcessed() != 1 {
		t.Fatal("packets routed to wrong service")
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (uint64, sim.Time) {
		n := NewNode(DefaultOptions())
		r := n.Stream("gen")
		var last sim.Time
		var pump func()
		pump = func() {
			n.InjectNet(r.Intn(16), sim.Microsecond, func(_ *accel.Packet, at sim.Time) { last = at })
			n.Engine.Schedule(sim.Exponential(r, 10*sim.Microsecond), pump)
		}
		n.Engine.Schedule(1, pump)
		n.Run(sim.Time(10 * sim.Millisecond))
		return n.Engine.Fired(), last
	}
	f1, l1 := run()
	f2, l2 := run()
	if f1 != f2 || l1 != l2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", f1, l1, f2, l2)
	}
}

func TestEmptyTopologyPanics(t *testing.T) {
	opts := DefaultOptions()
	opts.Topology = Topology{}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewNode(opts)
}

// Negative core ids cannot index the per-core tables, so New rejects
// them in every core set instead of accepting the topology.
func TestNegativeCoreIDRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Topology)
	}{
		{"net", func(t *Topology) { t.NetCores = append(t.NetCores, -1) }},
		{"stor", func(t *Topology) { t.StorCores = append(t.StorCores, -2) }},
		{"cp", func(t *Topology) { t.CPCores = append(t.CPCores, -3) }},
	} {
		opts := DefaultOptions()
		tc.mut(&opts.Topology)
		n, err := New(opts)
		if err == nil || n != nil {
			t.Errorf("%s: New accepted a negative core id", tc.name)
		} else if !strings.Contains(err.Error(), "negative") {
			t.Errorf("%s: error %q does not name the negative id", tc.name, err)
		}
	}
}

// A negative or NaN DP cost-model field is an error naming the service
// and the field; zero still means the default.
func TestMalformedDataplaneConfigRejected(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		field string
		mut   func(*dataplane.Config)
	}{
		{"EmptyPollCost", func(c *dataplane.Config) { c.EmptyPollCost = -1 }},
		{"Burst", func(c *dataplane.Config) { c.Burst = -4 }},
		{"TaxFactor", func(c *dataplane.Config) { c.TaxFactor = -1.5 }},
		{"TaxFactor", func(c *dataplane.Config) { c.TaxFactor = nan }},
	} {
		for _, svc := range []string{"Net", "Stor"} {
			opts := DefaultOptions()
			cfg := &opts.Net
			if svc == "Stor" {
				cfg = &opts.Stor
			}
			tc.mut(cfg)
			n, err := New(opts)
			want := svc + "." + tc.field
			if err == nil || n != nil {
				t.Errorf("%s: New accepted a malformed value", want)
			} else if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q does not name the field", want, err)
			}
		}
	}
	opts := DefaultOptions()
	opts.Net, opts.Stor = dataplane.Config{}, dataplane.Config{}
	if _, err := New(opts); err != nil {
		t.Fatalf("zero DP cost models must take the defaults: %v", err)
	}
}

func TestUnknownCorePanics(t *testing.T) {
	n := NewNode(DefaultOptions())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	n.Pipe.Inject(&accel.Packet{Core: 99})
	n.Run(sim.Time(sim.Millisecond))
}
