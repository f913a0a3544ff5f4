package workload

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
)

// Once warm, an app request allocates nothing: every connection, thread
// or job is one client whose callbacks were bound when its model started,
// so a request's passes and waits hand the engine and the pipeline only
// those. Each model runs on a static node past a 100 ms warm-up; then
// one window warms the rings further and a second is measured, and it
// must serve at least 10k requests at under 0.01 allocations each.
func TestAppPathAllocFree(t *testing.T) {
	cases := []struct {
		name   string
		window sim.Duration
		start  func(node *platform.Node) (served func() uint64)
	}{
		{"mysql", 30 * sim.Millisecond, func(node *platform.Node) func() uint64 {
			m := NewMySQL(node, DefaultMySQL())
			m.Start()
			return m.Queries.Value
		}},
		{"nginx", 20 * sim.Millisecond, func(node *platform.Node) func() uint64 {
			cfg := DefaultNginx(true, true)
			cfg.Connections = 2000
			n := NewNginx(node, cfg)
			n.Start()
			return n.Requests.Value
		}},
		{"nginx-phased", 20 * sim.Millisecond, func(node *platform.Node) func() uint64 {
			cfg := DefaultNginx(false, false)
			cfg.Connections = 2000
			cfg.Phase = NewPhaser(node.Engine, node.Stream("fig16.phase"), 700*sim.Microsecond, 250*sim.Microsecond)
			n := NewNginx(node, cfg)
			n.Start()
			return n.Requests.Value
		}},
		{"crr", 40 * sim.Millisecond, func(node *platform.Node) func() uint64 {
			c := NewCRR(node, DefaultCRR())
			c.Start()
			return c.Txns.Value
		}},
		{"stream", 10 * sim.Millisecond, func(node *platform.Node) func() uint64 {
			s := NewStream(node, DefaultStream())
			s.Start()
			return s.Packets.Value
		}},
		{"stream-open", 20 * sim.Millisecond, func(node *platform.Node) func() uint64 {
			cfg := DefaultStream()
			cfg.OfferedRate = 1e6
			s := NewStream(node, cfg)
			s.Start()
			return s.Packets.Value
		}},
		{"rr", 20 * sim.Millisecond, func(node *platform.Node) func() uint64 {
			rr := NewRR(node, DefaultRR())
			rr.Start()
			return rr.Rounds.Value
		}},
		{"fio", 20 * sim.Millisecond, func(node *platform.Node) func() uint64 {
			f := NewFio(node)
			f.Start()
			return f.Ops.Value
		}},
		{"ping", 11 * sim.Second, func(node *platform.Node) func() uint64 {
			p := NewPing(node, PingConfig{Count: 1 << 30})
			p.Start(nil)
			return p.RTT.Count
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			node := staticNode(12)
			served := c.start(node)
			node.Run(sim.Time(100 * sim.Millisecond))
			var n uint64
			window := func() {
				from := served()
				node.Run(node.Now().Add(c.window))
				n = served() - from
			}
			allocs := testing.AllocsPerRun(1, window)
			if n < 10000 {
				t.Fatalf("%d requests in %v, want at least 10k", n, c.window)
			}
			if per := allocs / float64(n); per >= 0.01 {
				t.Fatalf("%.0f allocations over %d requests: %.3f per request, want under 0.01", allocs, n, per)
			}
		})
	}
}
