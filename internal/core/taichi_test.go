package core

import (
	"testing"

	"repro/internal/controlplane"
	"repro/internal/sim"
)

func TestNativeCoordinatorsRouteToTheirServices(t *testing.T) {
	tc := newTaiChi(40, nil)
	net := NewNetCoordinator(tc.Node)
	stor := NewStorCoordinator(tc.Node)
	netDone, storDone := false, false
	net.ConfigureDevice(0, func(ok bool) { netDone = ok })
	stor.ConfigureDevice(0, func(ok bool) { storDone = ok })
	tc.Run(sim.Time(sim.Millisecond))
	if !netDone || !storDone {
		t.Fatalf("net=%v stor=%v", netDone, storDone)
	}
	if tc.Node.Net.TotalProcessed() != 1 || tc.Node.Stor.TotalProcessed() != 1 {
		t.Fatal("ops landed on the wrong service")
	}
}

// TestRPCCoordinatorTwoHopRTT: an RPC round trip costs exactly the
// native op plus one hop out and one hop back.
func TestRPCCoordinatorTwoHopRTT(t *testing.T) {
	const perHop = 25 * sim.Microsecond
	doneAt := func(rpc bool) sim.Time {
		tc := newTaiChi(41, nil)
		var coord controlplane.DPCoordinator = NewNetCoordinator(tc.Node)
		if rpc {
			coord = &RPCCoordinator{Inner: coord, Engine: tc.Node.Engine, PerHop: perHop}
		}
		var at sim.Time
		coord.ConfigureDevice(0, func(ok bool) {
			if !ok {
				t.Error("native op NACKed")
			}
			at = tc.Node.Now()
		})
		tc.Run(sim.Time(10 * sim.Millisecond))
		if at == 0 {
			t.Fatal("op never completed")
		}
		return at
	}
	// Both ops are issued at time 0, so completion times are RTTs.
	native, viaRPC := doneAt(false), doneAt(true)
	if viaRPC != native.Add(2*perHop) {
		t.Fatalf("RPC RTT %v, want native %v + two %v hops", viaRPC, native, perHop)
	}
}

// nackCoord refuses every op after a fixed delay.
type nackCoord struct {
	engine *sim.Engine
	delay  sim.Duration
}

func (n nackCoord) ConfigureDevice(flow int, done func(ok bool)) {
	n.engine.Schedule(n.delay, func() { done(false) })
}

// TestRPCCoordinatorForwardsNack: a NACK from the coordinator behind the
// RPC hop reaches the caller as done(false), after the return hop.
func TestRPCCoordinatorForwardsNack(t *testing.T) {
	const perHop, nackDelay = 25 * sim.Microsecond, 5 * sim.Microsecond
	e := sim.NewEngine()
	rpc := &RPCCoordinator{Inner: nackCoord{engine: e, delay: nackDelay}, Engine: e, PerHop: perHop}
	calls := 0
	var outcome bool
	var doneAt sim.Time
	rpc.ConfigureDevice(0, func(ok bool) { calls, outcome, doneAt = calls+1, ok, e.Now() })
	e.Run(sim.Time(sim.Millisecond))
	if calls != 1 || outcome {
		t.Fatalf("done called %d times, last ok=%v; want once with false", calls, outcome)
	}
	if want := sim.Time(2*perHop + nackDelay); doneAt != want {
		t.Fatalf("NACK delivered at %v, want %v (after the return hop)", doneAt, want)
	}
}

func TestCPAffinityCoversCPAndVCPUs(t *testing.T) {
	tc := newTaiChi(42, nil)
	ids := tc.CPAffinity()
	if len(ids) != 4+tc.Cfg.VCPUs {
		t.Fatalf("affinity covers %d CPUs, want %d", len(ids), 4+tc.Cfg.VCPUs)
	}
}

func TestNewDefaultIsRunnable(t *testing.T) {
	tc := NewDefault(43)
	tc.Run(sim.Time(10 * sim.Millisecond))
	if tc.Node.Now() != sim.Time(10*sim.Millisecond) {
		t.Fatal("clock did not advance")
	}
	if tc.DriverLock == nil || tc.Sched == nil {
		t.Fatal("incomplete assembly")
	}
}
