package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// Once warm, the packet path allocates nothing: under 0.9 DP background
// on a Tai Chi node with the overload ladder on, trains enter the
// accelerator as stack values and ride one completion event, the DP cores'
// queues and burst buffers are reused, and a whole 10 ms simulated window
// allocates nothing. The warm-up is 500 ms because a ring still grows,
// rarely, whenever a burst sets a new high-water mark of queued packets or
// pending events. Recording is off, so the tracer's chunks do not count.
func TestPacketPathAllocFree(t *testing.T) {
	tc := core.NewDefault(1)
	tc.Node.Tracer.EnableOnly()
	tc.Sched.EnableOverload(core.DefaultOverloadPolicy())
	bg := NewBackground(tc.Node, DefaultBackground(0.9))
	bg.Start()
	tc.Run(sim.Time(500 * sim.Millisecond))
	before, processed := bg.Packets.Value(), tc.Node.Net.TotalProcessed()
	window := func() { tc.Run(tc.Engine().Now().Add(10 * sim.Millisecond)) }
	// One warm-up window, then one measured window.
	allocs := testing.AllocsPerRun(1, window)
	if sent := bg.Packets.Value() - before; sent < 10000 {
		t.Fatalf("%d packets in 20 ms, want the 0.9 background", sent)
	}
	if tc.Node.Net.TotalProcessed() == processed {
		t.Fatal("the net DP processed no packets")
	}
	if allocs != 0 {
		t.Fatalf("the packet path allocates %v per 10 simulated ms, want 0", allocs)
	}
}
