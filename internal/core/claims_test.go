package core

import (
	"fmt"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/vcpu"
)

// checkClaims holds the scheduler's per-vCPU state to the slots: a vCPU
// is claimed exactly when one slot holds it as occupant or pending entry,
// or it runs on a CP core (lock rescue); and its slot is the inverse of
// occupant. It returns the first violation, or "".
func checkClaims(s *Scheduler) string {
	for i, v := range s.vcpus {
		st := s.pool[i]
		var occupied *dpSlot
		held := 0
		for _, slot := range s.slots {
			if slot.occupant == v {
				occupied = slot
				held++
			}
			if slot.pendingEnter == v {
				held++
			}
		}
		onCP := v.Core() >= 0 && s.slotAt(v.Core()) == nil
		switch {
		case held > 1 || held == 1 && onCP:
			return fmt.Sprintf("vCPU %d held %d times by DP slots (on a CP core: %v)", v.ID(), held, onCP)
		case st.claimed != (held == 1 || onCP):
			return fmt.Sprintf("vCPU %d claimed=%v, held by a DP slot=%v, on a CP core=%v",
				v.ID(), st.claimed, held == 1, onCP)
		case st.slot != occupied:
			return fmt.Sprintf("vCPU %d records slot %p, occupies %p", v.ID(), st.slot, occupied)
		}
	}
	return ""
}

// stepChecked runs tc one event at a time until horizon, checking the
// claims after every event, and returns how many events left some vCPU
// hosted on a CP core.
func stepChecked(t *testing.T, tc *TaiChi, horizon sim.Time) (cpHosted int) {
	t.Helper()
	e := tc.Engine()
	for steps := 0; e.Now() < horizon && e.Step(); steps++ {
		if msg := checkClaims(tc.Sched); msg != "" {
			t.Fatalf("after event %d at %v: %s", steps, e.Now(), msg)
		}
		for _, v := range tc.Sched.vcpus {
			if v.Core() >= 0 && tc.Sched.slotAt(v.Core()) == nil {
				cpHosted++
				break
			}
		}
	}
	return cpHosted
}

// pumpPackets injects net packets at exponential gaps, so probe IRQs
// reclaim lent cores.
func pumpPackets(tc *TaiChi, gap sim.Duration) {
	r := tc.Stream("pkts")
	var pump func()
	pump = func() {
		tc.Node.InjectNet(r.Intn(64), sim.Microsecond, nil)
		tc.Node.Engine.Schedule(sim.Exponential(r, gap), pump)
	}
	tc.Node.Engine.Schedule(1, pump)
}

// A faulted, recovery-armed lend run: stalled VM exits take the heap
// instead of the exit lane, dropped and delayed IPIs trip the watchdogs,
// spurious probe IRQs and offlined cores revoke lends and abort pending
// entries. The claims must hold after every single event.
func TestClaimsMatchSlotsUnderFaults(t *testing.T) {
	tc := newTaiChi(31, nil)
	tc.Sched.EnableDefense(DefaultDefenseConfig())
	tc.Sched.EnableRecovery(DefaultRecoveryPolicy())
	r := tc.Stream("test.faults")
	for _, v := range tc.Sched.VCPUs() {
		v.ExitStall = func(*vcpu.VCPU) sim.Duration {
			if r.Float64() < 0.2 {
				return sim.Exponential(r, 30*sim.Microsecond)
			}
			return 0
		}
	}
	tc.Node.Kernel.IPIFault = func(kernel.CPUID, kernel.Vector) (bool, sim.Duration) {
		switch x := r.Float64(); {
		case x < 0.05:
			return true, 0
		case x < 0.15:
			return false, sim.Exponential(r, 20*sim.Microsecond)
		}
		return false, 0
	}
	cores := tc.Node.DPCores()
	tc.Engine().NewTimer(100*sim.Microsecond, "", func() {
		// Aim at an open softirq window when there is one: the abort of
		// a pending entry is the narrowest path to the claims.
		dp := cores[r.Intn(len(cores))]
		for _, slot := range tc.Sched.slots {
			if slot.pendingEnter != nil {
				dp = slot.dp
				break
			}
		}
		if r.Intn(2) == 0 {
			tc.Node.Probe.InjectSpurious(dp.ID)
		} else if !dp.Down() {
			tc.Sched.SetCoreDown(dp.ID, true)
			tc.Engine().Schedule(sim.Exponential(r, 300*sim.Microsecond), func() {
				tc.Sched.SetCoreDown(dp.ID, false)
			})
		}
	}).Reset(100 * sim.Microsecond)
	for i := 0; i < 6; i++ {
		spawnHogs(tc, 1)
		n := 0
		tc.SpawnCP("napper", &kernel.LoopProgram{Total: 10 * sim.Second, Gen: func(sim.Duration) kernel.Segment {
			n++
			if n%2 == 0 {
				return kernel.Segment{Kind: kernel.SegSleep, Dur: 90 * sim.Microsecond}
			}
			return kernel.Segment{Kind: kernel.SegCompute, Dur: 60 * sim.Microsecond}
		}})
	}
	pumpPackets(tc, 80*sim.Microsecond)
	stepChecked(t, tc, sim.Time(60*sim.Millisecond))
	if tc.Sched.Preempts.Value() == 0 || tc.Sched.FaultsDetected.Value() == 0 {
		t.Fatalf("preempts=%d faults detected=%d: the run exercised no reclaim under faults",
			tc.Sched.Preempts.Value(), tc.Sched.FaultsDetected.Value())
	}
}

// Lock rescue onto CP pCPUs: lock holders preempted on lent cores are
// re-hosted, some on CP cores, and the claims must hold after every
// event there too.
func TestClaimsMatchSlotsWithCPRescue(t *testing.T) {
	tc := newTaiChi(8, nil)
	cfg := controlplane.DefaultSynthCP()
	cfg.Total = 20 * sim.Millisecond
	cfg.NonPreemptFrac = 0.5
	cfg.Lock = tc.DriverLock
	for i := 0; i < 10; i++ {
		tc.SpawnCP("locker", controlplane.SynthCP(cfg, tc.Stream("locker")))
	}
	pumpPackets(tc, 50*sim.Microsecond)
	if hosted := stepChecked(t, tc, sim.Time(200*sim.Millisecond)); hosted == 0 {
		t.Fatalf("no vCPU was ever hosted on a CP core (rescues=%d)", tc.Sched.Rescues.Value())
	}
}
