package cluster

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sim"
)

func TestVMStartupOnStatic(t *testing.T) {
	b := baseline.NewStaticDefault(1)
	cfg := DefaultConfig(1)
	cfg.VMs = 10
	mgr := NewManager(b, cfg)
	mgr.Start()
	b.Run(sim.Time(5 * sim.Second))
	if mgr.Completed != 10 {
		t.Fatalf("completed %d/10 VMs", mgr.Completed)
	}
	// Startup = device init + QEMU time, at least the QEMU floor.
	if mgr.StartupTime.Min() < qemuTime {
		t.Fatalf("startup min %v below QEMU floor %v", mgr.StartupTime.Min(), qemuTime)
	}
	if mgr.NormalizedStartup() <= 0 {
		t.Fatal("no normalized startup")
	}
	if mgr.MeanCPExec() <= 0 {
		t.Fatal("no CP exec time recorded")
	}
}

func TestVMStartupOnTaiChi(t *testing.T) {
	tc := core.NewDefault(2)
	cfg := DefaultConfig(1)
	cfg.VMs = 10
	mgr := NewManager(tc, cfg)
	mgr.Start()
	tc.Run(sim.Time(5 * sim.Second))
	if mgr.Completed != 10 {
		t.Fatalf("completed %d/10 VMs", mgr.Completed)
	}
}

func TestDensityScalesDegradation(t *testing.T) {
	run := func(density float64) sim.Duration {
		b := baseline.NewStaticDefault(3)
		mgr := NewManager(b, DefaultConfig(density))
		mgr.Start()
		b.Run(sim.Time(6 * sim.Second))
		if mgr.CPExecTime.Count() == 0 {
			t.Fatalf("no VMs completed device init at density %v", density)
		}
		return mgr.MeanCPExec()
	}
	low := run(1)
	high := run(4)
	if high <= low {
		t.Fatalf("CP exec at 4x density (%v) not worse than 1x (%v)", high, low)
	}
	// Figure 2 shape: substantial degradation, not marginal.
	if float64(high)/float64(low) < 2 {
		t.Fatalf("degradation only %.2fx; expected the Figure 2 knee", float64(high)/float64(low))
	}
}

func TestStopHaltsNewCreations(t *testing.T) {
	b := baseline.NewStaticDefault(4)
	mgr := NewManager(b, DefaultConfig(1))
	mgr.Start()
	b.Run(sim.Time(2 * sim.Second))
	mgr.Stop()
	at := mgr.Issued
	b.Run(sim.Time(4 * sim.Second))
	if mgr.Issued > at+1 {
		t.Fatalf("creations kept arriving after Stop: %d → %d", at, mgr.Issued)
	}
}

func TestMonitorsScaleWithDensity(t *testing.T) {
	b := baseline.NewStaticDefault(5)
	cfg := DefaultConfig(3)
	cfg.VMs = 1
	mgr := NewManager(b, cfg)
	mgr.Start()
	b.Run(sim.Time(100 * sim.Millisecond))
	// 20 monitors per density × 3 = 60 monitor threads plus the VM job.
	monitors := 0
	for _, th := range b.Node.Kernel.Threads() {
		if len(th.Name) >= 7 && th.Name[:7] == "monitor" {
			monitors++
		}
	}
	if monitors != 60 {
		t.Fatalf("monitors = %d, want 60", monitors)
	}
}

func TestDeviceInventoryTracksLifecycle(t *testing.T) {
	b := baseline.NewStaticDefault(6)
	cfg := DefaultConfig(1)
	cfg.VMs = 5
	cfg.VMLifetime = 2 * sim.Second
	mgr := NewManager(b, cfg)
	mgr.Start()
	b.Run(sim.Time(1500 * sim.Millisecond))
	// Mid-run: 5 VMs × 5 devices provisioned and (mostly) active.
	if mgr.Devices.Provisioned != 25 {
		t.Fatalf("provisioned %d device records, want 25", mgr.Devices.Provisioned)
	}
	if mgr.Devices.Active() == 0 {
		t.Fatal("no devices active mid-run")
	}
	if mgr.Devices.ProvisionLatency.Count() == 0 {
		t.Fatal("no provision latencies recorded")
	}
	// Let lifetimes expire and teardowns drain.
	b.Run(sim.Time(20 * sim.Second))
	if mgr.Destroyed == 0 {
		t.Fatal("no VM teardown ran despite finite lifetimes")
	}
	if mgr.Devices.Destroyed == 0 {
		t.Fatal("no device records released")
	}
	kinds := mgr.Devices.CountByKind()
	if kinds[device.ENIC] > 5 || kinds[device.VBlk] > 20 {
		t.Fatalf("inventory leak: %v", kinds)
	}
}
