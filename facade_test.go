package taichi_test

import (
	"fmt"
	"testing"

	taichi "repro"
	"repro/internal/cluster"
	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/kernel"
)

func TestFacadeQuickstart(t *testing.T) {
	sys := taichi.New(1)
	job := sys.SpawnCP("job", controlplane.SynthCP(controlplane.DefaultSynthCP(), sys.Stream("job")))
	sys.Run(taichi.Seconds(1))
	if job.State() != kernel.StateDone {
		t.Fatalf("job state %v", job.State())
	}
}

func TestFacadeStaticBaseline(t *testing.T) {
	b := taichi.NewStatic(2)
	job := b.SpawnCP("job", controlplane.SynthCP(controlplane.DefaultSynthCP(), b.Node.Stream("job")))
	b.Run(taichi.Seconds(1))
	if job.State() != kernel.StateDone {
		t.Fatalf("job state %v", job.State())
	}
}

// A custom scheduler configuration reaches the scheduler: under the same
// CP load, the default software probe adapts its yield threshold and a
// config with AdaptiveYield off keeps it fixed.
func TestFacadeCustomConfig(t *testing.T) {
	adaptations := func(sys *taichi.System) uint64 {
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("job%d", i)
			sys.SpawnCP(name, controlplane.SynthCP(controlplane.DefaultSynthCP(), sys.Stream(name)))
		}
		sys.Run(taichi.Milliseconds(10))
		sw := sys.Sched.SWProbe()
		return sw.Raises + sw.Drops
	}
	opts := taichi.DefaultOptions()
	opts.Seed = 3
	cfg := taichi.DefaultConfig()
	if n := adaptations(taichi.NewWithConfig(opts, cfg)); n == 0 {
		t.Fatal("the default probe never adapted its threshold")
	}
	cfg.AdaptiveYield = false
	if n := adaptations(taichi.NewWithConfig(opts, cfg)); n != 0 {
		t.Fatalf("AdaptiveYield=false still adapted the threshold %d times", n)
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	if len(taichi.Experiments()) < 20 {
		t.Fatal("experiment registry incomplete")
	}
	if taichi.ExperimentByID("fig6") == nil {
		t.Fatal("fig6 missing")
	}
	res := taichi.ExperimentByID("fig6").Run(taichi.Quick)
	if res.Values["preprocess_us"] != 2.7 {
		t.Fatalf("fig6 preprocess %.2f", res.Values["preprocess_us"])
	}
}

// TestExperimentParallelDeterminism asserts the fleet-backed Figure 3
// harness renders byte-identical output whether its members run
// sequentially or on a 2- or 8-worker pool — the user-visible face of the
// internal/fleet determinism guarantee.
func TestExperimentParallelDeterminism(t *testing.T) {
	render := func(workers int) string {
		scale := taichi.Quick
		scale.Workers = workers
		return taichi.ExperimentByID("fig3").Run(scale).Render()
	}
	want := render(1)
	for _, workers := range []int{2, 8} {
		if got := render(workers); got != want {
			t.Fatalf("fig3 output differs between 1 and %d workers:\n--- sequential\n%s--- parallel\n%s",
				workers, want, got)
		}
	}
}

// TestFacadeZeroFaultIdentity is the regression contract of the fault
// layer: attaching an injector with a zero-rate spec must be invisible —
// byte-identical Describe output and an identical event count versus a
// run with no injector at all, across seeds.
func TestFacadeZeroFaultIdentity(t *testing.T) {
	for _, seed := range []int64{1, 17, 404} {
		run := func(withInjector bool) (string, uint64) {
			sys := taichi.New(seed)
			if withInjector {
				inj := taichi.NewFaultInjector(taichi.FaultSpec{})
				inj.Attach(sys)
			}
			job := sys.SpawnCP("job", controlplane.SynthCP(controlplane.DefaultSynthCP(), sys.Stream("job")))
			sys.Run(taichi.Seconds(1))
			if job.State() != kernel.StateDone {
				t.Fatalf("seed %d: job state %v", seed, job.State())
			}
			return sys.Describe(), sys.Engine().Fired()
		}
		plainOut, plainFired := run(false)
		injOut, injFired := run(true)
		if plainOut != injOut {
			t.Fatalf("seed %d: zero-fault injector changed Describe output\n--- without\n%s--- with\n%s",
				seed, plainOut, injOut)
		}
		if plainFired != injFired {
			t.Fatalf("seed %d: zero-fault injector changed event count %d -> %d",
				seed, plainFired, injFired)
		}
	}
}

// TestFacadeDefenseArmingOrder: the injector's lost-IPI sweep must run
// whether recovery was enabled before or after the injector attached.
// Enabling recovery first arms the defense machinery without the sweep;
// the later Attach must still start it, so both orders replay the same
// run.
func TestFacadeDefenseArmingOrder(t *testing.T) {
	run := func(recoverFirst bool) (string, uint64) {
		sys := taichi.New(5)
		inj := taichi.NewFaultInjector(taichi.DefaultFaultSpec())
		if recoverFirst {
			sys.Sched.EnableRecovery(core.DefaultRecoveryPolicy())
			inj.Attach(sys)
		} else {
			inj.Attach(sys)
			sys.Sched.EnableRecovery(core.DefaultRecoveryPolicy())
		}
		sys.Run(taichi.Milliseconds(300))
		return sys.Describe(), sys.Engine().Fired()
	}
	attachOut, attachFired := run(false)
	recoverOut, recoverFired := run(true)
	if attachFired != recoverFired {
		t.Fatalf("event count depends on arming order: attach first %d, recover first %d",
			attachFired, recoverFired)
	}
	if attachOut != recoverOut {
		t.Fatalf("Describe output depends on arming order\n--- attach first\n%s--- recover first\n%s",
			attachOut, recoverOut)
	}
}

// TestFacadeZeroOverloadIdentity is the overload layer's regression
// contract, the admission-gate analogue of TestFacadeZeroFaultIdentity:
// a fully populated but not Enabled AdmissionPolicy, plus a wired (but
// never consulted) overload-level hook, must be invisible — identical
// Describe output and event count versus a run that never mentions the
// overload machinery, across seeds. Only Enabled arms the gate, its RNG
// streams, and its timers.
func TestFacadeZeroOverloadIdentity(t *testing.T) {
	for _, seed := range []int64{1, 17, 404} {
		run := func(withHooks bool) (string, uint64) {
			sys := taichi.New(seed)
			cfg := cluster.DefaultConfig(2)
			cfg.VMs = 6
			cfg.VMLifetime = 0
			cfg.Retry = cluster.DefaultRetryPolicy()
			if withHooks {
				pol := taichi.DefaultAdmissionPolicy()
				pol.Enabled = false // populated knobs, gate disarmed
				cfg.Admission = pol
				cfg.OverloadLevel = func() int { return 0 }
			}
			cluster.NewManager(sys, cfg).Start()
			sys.Run(taichi.Seconds(1))
			return sys.Describe(), sys.Engine().Fired()
		}
		plainOut, plainFired := run(false)
		hookOut, hookFired := run(true)
		if plainOut != hookOut {
			t.Fatalf("seed %d: disabled admission gate changed Describe output\n--- without\n%s--- with\n%s",
				seed, plainOut, hookOut)
		}
		if plainFired != hookFired {
			t.Fatalf("seed %d: disabled admission gate changed event count %d -> %d",
				seed, plainFired, hookFired)
		}
	}
}

// TestFacadeZeroPlacementIdentity is the placement layer's regression
// contract, the placed-mode analogue of TestFacadeZeroOverloadIdentity:
// a disabled cluster.PlacementPolicy, with Submit and HostVM called
// anyway, must be invisible — identical Describe output and event count versus a run
// that never mentions placement, across seeds. Only Enabled switches the
// manager into placed mode, derives the per-VM load streams, and parks
// dead-letters for the placer; while false, Submit and HostVM are inert.
func TestFacadeZeroPlacementIdentity(t *testing.T) {
	for _, seed := range []int64{1, 17, 404} {
		run := func(withPolicy bool) (string, uint64) {
			sys := taichi.New(seed)
			cfg := cluster.DefaultConfig(2)
			cfg.VMs = 6
			cfg.VMLifetime = 0
			cfg.Retry = cluster.DefaultRetryPolicy()
			if withPolicy {
				pol := cluster.DefaultPlacementPolicy()
				pol.Enabled = false // placed mode disarmed
				cfg.Placement = pol
			}
			mgr := cluster.NewManager(sys, cfg)
			mgr.Start()
			if withPolicy {
				if req := mgr.Submit(); req != nil {
					t.Fatalf("seed %d: Submit issued a request with placement disabled", seed)
				}
				mgr.HostVM(1)
				if n := mgr.ResidentVMs(); n != 0 {
					t.Fatalf("seed %d: HostVM hosted %d VMs with placement disabled", seed, n)
				}
			}
			sys.Run(taichi.Seconds(1))
			return sys.Describe(), sys.Engine().Fired()
		}
		plainOut, plainFired := run(false)
		polOut, polFired := run(true)
		if plainOut != polOut {
			t.Fatalf("seed %d: disabled placement policy changed Describe output\n--- without\n%s--- with\n%s",
				seed, plainOut, polOut)
		}
		if plainFired != polFired {
			t.Fatalf("seed %d: disabled placement policy changed event count %d -> %d",
				seed, plainFired, polFired)
		}
	}
}

// TestBackwardCompatGolden pins the request-lifecycle layer's
// backward-compatibility contract: with retries disabled and zero fault
// rate, the fig2/fig17 renders are byte-identical to pre-lifecycle main,
// and the whole chaos Quick render (whose fault-rate sweep table matched
// pre-lifecycle main too) stays as pinned in testdata/golden/quick/.
func TestBackwardCompatGolden(t *testing.T) {
	for _, id := range []string{"fig2", "fig17", "chaos"} {
		checkGolden(t, "quick/"+id+".txt", []byte(taichi.ExperimentByID(id).Run(taichi.Quick).Render()))
	}
}

// TestChaosExperimentParallelDeterminism pins the chaos sweep (whose 0x
// level is the zero-fault anchor) to the fleet determinism contract:
// byte-identical rendered output on 1 and 8 workers.
func TestChaosExperimentParallelDeterminism(t *testing.T) {
	render := func(workers int) string {
		scale := taichi.Quick
		scale.Workers = workers
		return taichi.ExperimentByID("chaos").Run(scale).Render()
	}
	want := render(1)
	if got := render(8); got != want {
		t.Fatalf("chaos output differs between 1 and 8 workers:\n--- sequential\n%s--- parallel\n%s",
			want, got)
	}
}

func TestFacadeTimeHelpers(t *testing.T) {
	if taichi.Seconds(1) != 1_000_000_000 {
		t.Fatal("Seconds")
	}
	if taichi.Milliseconds(1.5) != 1_500_000 {
		t.Fatal("Milliseconds")
	}
}
