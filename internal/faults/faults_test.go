package faults_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestParseSpec(t *testing.T) {
	for _, off := range []string{"", "off", "none"} {
		s, err := faults.ParseSpec(off)
		if err != nil || !s.Zero() {
			t.Fatalf("ParseSpec(%q) = %+v, %v; want zero", off, s, err)
		}
	}
	s, err := faults.ParseSpec("default")
	if err != nil || s != faults.DefaultSpec() {
		t.Fatalf("ParseSpec(default) = %+v, %v", s, err)
	}
	s, err = faults.ParseSpec("probe-miss=0.2, ipi-drop=0.05,offline-mtbf=20ms,ipi-delay-mean=30us")
	if err != nil {
		t.Fatal(err)
	}
	if s.ProbeMissRate != 0.2 || s.IPIDropRate != 0.05 ||
		s.CoreOfflineMTBF != 20*sim.Millisecond || s.IPIDelayMean != 30*sim.Microsecond {
		t.Fatalf("parsed %+v", s)
	}
	for _, bad := range []string{
		"probe-miss",                    // not key=value
		"bogus-key=1",                   // unknown key
		"probe-miss=1.5",                // rate out of range
		"probe-miss=x",                  // not a number
		"offline-mtbf=5",                // bare number is not a duration
		"offline-mtbf=-5ms",             // negative duration
		"probe-miss=NaN",                // NaN is no rate
		"probe-miss=0.1,probe-miss=0.9", // key given twice
	} {
		_, err := faults.ParseSpec(bad)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
			continue
		}
		if key, _, ok := strings.Cut(bad, "="); ok && !strings.Contains(err.Error(), key) {
			t.Errorf("ParseSpec(%q) error %q does not name the key", bad, err)
		}
	}
}

func TestSpecScaled(t *testing.T) {
	base := faults.DefaultSpec()
	doubled := base.Scaled(2)
	if doubled.ProbeMissRate != 2*base.ProbeMissRate {
		t.Fatalf("rate not scaled: %v", doubled.ProbeMissRate)
	}
	if doubled.CoreOfflineMTBF != base.CoreOfflineMTBF/2 {
		t.Fatalf("MTBF not divided: %v", doubled.CoreOfflineMTBF)
	}
	if doubled.CPHangMean != base.CPHangMean {
		t.Fatalf("intensity mean must not scale: %v", doubled.CPHangMean)
	}
	capped := faults.Spec{IPIDropRate: 0.6}.Scaled(10)
	if capped.IPIDropRate != 1 {
		t.Fatalf("rate not capped: %v", capped.IPIDropRate)
	}
	if !base.Scaled(0).Zero() {
		t.Fatal("Scaled(0) must be the zero spec")
	}
}

// runChaos drives one mixed workload (background traffic, ping, CP tasks
// wrapped by the injector) and returns the node's Describe output plus
// the injected-fault counts line.
func runChaos(seed int64, spec faults.Spec) (*core.TaiChi, *faults.Injector, string) {
	tc := core.NewDefault(seed)
	inj := faults.NewInjector(spec)
	inj.Attach(tc)

	bg := workload.NewBackground(tc.Node, workload.DefaultBackground(0.3))
	bg.Start()
	pc := workload.DefaultPing()
	pc.Count = 40
	ping := workload.NewPing(tc.Node, pc)
	ping.Start(nil)
	// Oversubscribe the 4 CP pCPUs so CP demand spills onto lent DP
	// cores for the whole run — that is where the probe, reclaim, and
	// watchdog paths live.
	cfg := controlplane.DefaultSynthCP()
	cfg.Total = 40 * sim.Millisecond
	for i := 0; i < 12; i++ {
		prog := controlplane.SynthCP(cfg, tc.Stream(fmt.Sprintf("cp%d", i)))
		tc.SpawnCP(fmt.Sprintf("cp%d", i), inj.WrapCP(prog))
	}
	tc.Run(sim.Time(50 * sim.Millisecond))
	return tc, inj, tc.Describe() + inj.Counts.String()
}

func TestZeroSpecAttachIsNoOp(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		plain := core.NewDefault(seed)
		bgP := workload.NewBackground(plain.Node, workload.DefaultBackground(0.3))
		bgP.Start()
		plain.Run(sim.Time(20 * sim.Millisecond))

		injected := core.NewDefault(seed)
		inj := faults.NewInjector(faults.Spec{})
		inj.Attach(injected)
		bgI := workload.NewBackground(injected.Node, workload.DefaultBackground(0.3))
		bgI.Start()
		injected.Run(sim.Time(20 * sim.Millisecond))

		if got, want := injected.Describe(), plain.Describe(); got != want {
			t.Fatalf("seed %d: zero-spec attach changed Describe:\n--- plain ---\n%s--- injected ---\n%s", seed, want, got)
		}
		if got, want := injected.Engine().Fired(), plain.Engine().Fired(); got != want {
			t.Fatalf("seed %d: zero-spec attach changed event count: %d != %d", seed, got, want)
		}
		if injected.Sched.DefenseMode() != core.ModeNormal {
			t.Fatal("zero-spec attach armed the defense")
		}
	}
}

func TestFaultRunsAreDeterministic(t *testing.T) {
	_, _, a := runChaos(11, faults.DefaultSpec())
	_, _, b := runChaos(11, faults.DefaultSpec())
	if a != b {
		t.Fatalf("same seed+spec diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	_, _, c := runChaos(12, faults.DefaultSpec())
	if a == c {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestInjectionAndRecovery(t *testing.T) {
	spec := faults.DefaultSpec().Scaled(4)
	tc, inj, _ := runChaos(21, spec)
	if inj.Counts.Total() == 0 {
		t.Fatal("nothing injected")
	}
	if tc.Sched.FaultsDetected.Value() == 0 {
		t.Fatalf("no faults detected by the defense; injected: %s", inj.Counts)
	}
	// The node must have kept serving traffic through the faults.
	if tc.Node.Net.TotalProcessed() == 0 {
		t.Fatal("dataplane stopped processing")
	}
	if tc.Sched.DefenseMode() == core.ModeNormal && tc.Sched.FaultsRecovered.Value() == 0 {
		t.Fatal("defense neither recovered nor degraded under heavy faults")
	}
}

func TestProbeMissFallback(t *testing.T) {
	// Every probe IRQ lost: the sliding-window detector must disqualify
	// the hardware probe and fall back to slice-expiry reclaim.
	tc, _, _ := runChaos(31, faults.Spec{ProbeMissRate: 1})
	if tc.Sched.ProbeFallbacks.Value() == 0 {
		t.Fatalf("probe never disqualified (mode=%v detected=%d)",
			tc.Sched.DefenseMode(), tc.Sched.FaultsDetected.Value())
	}
	if tc.Node.Probe.Enabled {
		t.Fatal("hardware probe still enabled after fallback")
	}
	if tc.Sched.DefenseMode() != core.ModeSWProbe {
		t.Fatalf("mode = %v, want sw-probe", tc.Sched.DefenseMode())
	}
}

func TestCoreOfflineEvents(t *testing.T) {
	spec := faults.Spec{
		CoreOfflineMTBF: 2 * sim.Millisecond,
		CoreOfflineMean: 500 * sim.Microsecond,
	}
	tc, inj, _ := runChaos(41, spec)
	offline := inj.Counts.Counters()[6]
	if offline.Name() != "offline" {
		t.Fatalf("counter order changed: %s", offline.Name())
	}
	if offline.Value() == 0 {
		t.Fatal("no offline events fired")
	}
	for _, dp := range tc.Node.DPCores() {
		if dp.Down() {
			continue // may legitimately end the run offline
		}
	}
	if tc.Node.Net.TotalProcessed() == 0 {
		t.Fatal("dataplane never processed despite online cores")
	}
}

func TestWrapCPCrashAndHang(t *testing.T) {
	tc := core.NewDefault(51)
	inj := faults.NewInjector(faults.Spec{CPCrashRate: 1})
	inj.Attach(tc)
	var ran, finished bool
	prog := kernel.ProgramFunc(func(*kernel.Thread) (kernel.Segment, bool) {
		ran = true
		return kernel.Segment{Kind: kernel.SegCompute, Dur: sim.Microsecond}, true
	})
	th := tc.SpawnCP("victim", inj.WrapCP(prog))
	th.OnExit = func(*kernel.Thread) { finished = true }
	tc.Run(sim.Time(5 * sim.Millisecond))
	if ran {
		t.Fatal("crash-rate-1 task still executed its program")
	}
	if !finished {
		t.Fatal("crashed task never exited")
	}

	// Unarmed injector must return the program unchanged.
	plain := faults.NewInjector(faults.Spec{})
	if got := plain.WrapCP(prog); fmt.Sprintf("%p", got) == "" || !isSameProgram(got, prog) {
		t.Fatal("zero-spec WrapCP must return prog unchanged")
	}
}

func isSameProgram(a, b kernel.Program) bool {
	return fmt.Sprintf("%v", a) == fmt.Sprintf("%v", b)
}

func TestCountsRendering(t *testing.T) {
	inj := faults.NewInjector(faults.Spec{})
	want := "faults: probe-miss=0 spurious=0 ipi-drop=0 ipi-delay=0 exit-stall=0 lock-stall=0 offline=0 cp-crash=0 cp-hang=0 nack=0 partial-init=0 coord-timeout=0"
	if got := inj.Counts.String(); got != want {
		t.Fatalf("Counts = %q, want %q", got, want)
	}
	if !strings.HasPrefix(want, "faults:") {
		t.Fatal("unreachable")
	}
}
