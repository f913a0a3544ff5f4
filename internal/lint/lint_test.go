package lint_test

import (
	"path/filepath"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// Each fixture suite proves two things: the analyzer fires on every
// violation shape it claims to catch (positive `// want` cases) and
// stays silent on the sanctioned idioms (negative cases — any extra
// diagnostic fails the run).

func TestWallTimeCore(t *testing.T) {
	linttest.Run(t, lint.WallTime,
		filepath.Join("testdata", "walltime", "core"), "repro/internal/kernel")
}

func TestWallTimeDirectiveOutsideCore(t *testing.T) {
	linttest.Run(t, lint.WallTime,
		filepath.Join("testdata", "walltime", "cmdtool"), "repro/cmd/tool")
}

func TestGlobalRand(t *testing.T) {
	linttest.Run(t, lint.GlobalRand,
		filepath.Join("testdata", "globalrand", "sim"), "repro/internal/workload")
}

func TestMapOrder(t *testing.T) {
	linttest.Run(t, lint.MapOrder,
		filepath.Join("testdata", "maporder", "sim"), "repro/internal/metrics")
}

func TestGoroutineCore(t *testing.T) {
	linttest.Run(t, lint.Goroutine,
		filepath.Join("testdata", "goroutine", "core"), "repro/internal/sim")
}

func TestGoroutineLockBanOutsideCore(t *testing.T) {
	linttest.Run(t, lint.Goroutine,
		filepath.Join("testdata", "goroutine", "cmdtool"), "repro/cmd/tool")
}

func TestGoroutineLockBanModelLayer(t *testing.T) {
	linttest.Run(t, lint.Goroutine,
		filepath.Join("testdata", "goroutine", "experiments"), "repro/internal/experiments")
}

func TestGoroutineFleetExempt(t *testing.T) {
	linttest.Run(t, lint.Goroutine,
		filepath.Join("testdata", "goroutine", "fleet"), "repro/internal/fleet")
}

func TestSeedFlow(t *testing.T) {
	linttest.Run(t, lint.SeedFlow,
		filepath.Join("testdata", "seedflow", "sim"), "repro/internal/vcpu")
}

func TestStreamDraw(t *testing.T) {
	linttest.Run(t, lint.StreamDraw,
		filepath.Join("testdata", "streamdraw", "sim"), "repro/internal/workload")
}

// TestRepoLintClean is the contract itself: the entire module — the
// deterministic core, the model layers, fleet, cmd front-ends and
// examples — must carry zero determinism diagnostics. A regression
// here means someone reintroduced wall clocks, global randomness,
// unordered map iteration, core concurrency or a lock outside
// internal/fleet without the directive trail the repository requires.
func TestRepoLintClean(t *testing.T) {
	pkgs, err := lint.Load(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader returned no packages")
	}
	for _, d := range lint.Run(pkgs, lint.All()) {
		t.Errorf("determinism violation: %s", d)
	}
}
