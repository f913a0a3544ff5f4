package taichi_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	taichi "repro"
	"repro/internal/controlplane"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// exportRun simulates a small fixed fleet and returns the Chrome
// trace-event export plus the node-0 Prometheus snapshot. Everything is
// a pure function of (seed, workers is supposed to not matter) — the
// determinism tests below pin exactly that.
func exportRun(baseSeed int64, nodes, workers int) (chrome, prom []byte) {
	traces := make([]obs.NodeTrace, nodes)
	snaps := make([]*obs.Snapshot, nodes)
	fleet.ForEach(nodes, workers, func(i int) {
		sys := taichi.New(fleet.MemberSeed(baseSeed, i))
		for m := 0; m < 4; m++ {
			sys.SpawnCP(fmt.Sprintf("monitor%d", m),
				controlplane.Monitor(controlplane.DefaultMonitor(), sys.Stream(fmt.Sprintf("mon%d", m))))
		}
		scfg := controlplane.DefaultSynthCP()
		r := sys.Stream("churn")
		for c := 0; c < 3; c++ {
			sys.SpawnCP(fmt.Sprintf("churn%d", c), controlplane.SynthCP(scfg, r))
		}
		pcfg := workload.DefaultPing()
		pcfg.Count = 30
		p := workload.NewPing(sys.Node, pcfg)
		p.Start(nil)
		sys.Run(taichi.Seconds(0.05))

		traces[i] = obs.NodeTrace{
			Label:  fmt.Sprintf("taichi-node%d", i),
			Events: append([]trace.Event{}, sys.Node.Tracer.Events()...),
		}
		snap := obs.NewSnapshot()
		snap.AddCounter("engine_events", sys.Node.Engine.Fired())
		snap.AddHistogram("ping_rtt", p.RTT)
		snaps[i] = snap
	})
	return obs.ChromeJSON(traces), snaps[0].Prometheus()
}

// TestExportDeterminism pins the tentpole guarantee: the Chrome JSON
// export and the Prometheus snapshot are byte-identical across repeated
// runs and across worker counts, for several seeds. Goldens under
// testdata/golden/obs/ additionally pin the bytes across commits; to
// regenerate after an intentional schema change run
//
//	UPDATE_OBS_GOLDEN=1 go test -run TestExportDeterminism .
func TestExportDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			chrome1, prom1 := exportRun(seed, 3, 1)
			chrome8, prom8 := exportRun(seed, 3, 8)
			if !bytes.Equal(chrome1, chrome8) {
				t.Error("Chrome export differs between workers=1 and workers=8")
			}
			if !bytes.Equal(prom1, prom8) {
				t.Error("Prometheus snapshot differs between workers=1 and workers=8")
			}
			chromeR, promR := exportRun(seed, 3, 1)
			if !bytes.Equal(chrome1, chromeR) || !bytes.Equal(prom1, promR) {
				t.Error("export differs between repeated identical runs")
			}

			checkGolden(t, fmt.Sprintf("chrome_seed%d.json", seed), chrome1)
			checkGolden(t, fmt.Sprintf("metrics_seed%d.prom", seed), prom1)
		})
	}
}

// checkGolden compares got against the named golden file, or rewrites
// the golden when UPDATE_OBS_GOLDEN is set.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", "obs", name)
	if os.Getenv("UPDATE_OBS_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden %s missing (regenerate with UPDATE_OBS_GOLDEN=1): %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (%d vs %d bytes); if intentional, regenerate with UPDATE_OBS_GOLDEN=1",
			name, len(got), len(want))
	}
}
