package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/sim"
)

// placedFlagSet parses args over a flag set holding every placed-mode
// flag plus two that only the per-node scenario reads.
func placedFlagSet(t *testing.T, args ...string) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("taichi-sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	for name := range placedFlags { //taichi:allow maporder — flag definition order is irrelevant
		fs.String(name, "", "")
	}
	fs.String("mode", "taichi", "")
	fs.Duration("dur", 0, "")
	fs.String("export", "", "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestCheckPlacedFlags(t *testing.T) {
	ok := []string{"-nodes", "8", "-place", "rr", "-rebalance", "false", "-faults", "default",
		"-recover", "1", "-audit", "1", "-overload", "1", "-util", "0.3", "-seed", "2", "-parallel", "4"}
	if err := checkPlacedFlags(placedFlagSet(t, ok...)); err != nil {
		t.Fatalf("allowlisted flags rejected: %v", err)
	}
	// A flag left at its default is not "set", even if placed mode
	// ignores it.
	if err := checkPlacedFlags(placedFlagSet(t, "-place", "rr")); err != nil {
		t.Fatalf("unset -mode/-dur rejected: %v", err)
	}
	err := checkPlacedFlags(placedFlagSet(t, "-place", "rr", "-mode", "taichi", "-dur", "1s"))
	if err == nil {
		t.Fatal("-mode and -dur accepted in placed mode")
	}
	if !strings.Contains(err.Error(), "-dur, -mode") {
		t.Fatalf("error %q does not name the ignored flags", err)
	}
	err = checkPlacedFlags(placedFlagSet(t, "-place", "rr", "-export", "trace.json"))
	if err == nil || !strings.Contains(err.Error(), "-export") {
		t.Fatalf("-export in placed mode: got %v, want an error naming -export", err)
	}
}

func TestCheckNumericFlags(t *testing.T) {
	type args struct {
		dur, timeline   time.Duration
		util            float64
		cp, nodes, para int
	}
	ok := args{dur: 2 * time.Second, util: 0.3, cp: 16, nodes: 1}
	for _, tc := range []struct {
		name string
		mut  func(*args)
		flag string // "" = accepted
	}{
		{"defaults", func(*args) {}, ""},
		{"zero util, cp and parallel", func(a *args) { a.util, a.cp, a.para = 0, 0, 0 }, ""},
		{"fleet", func(a *args) { a.nodes, a.para = 8, 4 }, ""},
		{"zero dur", func(a *args) { a.dur = 0 }, "-dur"},
		{"negative dur", func(a *args) { a.dur = -time.Second }, "-dur"},
		{"negative util", func(a *args) { a.util = -0.2 }, "-util"},
		{"NaN util", func(a *args) { a.util = math.NaN() }, "-util"},
		{"negative cp", func(a *args) { a.cp = -3 }, "-cp"},
		{"zero nodes", func(a *args) { a.nodes = 0 }, "-nodes"},
		{"negative parallel", func(a *args) { a.para = -3 }, "-parallel"},
		{"timeline", func(a *args) { a.timeline = 10 * time.Millisecond }, ""},
		{"negative timeline", func(a *args) { a.timeline = -time.Millisecond }, "-timeline"},
	} {
		a := ok
		tc.mut(&a)
		err := checkNumericFlags(a.dur, a.util, a.cp, a.nodes, a.para, a.timeline)
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.flag != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.flag != "" && !strings.HasPrefix(err.Error(), tc.flag+" "):
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.flag)
		}
	}
}

// TestFleetExportDeterministic: a faulted 3-node fleet's Chrome export
// is byte-identical across worker counts and repeated runs.
func TestFleetExportDeterministic(t *testing.T) {
	p := params{mode: "taichi", wl: "vmstartup", cp: 4, util: 0.3, spec: faults.DefaultSpec(),
		retry: true, recov: true, horizon: 50 * sim.Millisecond}
	dir := t.TempDir()
	var want []byte
	for i, workers := range []int{1, 3, 1, 3} {
		path := filepath.Join(dir, fmt.Sprintf("run%d.json", i))
		runFleet(p, false, 1, 3, workers, "", traceOpts{export: path})
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got
			for n := 0; n < 3; n++ {
				if !bytes.Contains(got, []byte(fmt.Sprintf("taichi-node%d", n))) {
					t.Fatalf("export has no taichi-node%d track", n)
				}
			}
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d (workers=%d): %d bytes differ from run 0's %d", i, workers, len(got), len(want))
		}
	}
}
