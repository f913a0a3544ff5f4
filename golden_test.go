package taichi_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the goldens under testdata/golden/ instead of comparing
// against them. A deliberate re-pin runs the tests that own the goldens
// with the flag, for example
//
//	go test -run 'TestBackwardCompatGolden|TestOverloadParallelDeterminism|TestPlacementParallelDeterminism|TestExportDeterminism' . -update
var update = flag.Bool("update", false, "rewrite the goldens under testdata/golden/ instead of comparing against them")

// checkGolden compares got against testdata/golden/<name>, or rewrites
// the golden under -update. On a mismatch it reports the first
// differing line, since a Chrome export golden is megabytes long.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", filepath.FromSlash(name))
	if *update {
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
		t.Fatalf("golden %s missing (regenerate with -update): %v", name, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	line := 0
	for line < len(gl) && line < len(wl) && bytes.Equal(gl[line], wl[line]) {
		line++
	}
	at := func(ls [][]byte) []byte {
		if line < len(ls) {
			return ls[line]
		}
		return []byte("<end of file>")
	}
	t.Errorf("%s drifted from its golden (%d vs %d bytes); first difference at line %d:\n--- golden\n%s\n--- got\n%s\nif intentional, regenerate with -update",
		name, len(got), len(want), line+1, at(wl), at(gl))
}
