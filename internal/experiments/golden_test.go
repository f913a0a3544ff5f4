package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// update rewrites the Quick goldens this package owns instead of
// comparing against them, like the root package's flag of the same name:
//
//	go test ./internal/experiments -run 'Shape' -update
var update = flag.Bool("update", false, "rewrite the goldens under testdata/golden/quick/ instead of comparing against them")

// checkQuickGolden compares a Quick render with the repository's
// testdata/golden/quick/<id>.txt, or rewrites it under -update. The shape
// tests call it on the result they already computed, so pinning every
// byte costs no second run.
func checkQuickGolden(t *testing.T, id string, r *Result) {
	t.Helper()
	path := filepath.Join("..", "..", "testdata", "golden", "quick", id+".txt")
	got := r.Render()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden %s missing (regenerate with -update): %v", path, err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	line := 0
	for line < len(gl) && line < len(wl) && gl[line] == wl[line] {
		line++
	}
	at := func(ls []string) string {
		if line < len(ls) {
			return ls[line]
		}
		return "<end of file>"
	}
	t.Errorf("%s drifted from its golden; first difference at line %d:\n--- golden\n%s\n--- got\n%s\nif intentional, regenerate with -update",
		id, line+1, at(wl), at(gl))
}
