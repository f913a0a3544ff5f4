package trace

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestEnableOnlyEveryKind filters a tracer down to the whole schema:
// every kind, the last one included, must be recordable.
func TestEnableOnlyEveryKind(t *testing.T) {
	tr := New(0)
	tr.EnableOnly(Kinds()...)
	for _, k := range Kinds() {
		tr.Emit(1, k, 0, 0, "")
	}
	tr.Emit(2, Kind(255), 0, 0, "") // outside the schema: dropped, not a panic
	if tr.Len() != len(Kinds()) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(Kinds()))
	}
}

// TestEveryKindReferenced catches dead schema: every Kind constant must
// be named as trace.KindX by some non-test file of the module outside
// trace, obs and audit, which consume the schema only through its table.
func TestEveryKindReferenced(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == root {
			return err
		}
		if d.IsDir() {
			_, nested := os.Stat(filepath.Join(path, "go.mod"))
			switch rel, _ := filepath.Rel(root, path); {
			case nested == nil, d.Name() == "testdata", strings.HasPrefix(d.Name(), "."),
				rel == filepath.Join("internal", "trace"), rel == filepath.Join("internal", "obs"),
				rel == filepath.Join("internal", "audit"):
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err == nil {
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "trace" {
						used[sel.Sel.Name] = true
					}
				}
				return true
			})
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.ParseFile(fset, "trace.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	consts := 0
	for _, decl := range f.Decls {
		if gd, ok := decl.(*ast.GenDecl); ok && gd.Tok == token.CONST {
			for _, spec := range gd.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					if strings.HasPrefix(id.Name, "Kind") && id.Name != "KindNone" {
						consts++
						if !used[id.Name] {
							t.Errorf("trace.%s is never referenced outside trace/obs/audit: dead schema", id.Name)
						}
					}
				}
			}
		}
	}
	if consts != len(Kinds()) {
		t.Errorf("%d Kind constants but %d named table rows", consts, len(Kinds()))
	}
}

// renderSpanDoc renders OBSERVABILITY.md §2's span-class table and
// instant lists from the schema.
func renderSpanDoc() string {
	var b strings.Builder
	b.WriteString("| Span class | Opens on | Closes on | Keyed by |\n|---|---|---|---|\n")
	for c := ClassNone + 1; int(c) < NumClasses; c++ {
		var opens, closes []string
		for _, k := range Kinds() {
			info := k.Info()
			if info.Opens == c {
				opens = append(opens, "`"+info.Name+"`")
			}
			for _, cc := range info.Closes {
				if cc == c {
					closes = append(closes, "`"+info.Name+"`")
				}
			}
		}
		key := map[pairKey]string{byCPU: "CPU", byArg: "Arg"}[classes[c].key]
		if doc := classes[c].keyDoc; doc != "" {
			key += " (" + doc + ")"
		}
		b.WriteString("| `" + c.String() + "` | " + strings.Join(opens, ` \| `) + " | " +
			strings.Join(closes, ` \| `) + " | " + key + " |\n")
	}
	var pure, edges []string
	for _, k := range Kinds() {
		switch info := k.Info(); {
		case !info.Instant:
		case info.Opens == ClassNone && len(info.Closes) == 0:
			pure = append(pure, "`"+info.Name+"`")
		default:
			edges = append(edges, "`"+info.Name+"`")
		}
	}
	b.WriteString("\nEvents that open and close nothing become *instants*: " + strings.Join(pure, ", ") + ".\n")
	b.WriteString("\nThese are both span edges and instants: " + strings.Join(edges, ", ") + ".\n")
	return b.String()
}

func readObservabilityDoc(t *testing.T) string {
	raw, err := os.ReadFile(filepath.Join("..", "..", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestObservabilityKindTable requires OBSERVABILITY.md §1's Kind column
// to name every kind exactly once, and nothing else.
func TestObservabilityKindTable(t *testing.T) {
	doc := readObservabilityDoc(t)
	sec1 := doc[strings.Index(doc, "## 1. "):strings.Index(doc, "## 2. ")]
	seen := map[string]int{}
	for _, line := range strings.Split(sec1, "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 2 && strings.HasPrefix(line, "| `") {
			for _, m := range regexp.MustCompile("`([a-z_]+)`").FindAllStringSubmatch(cells[1], -1) {
				seen[m[1]]++
			}
		}
	}
	for _, k := range Kinds() {
		if seen[k.String()] != 1 {
			t.Errorf("§1 names kind %s %d times, want once", k, seen[k.String()])
		}
		delete(seen, k.String())
	}
	for name := range seen {
		t.Errorf("§1 names %s, which is not a trace kind", name)
	}
}

// TestObservabilitySpanTable requires OBSERVABILITY.md §2's rendered
// block to be exactly renderSpanDoc's output.
func TestObservabilitySpanTable(t *testing.T) {
	doc := readObservabilityDoc(t)
	const begin, end = "<!-- begin: rendered from the trace schema -->\n", "<!-- end: rendered from the trace schema -->"
	i, j := strings.Index(doc, begin), strings.Index(doc, end)
	if i < 0 || j < i {
		t.Fatalf("OBSERVABILITY.md lacks the %q ... %q block", begin, end)
	}
	if got, want := doc[i+len(begin):j], renderSpanDoc(); got != want {
		t.Errorf("OBSERVABILITY.md §2 drifted from the trace schema; replace the rendered block with:\n%s", want)
	}
}
