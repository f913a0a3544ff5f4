// Package linttest is a stdlib-only stand-in for
// golang.org/x/tools/go/analysis/analysistest: it runs one analyzer
// over a fixture package and checks its diagnostics against `// want`
// comments embedded in the fixture source.
//
// A fixture directory holds one Go package. Each expected diagnostic
// is declared on the line it should fire on:
//
//	t := time.Now() // want `time\.Now reads the host wall clock`
//
// The expectation is a regular expression in a Go string or raw-string
// literal; several may follow one `// want`. The run fails if a want
// goes unmatched or a diagnostic arrives unwanted, so fixtures prove
// both that an analyzer fires (positive cases) and that it stays
// silent (negative cases — lines with no want comment).
//
// Because analyzer applicability depends on import paths
// (internal/kernel is "deterministic core", cmd/ is not), the caller
// supplies the import path to type-check the fixture under; the
// directory name is irrelevant.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// sharedFset and sharedImporter are package-global so the standard
// library is type-checked from source once per test binary, not once
// per fixture.
var (
	sharedFset     = token.NewFileSet()
	sharedImporter = importer.ForCompiler(sharedFset, "source", nil)
)

// Run loads the fixture package in dir, type-checks it as importPath,
// applies the analyzer, and compares diagnostics to want comments.
func Run(t *testing.T, a *lint.Analyzer, dir, importPath string) {
	t.Helper()
	pkg, err := loadFixture(dir, importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	wants, err := collectWants(pkg)
	if err != nil {
		t.Fatalf("parsing want comments in %s: %v", dir, err)
	}
	diags := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{a})

	matched := make([]bool, len(wants))
	for _, d := range diags {
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != filepath.Base(d.Pos.Filename) || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s:%d: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("no diagnostic at %s:%d matching %q", w.file, w.line, w.re)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

func loadFixture(dir, importPath string) (*lint.Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(sharedFset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	sort.Slice(files, func(i, j int) bool {
		return sharedFset.Position(files[i].Pos()).Filename < sharedFset.Position(files[j].Pos()).Filename
	})
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: sharedImporter}
	tpkg, err := conf.Check(importPath, sharedFset, files, info)
	if err != nil {
		return nil, err
	}
	return &lint.Package{
		Path:  importPath,
		Dir:   dir,
		Fset:  sharedFset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// wantRe matches the expectation literals after a want marker: either
// a double-quoted Go string or a backquoted raw string.
var wantRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

func collectWants(pkg *lint.Package) ([]want, error) {
	var wants []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, lit := range wantRe.FindAllString(strings.TrimPrefix(text, "want "), -1) {
					pattern, err := strconv.Unquote(lit)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want literal %s: %v", pos.Filename, pos.Line, lit, err)
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pattern, err)
					}
					wants = append(wants, want{
						file: filepath.Base(pos.Filename),
						line: pos.Line,
						re:   re,
					})
				}
			}
		}
	}
	return wants, nil
}
