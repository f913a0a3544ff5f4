// Package lint implements taichilint, a determinism-lint suite that
// mechanically enforces the simulator's bit-for-bit replay contract.
//
// Everything this reproduction claims — the lend/reclaim results, the
// fleet runner's byte-identical parallel output, and the chaos runs'
// bit-for-bit replay — rests on one invariant: no wall-clock time, no
// global RNG, no unordered map iteration, and no unsynchronized
// goroutines may leak into the deterministic event core. This package
// turns that invariant from a review convention into a checked
// property.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer / Pass / Diagnostic) but is built on the standard library
// only, because the module is intentionally dependency-free. Six
// analyzers ship with it — five per-package:
//
//	walltime   — forbid wall-clock reads (time.Now, time.Sleep, …)
//	globalrand — forbid global math/rand state and env-derived seeds
//	maporder   — forbid order-sensitive iteration over Go maps
//	goroutine  — forbid concurrency primitives in the deterministic core,
//	             and mutexes and sync/atomic outside internal/fleet
//	seedflow   — exported constructors reaching randomness must take a seed
//
// and one whole-program, built on the interprocedural facts layer in
// facts.go (module-wide call graph over the same loader):
//
//	streamdraw — named RNG streams unique module-wide, registered, and
//	             drawn only through deterministic control flow
//
// A site that is legitimately exempt (for example wall-clock progress
// timing in cmd/) opts out with a directive comment on, or directly
// above, the offending line:
//
//	start := time.Now() //taichi:allow walltime — operator-facing wall-clock report
//
// Directives name the rule they suppress (several rules comma-scope
// into one directive), must carry a justification, and may only name
// rules that exist — malformed directives are themselves diagnostics.
// See ARCHITECTURE.md §7 for the contract.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one determinism rule. It is deliberately
// shaped like golang.org/x/tools/go/analysis.Analyzer so the suite can
// migrate to the upstream framework wholesale if the module ever takes
// on the dependency.
type Analyzer struct {
	// Name identifies the rule. It is printed with every diagnostic
	// and is the token a //taichi:allow directive must name to
	// suppress the rule.
	Name string

	// Doc is a one-paragraph description of the rule and its
	// rationale, shown by `taichilint -help`.
	Doc string

	// Run inspects one package and reports violations through
	// pass.Report. It must be deterministic: same package, same
	// diagnostics, same order. Exactly one of Run and RunProgram is
	// set.
	Run func(pass *Pass)

	// RunProgram inspects the whole loaded program at once — the
	// interprocedural analyzer streamdraw needs cross-package facts a
	// single-package pass cannot see. The same determinism bar applies.
	RunProgram func(pass *ProgramPass)
}

// A Pass provides one analyzer run with a single type-checked package
// and a sink for diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags      *[]Diagnostic
	directives directiveIndex
}

// A ProgramPass provides one whole-program analyzer run with the facts
// layer and a sink for diagnostics. Reports carry the package the
// position belongs to so directive suppression and the core-package
// no-escape rule keep their per-package semantics.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	diags      *[]Diagnostic
	directives map[*Package]directiveIndex
}

// A Diagnostic is one rule violation at one position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Report records a violation at pos unless a //taichi:allow directive
// for this analyzer covers the line (same line or the line directly
// above — the two placements a reviewer can see next to the code).
//
// Inside the deterministic event core (internal/sim, kernel, vcpu,
// core, accel, dataplane, controlplane, faults) directives are
// deliberately ignored: there is no legitimate exemption from the
// replay contract in the packages whose state IS the replay, so the
// escape hatch does not exist there.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if !isCorePackage(p.Pkg.Path()) &&
		p.directives.allows(position.Filename, position.Line, p.Analyzer.Name) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Report records a violation at pos in pkg, with the same directive
// and core-package semantics as Pass.Report.
func (p *ProgramPass) Report(pkg *Package, pos token.Pos, format string, args ...any) {
	position := pkg.Fset.Position(pos)
	if !isCorePackage(pkg.Path) &&
		p.directives[pkg].allows(position.Filename, position.Line, p.Analyzer.Name) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ObjectOf resolves an identifier to its types.Object via Uses then
// Defs, the common lookup order for analyzers.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}

// PkgFunc reports whether the call expression invokes the package-level
// function pkgPath.name (not a method of the same name — methods have a
// receiver and are excluded on purpose: rand.Intn the global is banned,
// (*rand.Rand).Intn the seeded stream is the required replacement).
func (p *Pass) PkgFunc(call *ast.CallExpr, pkgPath string, names ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := p.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return "", false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return "", false
	}
	for _, n := range names {
		if fn.Name() == n {
			return n, true
		}
	}
	return "", false
}

// Run applies every analyzer to every package and returns the combined
// diagnostics sorted by position then analyzer name, so output is
// stable regardless of load order — the linter holds itself to the
// determinism bar it enforces.
//
// Per-package analyzers run first, once per package; whole-program
// analyzers then run once over a Program built from all the packages
// together. Malformed //taichi:allow directives are reported under the
// "directive" name regardless of which analyzers run — the escape
// hatch's own grammar is always enforced.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	directives := map[*Package]directiveIndex{}
	for _, pkg := range pkgs {
		idx, issues := buildDirectiveIndex(pkg.Fset, pkg.Files)
		directives[pkg] = idx
		diags = append(diags, issues...)
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				Info:       pkg.Info,
				diags:      &diags,
				directives: idx,
			}
			a.Run(pass)
		}
	}
	var prog *Program
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		if prog == nil {
			prog = NewProgram(pkgs)
		}
		a.RunProgram(&ProgramPass{
			Analyzer:   a,
			Prog:       prog,
			diags:      &diags,
			directives: directives,
		})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// All returns the full determinism suite in a fixed order: the
// per-package rules first, then the whole-program rule.
func All() []*Analyzer {
	return []*Analyzer{
		WallTime,
		GlobalRand,
		MapOrder,
		Goroutine,
		SeedFlow,
		StreamDraw,
	}
}
