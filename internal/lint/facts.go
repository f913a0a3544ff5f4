package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the interprocedural facts layer behind the whole-program
// analyzer streamdraw. The per-package analyzers are syntactic; whether
// a named-stream draw is reachable only through deterministic control
// flow spans package boundaries, so it needs a module-wide view: every
// function declaration, a static call graph over them, and
// deterministic iteration orders so diagnostics replay bit-for-bit.
//
// The call graph is static and intentionally conservative: direct calls
// and method calls that the type checker resolves to a concrete
// *types.Func are edges; calls through interface values or stored
// function values are not (the callee object is the interface method or
// unknown). Analyzers that consume the graph must treat a missing edge
// as "unknown", not "absent" — in this module the deterministic core
// calls concretely almost everywhere, so the approximation is tight
// where it matters.

// FuncInfo is one declared function or method plus its outgoing static
// call edges.
type FuncInfo struct {
	// Fn is the type-checker object for the declaration.
	Fn *types.Func
	// Decl is the syntax; Decl.Body may be nil (declarations without
	// bodies, e.g. assembly stubs, carry no edges).
	Decl *ast.FuncDecl
	// Pkg is the package the declaration lives in.
	Pkg *Package

	// callees are the resolved call targets in source order; they may
	// belong to packages outside the loaded program (stdlib).
	callees []*types.Func
}

// A Program is the whole-module view handed to program-level analyzers:
// every loaded package, every function declaration, and the static call
// graph between them.
type Program struct {
	Pkgs []*Package

	// order holds the functions sorted by declaration position so every
	// program-level iteration is deterministic.
	order []*FuncInfo
}

// sitePos anchors a fact to a package and position for reporting.
type sitePos struct {
	pkg *Package
	pos token.Pos
}

func (s sitePos) String() string {
	p := s.pkg.Fset.Position(s.pos)
	return fmt.Sprintf("%s:%d", p.Filename, p.Line)
}

// NewProgram builds the facts layer over the loaded packages.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{Pkgs: pkgs}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				p.order = append(p.order, &FuncInfo{Fn: obj, Decl: fd, Pkg: pkg})
			}
		}
	}
	sort.Slice(p.order, func(i, j int) bool {
		a := p.order[i].Pkg.Fset.Position(p.order[i].Decl.Pos())
		b := p.order[j].Pkg.Fset.Position(p.order[j].Decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, fi := range p.order {
		if fi.Decl.Body == nil {
			continue
		}
		pkg := fi.Pkg
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := calleeOf(pkg, call); callee != nil {
				fi.callees = append(fi.callees, callee)
			}
			return true
		})
	}
	return p
}

// calleeOf resolves a call expression to the concrete *types.Func it
// invokes, or nil for calls through function values, builtins, and
// conversions.
func calleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	if obj := pkg.Info.Uses[id]; obj != nil {
		if fn, ok := obj.(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// Functions returns every declared function in deterministic
// (position-sorted) order.
func (p *Program) Functions() []*FuncInfo { return p.order }

// Closure computes, for every declared function, the transitive closure
// of a per-function seed fact over the static call graph: out(f) =
// seed(f) ∪ ⋃ out(callee). The seeds map is not mutated. streamdraw
// uses it to ask "does f reach a random draw".
func (p *Program) Closure(seed func(fi *FuncInfo) []string) map[*types.Func]map[string]bool {
	out := map[*types.Func]map[string]bool{}
	for _, fi := range p.order {
		set := map[string]bool{}
		for _, s := range seed(fi) {
			set[s] = true
		}
		out[fi.Fn] = set
	}
	// Iterate to a fixed point. The module's call graph is shallow
	// (and nearly acyclic), so this converges in a handful of rounds.
	// Callee facts are iterated in sorted order: the converged sets are
	// order-independent, but the linter holds its own internals to the
	// maporder rule it enforces.
	for changed := true; changed; {
		changed = false
		for _, fi := range p.order {
			set := out[fi.Fn]
			for _, callee := range fi.callees {
				for _, fact := range sortedFacts(out[callee]) {
					if !set[fact] {
						set[fact] = true
						changed = true
					}
				}
			}
		}
	}
	return out
}

// sortedFacts returns a fact set as a sorted slice, for deterministic
// diagnostics.
func sortedFacts(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}
