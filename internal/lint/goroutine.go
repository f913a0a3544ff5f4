package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// concurrencyPkgs are import paths whose mere use inside the core is a
// violation: the deterministic engine is single-threaded by contract,
// so synchronization primitives there either do nothing or paper over
// a scheduling dependency the replay cannot reproduce.
var concurrencyPkgs = map[string]bool{
	"sync":        true,
	"sync/atomic": true,
}

// Goroutine forbids concurrency inside the deterministic event core
// (internal/sim, kernel, vcpu, core, accel, dataplane, controlplane,
// faults): no `go` statements, no channel creation, sends, receives or
// selects, and no sync/sync/atomic use. The simulator models
// concurrency *in* simulated time (kernel threads, vCPUs, spinlocks
// are all model objects); host goroutines would interleave
// nondeterministically underneath that model. Real parallelism lives
// in internal/fleet, which runs whole deterministic simulations on
// worker goroutines and merges their results.
//
// Everywhere else except internal/fleet the rule bans host locks:
// sync.Mutex and sync.RWMutex references and sync/atomic imports. The
// module's one lock guards fleet.ForEach's panic index, which the race
// detector exercises; a lock anywhere else is new shared host state,
// so it needs a directive saying why. sync.WaitGroup and sync.Once
// stay legal.
//
// Inside the core the rule has no //taichi:allow escape, since
// directives are ignored there by design; outside it a directive
// excuses one lock.
var Goroutine = &Analyzer{
	Name: "goroutine",
	Doc: "forbid go statements, channel operations and sync primitives in the " +
		"deterministic core, and sync.Mutex, sync.RWMutex and sync/atomic outside " +
		"internal/fleet; host concurrency is confined to internal/fleet and cmd/",
	Run: runGoroutine,
}

func runGoroutine(pass *Pass) {
	switch path := pass.Pkg.Path(); {
	case isCorePackage(path):
		banCoreConcurrency(pass)
	case internalHead(path) != "fleet":
		banLocks(pass)
	}
}

// banLocks reports every sync/atomic import and every reference to the
// sync.Mutex or sync.RWMutex type: a field, embedded field, variable,
// parameter or composite literal all name the type.
func banLocks(pass *Pass) {
	for _, f := range pass.Files {
		banImports(pass, f, map[string]bool{"sync/atomic": true}, "outside internal/fleet")
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if tn, ok := pass.Info.Uses[id].(*types.TypeName); ok && tn.Pkg() != nil &&
				tn.Pkg().Path() == "sync" && (tn.Name() == "Mutex" || tn.Name() == "RWMutex") {
				pass.Report(id.Pos(),
					"sync.%s outside internal/fleet; host locks belong in internal/fleet", tn.Name())
			}
			return true
		})
	}
}

// banImports reports each import in f of a path in banned.
func banImports(pass *Pass, f *ast.File, banned map[string]bool, where string) {
	for _, imp := range f.Imports {
		if path, err := strconv.Unquote(imp.Path.Value); err == nil && banned[path] {
			pass.Report(imp.Pos(),
				"import of %s %s; host synchronization belongs in internal/fleet", path, where)
		}
	}
}

// banCoreConcurrency reports every host concurrency primitive in a core
// package.
func banCoreConcurrency(pass *Pass) {
	for _, f := range pass.Files {
		banImports(pass, f, concurrencyPkgs, "in the deterministic core")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Report(n.Pos(),
					"go statement in the deterministic core; spawn simulated threads (kernel.Spawn) or move concurrency to internal/fleet")
			case *ast.SendStmt:
				pass.Report(n.Pos(), "channel send in the deterministic core")
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" {
					pass.Report(n.Pos(), "channel receive in the deterministic core")
				}
			case *ast.SelectStmt:
				pass.Report(n.Pos(), "select statement in the deterministic core")
			case *ast.RangeStmt:
				if tv, ok := pass.Info.Types[n.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						pass.Report(n.Pos(), "range over channel in the deterministic core")
					}
				}
			case *ast.CallExpr:
				// make(chan T) — creating a channel is as much a
				// violation as using one.
				if isBuiltin(pass, n.Fun, "make") && len(n.Args) >= 1 {
					if tv, ok := pass.Info.Types[n.Args[0]]; ok {
						if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
							pass.Report(n.Pos(), "channel creation in the deterministic core")
						}
					}
				}
			}
			return true
		})
	}
}
