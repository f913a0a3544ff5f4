// Command taichilint runs the determinism-lint suite over go package
// patterns and reports every violation of the simulator's bit-for-bit
// replay contract. It is the mechanical gate behind `make lint`:
//
//	go run ./cmd/taichilint ./...
//	go run ./cmd/taichilint ./internal/...
//
// Exit status is 0 when the tree is clean, 1 when diagnostics were
// reported, and 2 when the packages could not be loaded. Diagnostics
// print in `go vet` style (file:line:col: message) suffixed with the
// analyzer name, sorted by position, so output is itself deterministic.
//
// See internal/lint for the rules — five per-package (walltime,
// globalrand, maporder, goroutine, seedflow) and one whole-program,
// streamdraw, built on the interprocedural facts layer — and
// ARCHITECTURE.md §7 for the contract they enforce. The whole-program
// rule sees exactly the packages the pattern loads, so its
// cross-package checks only cover the packages a pattern names.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	listRules := flag.Bool("rules", false, "list the analyzers and their rationale, then exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: taichilint [-rules] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Runs the determinism-lint suite (default pattern ./...).\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *listRules {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "taichilint:", err)
		os.Exit(2)
	}
	pkgs, err := lint.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "taichilint:", err)
		os.Exit(2)
	}
	diags := lint.Run(pkgs, analyzers)
	for _, d := range diags {
		fmt.Println(rel(cwd, d))
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "taichilint: %d determinism violation(s)\n", len(diags))
		os.Exit(1)
	}
}

// rel shortens absolute file paths to repo-relative ones so output is
// stable across checkouts (and across fleet CI runners).
func rel(cwd string, d lint.Diagnostic) string {
	s := d.String()
	return strings.TrimPrefix(s, cwd+string(os.PathSeparator))
}
