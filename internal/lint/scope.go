package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// corePackages names the deterministic event core: the packages whose
// state transitions must replay bit-for-bit from (config, seed) alone.
// Concurrency and environment reads are confined to internal/fleet
// (the worker pool, which only merges deterministic per-member
// results) and to cmd/ front-ends.
var corePackages = map[string]bool{
	"sim":          true,
	"kernel":       true,
	"vcpu":         true,
	"core":         true,
	"accel":        true,
	"dataplane":    true,
	"controlplane": true,
	"faults":       true,
}

// internalHead returns the first path segment after /internal/ ("sim"
// for repro/internal/sim/sub), or "" when path has no internal segment.
func internalHead(path string) string {
	i := strings.Index(path, "/internal/")
	if i < 0 {
		return ""
	}
	head, _, _ := strings.Cut(path[i+len("/internal/"):], "/")
	return head
}

// isSimPackage reports whether path is one of the model layers that
// feed the core: anything under internal/ except the explicitly
// concurrent fleet runner. These packages may not read wall clocks or
// global RNG state, but (unlike the core) only the goroutine rule's
// lock ban applies to them, not its ban on all host concurrency.
func isSimPackage(path string) bool {
	head := internalHead(path)
	return head != "" && head != "fleet"
}

// isCorePackage reports whether path is in the deterministic event
// core (see corePackages).
func isCorePackage(path string) bool {
	return corePackages[internalHead(path)]
}

// directivePrefix introduces an allow directive. The full grammar is
//
//	//taichi:allow rule[,rule...] — justification
//
// The rule list is comma- (or space-) separated so one directive can
// scope several rules to a line; every rule named must exist, and the
// em-dash (or "--") justification is mandatory — an allowance nobody
// can explain is an allowance nobody can review. Violations of the
// grammar itself are reported under the "directive" name and are not
// suppressible: there is no allow for a malformed allow.
const directivePrefix = "taichi:allow"

// directiveRule is the analyzer name malformed directives are reported
// under.
const directiveRule = "directive"

// knownRuleNames is the set of rule names a directive may legally
// scope: every analyzer in the suite.
func knownRuleNames() map[string]bool {
	names := map[string]bool{}
	for _, a := range All() {
		names[a.Name] = true
	}
	return names
}

// directiveIndex maps filename → line → set of allowed rule names.
type directiveIndex map[string]map[int]map[string]bool

func (d directiveIndex) allows(file string, line int, rule string) bool {
	lines := d[file]
	if lines == nil {
		return false
	}
	// A directive covers its own line and the line directly below it
	// (i.e. a comment above the statement), mirroring //nolint and
	// //lint:ignore placement conventions.
	return lines[line][rule] || lines[line-1][rule]
}

// buildDirectiveIndex parses every //taichi:allow directive in the
// files. Alongside the suppression index it returns one Diagnostic per
// grammar violation: an unknown rule name (which would otherwise
// silently suppress nothing — or worse, a future rule), an empty rule
// list, or a missing justification.
func buildDirectiveIndex(fset *token.FileSet, files []*ast.File) (directiveIndex, []Diagnostic) {
	idx := directiveIndex{}
	var issues []Diagnostic
	known := knownRuleNames()
	report := func(pos token.Position, format string, args ...any) {
		issues = append(issues, Diagnostic{
			Pos:      pos,
			Analyzer: directiveRule,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, directivePrefix))
				pos := fset.Position(c.Pos())
				// Everything up to an em/double dash is the rule list;
				// the remainder is the human justification.
				ruleText, justification := rest, ""
				cutAt := -1
				for _, cut := range []string{"—", "--"} {
					if i := strings.Index(rest, cut); i >= 0 && (cutAt < 0 || i < cutAt) {
						cutAt = i
						ruleText = rest[:i]
						justification = strings.TrimSpace(rest[i+len(cut):])
					}
				}
				if cutAt < 0 || justification == "" {
					report(pos, "//taichi:allow directive has no justification (write: //taichi:allow rule — why this site is exempt)")
				}
				rules := strings.FieldsFunc(ruleText, func(r rune) bool {
					return r == ',' || r == ' ' || r == '\t'
				})
				if len(rules) == 0 {
					report(pos, "//taichi:allow directive names no rule")
				}
				lines := idx[pos.Filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					idx[pos.Filename] = lines
				}
				ruleSet := lines[pos.Line]
				if ruleSet == nil {
					ruleSet = map[string]bool{}
					lines[pos.Line] = ruleSet
				}
				for _, r := range rules {
					if !known[r] {
						report(pos, "//taichi:allow names unknown rule %q (known: %s)", r, strings.Join(knownRuleList(), ", "))
						continue
					}
					ruleSet[r] = true
				}
			}
		}
	}
	return idx, issues
}

// knownRuleList returns the legal directive rule names sorted, for
// error messages.
func knownRuleList() []string {
	names := make([]string, 0, len(All()))
	for _, a := range All() {
		names = append(names, a.Name)
	}
	sort.Strings(names)
	return names
}
