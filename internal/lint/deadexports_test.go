package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports are exported package-level identifiers under internal/
// that no shipped code calls but that stay on purpose, keyed by
// "<dir below internal>.<Name>", each with its reason.
var testOnlyExports = map[string]string{
	"checkpoint.ExpectedSkipCost":     "Eq. 1 derivation: the RiskBased tests compare the shipped rule against it",
	"checkpoint.ExpectedPerformCost":  "Eq. 1 derivation: the RiskBased tests compare the shipped rule against it",
	"checkpoint.EquationOneThreshold": "Eq. 1 derivation: the RiskBased tests compare the shipped rule against it",
	"checkpoint.BreakEvenIntervals":   "Eq. 1 derivation: the RiskBased tests compare the shipped rule against it",
	"durability.NewFaultFS":           "fault-injection seam the crash-recovery and degraded-mode tests build on",
	"sched.WithMaxCandidates":         "test seam that forces the candidate-budget fallback",
	"eventlog.Read":                   "reads back the journal qossim -journal writes; the journal tests check it with it",
}

// TestNoDeadInternalExports loads the module and fails on any exported
// package-level func, type, var, or const under internal/ that no non-test
// code references and testOnlyExports does not list. The benchmark module
// in qosbench/ is not loaded (it is a module of its own), so a name used as
// a selector in its non-test files counts as referenced — by name, which
// can only under-report. Methods are not covered: whether one is dead
// depends on the interfaces it satisfies, so they are checked by hand.
func TestNoDeadInternalExports(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(filepath.Join(root, "..."))
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[types.Object]bool)
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			used[obj] = true
		}
	}
	benchNames := qosbenchSelectors(t, filepath.Join(root, "qosbench"))

	var dead []string
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		dir, ok := internalDir(pkg.Path)
		if !ok {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			key := dir + "." + name
			if !obj.Exported() || used[obj] {
				continue
			}
			seen[key] = true
			if _, ok := testOnlyExports[key]; !ok && !benchNames[name] {
				dead = append(dead, key)
			}
		}
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s is exported but no non-test code references it; delete it, or list it in testOnlyExports with a reason", key)
	}
	for key := range testOnlyExports {
		if !seen[key] {
			t.Errorf("testOnlyExports lists %s, which is gone or now referenced; drop the entry", key)
		}
	}
}

// internalDir returns the part of an import path below its internal/
// segment ("probqos/internal/lint/cfg" -> "lint/cfg").
func internalDir(path string) (string, bool) {
	_, dir, ok := strings.Cut(path, "/internal/")
	return dir, ok
}

// qosbenchSelectors returns every name used as a selector in the
// benchmark module's non-test files.
func qosbenchSelectors(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				names[sel.Sel.Name] = true
			}
			return true
		})
	}
	if len(names) == 0 {
		t.Fatalf("no selectors found in %s; has the benchmark module moved?", dir)
	}
	return names
}
