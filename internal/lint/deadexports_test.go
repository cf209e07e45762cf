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

// testOnlyExports are exported package-level identifiers and methods under
// internal/ that no shipped code calls but that stay on purpose, keyed by
// "<dir below internal>.<Name>" or "<dir below internal>.<Type>.<Method>",
// each with its reason.
var testOnlyExports = map[string]string{
	"checkpoint.ExpectedSkipCost":     "Eq. 1 derivation: the RiskBased tests compare the shipped rule against it",
	"checkpoint.ExpectedPerformCost":  "Eq. 1 derivation: the RiskBased tests compare the shipped rule against it",
	"checkpoint.EquationOneThreshold": "Eq. 1 derivation: the RiskBased tests compare the shipped rule against it",
	"checkpoint.BreakEvenIntervals":   "Eq. 1 derivation: the RiskBased tests compare the shipped rule against it",
	"durability.NewFaultFS":           "fault-injection seam the crash-recovery and degraded-mode tests build on",
	"eventlog.Read":                   "reads back the journal qossim -journal writes; the journal tests check it with it",

	// Methods.
	"sched.Scheduler.BusyUntil":             "test oracle: the profile and scheduler tests read a node's last busy instant with it",
	"sched.Scheduler.ValidateProfile":       "test oracle: the property tests check the availability profile's invariants with it",
	"sched.Scheduler.ValidateEnds":          "test oracle: the engine test checks the profile's end index after every step with it",
	"failure.Trace.GapCV":                   "test oracle: the stochastic-model tests check inter-failure burstiness with it",
	"cluster.Cluster.IsUp":                  "test oracle: the cluster and event-ordering tests read node state with it",
	"cluster.Cluster.RecoverTime":           "test oracle: the cluster tests read a node's recovery instant with it",
	"durability.Store.RecordsSinceSnapshot": "test oracle: the store tests check snapshot compaction with it",
	"metrics.Ledger.Lookup":                 "public through probqos.PromiseLedger; the ledger tests check single entries with it",
	"obs.Histogram.Count":                   "test oracle: the registry and instrument tests read observation counts with it",
	"scenario.Runner.Export":                "public through probqos.ScenarioRunner: produces the state probqos.ResumeScenario takes; the zoo export/resume test drives it",
	"durability.FaultFS.Clear":              "fault-injection seam the crash-recovery and degraded-mode tests build on",
	"durability.FaultFS.FailRename":         "fault-injection seam the crash-recovery and degraded-mode tests build on",
	"durability.FaultFS.FailSync":           "fault-injection seam the crash-recovery and degraded-mode tests build on",
	"durability.FaultFS.FailTruncate":       "fault-injection seam the crash-recovery and degraded-mode tests build on",
	"durability.FaultFS.SetWriteBudget":     "fault-injection seam the crash-recovery and degraded-mode tests build on",
}

// stdInterfaces are the standard-library interfaces through which the
// standard library calls module methods ("<import path>.<Name>"; "error" is
// the predeclared one).
var stdInterfaces = []string{
	"error",
	"fmt.Stringer",
	"encoding/json.Marshaler",
	"encoding/json.Unmarshaler",
	"container/heap.Interface",
	"io.Writer",
	"io.Closer",
	"net/http.Handler",
	"go/types.Importer",
}

// TestNoDeadInternalExports loads the module and fails on any exported
// package-level func, type, var, or const, or exported method, under
// internal/ that no non-test code references and testOnlyExports does not
// list. A method also counts as referenced when its receiver type
// implements an interface with a method of that name, declared in the
// module or listed in stdInterfaces: callers reach it through the
// interface. The benchmark module in qosbench/ is not loaded (it is a
// module of its own), so a name used as a selector in its non-test files
// counts as referenced — by name, which can only under-report.
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
	ifaces := interfaces(t, l)

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
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				key := dir + "." + name + "." + m.Name()
				if !m.Exported() || used[m] || satisfies(named, m.Name(), ifaces) {
					continue
				}
				seen[key] = true
				if _, ok := testOnlyExports[key]; !ok && !benchNames[m.Name()] {
					dead = append(dead, key)
				}
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

// interfaces returns every non-generic interface declared at package level
// in the loaded module, plus stdInterfaces.
func interfaces(t *testing.T, l *Loader) []*types.Interface {
	t.Helper()
	var out []*types.Interface
	for _, pkg := range l.Packages() {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.IsMethodSet() {
				out = append(out, it)
			}
		}
	}
	for _, name := range stdInterfaces {
		path, ident, ok := strings.Cut(name, ".")
		var obj types.Object
		if !ok {
			obj = types.Universe.Lookup(name)
		} else if pkg, err := l.Import(path); err != nil {
			t.Fatal(err)
		} else {
			obj = pkg.Scope().Lookup(ident)
		}
		it, ok := obj.Type().Underlying().(*types.Interface)
		if !ok {
			t.Fatalf("%s is not an interface", name)
		}
		out = append(out, it)
	}
	return out
}

// satisfies reports whether T or *T implements one of the interfaces that
// has a method named method.
func satisfies(named *types.Named, method string, ifaces []*types.Interface) bool {
	ptr := types.NewPointer(named)
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			has = has || it.Method(i).Name() == method
		}
		if has && (types.Implements(named, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
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
