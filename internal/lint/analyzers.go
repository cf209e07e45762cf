package lint

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// All returns the registered analyzer set in the order the driver runs them.
func All() []*Analyzer {
	return []*Analyzer{
		FloatEq,
		SyncErr,
		MapRange,
		ObsImport,
		DetTaint,
		LockHeld,
		WalSwitch,
	}
}

// Names returns the allow-directive vocabulary: the name of every
// registered analyzer, then dettaint's two source-kind aliases.
func Names() []string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return append(names, wallClockAlias, globalRandAlias)
}

// deterministicDirs names the internal packages whose behaviour must be a
// pure function of their inputs: a replayed history (WAL replay, golden
// corpus rerun) has to reproduce the promised (deadline, p) pairs exactly,
// so nothing in these packages may read the wall clock or the process-global
// PRNG. The obs/service wall-clock boundary sits outside this set.
var deterministicDirs = map[string]bool{
	"sim":        true,
	"sched":      true,
	"predict":    true,
	"checkpoint": true,
	"negotiate":  true,
	"failure":    true,
	"experiment": true,
	"durability": true,
	// The scenario runner replays declarative timelines onto the engine;
	// golden zoo reports are byte-compared in CI, so the whole package —
	// decoder included — must be input-pure.
	"scenario": true,
	// The paper's metrics and the promise ledger, which qosd carries
	// through WAL replay and snapshots.
	"metrics": true,
}

// IsDeterministicPkg reports whether the import path lies in (or under) one
// of the deterministic internal packages.
func IsDeterministicPkg(path string) bool { return underInternal(path, deterministicDirs) }

// observabilityDirs names the internal packages on the wall-clock side of
// the boundary: metrics exposition (obs) and request tracing (trace). They may read the process clock — annotated at each
// site — but the dependency between them and the deterministic set must
// point one way only: the service layer hands state to observability,
// never the reverse.
var observabilityDirs = map[string]bool{
	"obs":   true,
	"trace": true,
}

// IsObservabilityPkg reports whether the import path lies in (or under) one
// of the observability internal packages.
func IsObservabilityPkg(path string) bool { return underInternal(path, observabilityDirs) }

// durabilityCriticalDirs names the packages in scope for the syncerr
// analyzer: the WAL/snapshot layer and the service that wires it.
var durabilityCriticalDirs = map[string]bool{
	"durability": true,
	"service":    true,
}

// underInternal reports whether the import path has an internal/<dir>
// segment pair with dir in dirs.
func underInternal(path string, dirs map[string]bool) bool {
	segs := strings.Split(path, "/")
	for i := 0; i+1 < len(segs); i++ {
		if segs[i] == "internal" && dirs[segs[i+1]] {
			return true
		}
	}
	return false
}

// pkgNameOf resolves an identifier to the import path of the package it
// names, or "" if the identifier is not a package name.
func pkgNameOf(pass *Pass, id *ast.Ident) string {
	if pn, ok := pass.Pkg.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// exprString renders an expression as source text for messages.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "expression"
	}
	return buf.String()
}
