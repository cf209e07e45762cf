package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetTaint is the determinism analyzer. Inside a deterministic package it
// reports every reference to a nondeterministic source: a wall-clock
// function, a process-global math/rand function, or a module function
// whose result derives — directly or through any chain of helpers — from
// one of those or from map-iteration order. A laundered read is reported
// with the full taint chain down to the original source. The same walk
// covers package-level initializers and function literals, so nothing in
// a deterministic package reads the clock or the global PRNG unreviewed.
//
// Seeded sources are fine: rand.New(rand.NewSource(seed)) and every
// sampler in internal/stats remain legal, because their streams are a pure
// function of the seed.
//
// A direct source keeps an allow-directive alias naming its kind:
// //qoslint:allow detwallclock silences a wall-clock read on its line and
// detrand a global-PRNG draw, neither anything else; dettaint silences
// every finding on the line. Annotated sources (dettaint, the matching
// alias, or maprange for map order) are sanctioned boundaries — profiling
// reads that feed obs and never simulation state — and do not seed taint,
// so one reviewed annotation clears the site for every caller.
//
// Known limits, all deliberate: calls through interfaces and function
// values are not chased (sim.Probe implementations may read the clock —
// their call sites are annotated); recursion is resolved optimistically;
// and an argument must contain a tainted call syntactically for the
// into-deterministic direction to fire — a wall-clock value parked in a
// local first is the service layer's speedup clock, which is the one
// sanctioned way real time enters the system.
var DetTaint = &Analyzer{
	Name: "dettaint",
	Doc:  "forbid wall-clock reads, global-PRNG draws, and calls whose results transitively derive from them or map order in deterministic packages",
	Run:  runDetTaint,
}

// Allow-directive aliases for dettaint's two primitive source kinds. They
// are directive names only, not analyzers: All() does not list them, but
// Names() does.
const (
	wallClockAlias  = "detwallclock"
	globalRandAlias = "detrand"
)

// wallClockFuncs lists the package-level time functions that read or depend
// on the process clock. Referencing one at all (not just calling it) is a
// finding, so passing time.Now as a value is caught too.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"After":     true,
	"AfterFunc": true,
}

// randConstructors are the math/rand and math/rand/v2 functions that build
// an explicitly seeded generator rather than drawing from the global one.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// taintFactNS namespaces dettaint's facts in the Program store.
const taintFactNS = "dettaint"

// taintFact marks one function as a nondeterministic source. Chain walks
// from the function itself down to the primitive source, rendered as
// "pkg.F -> pkg.g -> time.Now".
type taintFact struct {
	// Reason names the primitive source: "time.Now", "rand.Intn",
	// "map iteration order".
	Reason string
	// Chain lists the call path from the marked function to the source.
	Chain []string
}

// notTainted is cached for functions proven clean, so the demand-driven
// walk visits every function at most once per Program.
type notTainted struct{}

func runDetTaint(pass *Pass) error {
	if pass.Prog == nil {
		return fmt.Errorf("dettaint requires a Program (use Run or RunProgram)")
	}
	d := &tainter{prog: pass.Prog}
	det := IsDeterministicPkg(pass.Pkg.Path)
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				// A direct wall-clock or global-PRNG reference inside a
				// deterministic package.
				if !det {
					return true
				}
				reason, alias := primitiveSource(pass.Pkg, n)
				if reason == "" || d.allowed(pass.Pkg, n.Pos(), alias) {
					return true
				}
				if alias == wallClockAlias {
					pass.Reportf(n.Pos(),
						"%s reads the wall clock in deterministic package %s; derive time from the engine clock, or annotate a profiling boundary with %s %s <reason>",
						reason, pass.Pkg.Path, DirectivePrefix, alias)
				} else {
					pass.Reportf(n.Pos(),
						"%s uses the process-global PRNG in deterministic package %s; draw from a seeded *stats.Source (or rand.New with an explicit seed) instead",
						reason, pass.Pkg.Path)
				}
				return true
			case *ast.Ident:
				if !det {
					return true
				}
				// A use of a tainted module function — call or value
				// reference — inside a deterministic package.
				fn, ok := pass.Pkg.Info.Uses[n].(*types.Func)
				if !ok {
					return true
				}
				fact := d.taintOf(fn)
				if fact == nil {
					return true
				}
				pass.Reportf(n.Pos(),
					"%s is a nondeterministic source (%s) used in deterministic package %s; derive the value from engine state, or annotate a reviewed boundary with %s %s <reason>",
					chainString(fact), fact.Reason, pass.Pkg.Path, DirectivePrefix, pass.Analyzer.Name)
				return true
			case *ast.CallExpr:
				if det {
					return true
				}
				// The other direction: a non-deterministic package passing a
				// freshly produced nondeterministic value into a
				// deterministic package's function.
				callee := calleeOf(pass.Pkg, n)
				if callee == nil || callee.Pkg() == nil || !IsDeterministicPkg(callee.Pkg().Path()) {
					return true
				}
				for _, arg := range n.Args {
					if src, reason := d.directTaintIn(pass.Pkg, arg); src != nil {
						pass.Reportf(src.Pos(),
							"%s flows into deterministic package %s via the call to %s; nondeterministic inputs must be journaled state, not live reads — or annotate with %s %s <reason>",
							reason, callee.Pkg().Path(), callee.Name(), DirectivePrefix, pass.Analyzer.Name)
					}
				}
				return true
			}
			return true
		})
	}
	return nil
}

// tainter computes and caches nondeterministic-source facts on demand.
type tainter struct {
	prog *Program
	// inProgress guards against recursion: a cycle is resolved
	// optimistically (the function is clean unless something acyclic taints
	// it), which can only under-report.
	inProgress map[*types.Func]bool
}

// taintOf returns the source fact for fn, computing and caching it on
// first demand. Functions without loadable bodies (stdlib other than the
// recognized time/rand primitives, interface methods) are clean.
func (d *tainter) taintOf(fn *types.Func) *taintFact {
	if f, ok := d.prog.Facts.Get(fn, taintFactNS); ok {
		if tf, ok := f.(*taintFact); ok {
			return tf
		}
		return nil
	}
	if d.inProgress[fn] {
		return nil
	}
	if d.inProgress == nil {
		d.inProgress = make(map[*types.Func]bool)
	}
	d.inProgress[fn] = true
	defer delete(d.inProgress, fn)

	fact := d.compute(fn)
	if fact != nil {
		d.prog.Facts.Set(fn, taintFactNS, fact)
	} else {
		d.prog.Facts.Set(fn, taintFactNS, notTainted{})
	}
	return fact
}

// compute scans fn's body for the first nondeterministic source in syntax
// order: a wall-clock or global-PRNG reference, an order-dependent map
// range, or a call to an already tainted module function.
func (d *tainter) compute(fn *types.Func) *taintFact {
	src, ok := d.prog.FuncSource(fn)
	if !ok || src.Decl.Body == nil {
		return nil
	}
	pkg := src.Pkg
	var fact *taintFact
	ast.Inspect(src.Decl.Body, func(n ast.Node) bool {
		if fact != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if reason, alias := primitiveSource(pkg, n); reason != "" && !d.allowed(pkg, n.Pos(), alias) {
				fact = &taintFact{Reason: reason, Chain: []string{funcLabel(fn), reason}}
				return false
			}
		case *ast.RangeStmt:
			if reason := mapOrderSource(pkg, n); reason != "" && !d.allowed(pkg, n.For, "maprange") {
				fact = &taintFact{Reason: reason, Chain: []string{funcLabel(fn), reason}}
				return false
			}
		case *ast.CallExpr:
			callee := calleeOf(pkg, n)
			if callee == nil || callee == fn {
				return true
			}
			if sub := d.taintOf(callee); sub != nil && !d.allowed(pkg, n.Pos(), "") {
				fact = &taintFact{Reason: sub.Reason, Chain: append([]string{funcLabel(fn)}, sub.Chain...)}
				return false
			}
		}
		return true
	})
	return fact
}

// allowed reports whether a dettaint directive, or one for the given
// alias, covers the position: a reviewed boundary that must not seed taint.
// The alias is the directive name for the source's kind (detwallclock,
// detrand, or maprange for map order) and is empty for a call to a tainted
// function, which only dettaint sanctions.
func (d *tainter) allowed(pkg *Package, pos token.Pos, alias string) bool {
	if !pos.IsValid() {
		return false
	}
	p := pkg.Fset.Position(pos)
	return d.prog.Allowed("dettaint", p.Filename, p.Line) ||
		alias != "" && d.prog.Allowed(alias, p.Filename, p.Line)
}

// directTaintIn scans an argument expression for a syntactically direct
// nondeterministic producer: a wall-clock/PRNG reference or a call to a
// tainted module function. It returns the offending node and a label.
func (d *tainter) directTaintIn(pkg *Package, arg ast.Expr) (ast.Node, string) {
	var node ast.Node
	var label string
	ast.Inspect(arg, func(n ast.Node) bool {
		if node != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if reason, alias := primitiveSource(pkg, n); reason != "" && !d.allowed(pkg, n.Pos(), alias) {
				node, label = n, reason
				return false
			}
		case *ast.CallExpr:
			callee := calleeOf(pkg, n)
			if callee == nil {
				return true
			}
			if sub := d.taintOf(callee); sub != nil && !d.allowed(pkg, n.Pos(), "") {
				node, label = n, chainString(sub)
				return false
			}
		}
		return true
	})
	return node, label
}

// primitiveSource classifies a selector as a primitive nondeterministic
// read — a wall-clock function from time, or a process-global math/rand
// function — returning its label ("time.Now") and the directive alias that
// names its kind, or "" if it is neither.
func primitiveSource(pkg *Package, sel *ast.SelectorExpr) (reason, alias string) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	switch path := pkgNameOf(&Pass{Pkg: pkg}, id); path {
	case "time":
		if wallClockFuncs[sel.Sel.Name] {
			return "time." + sel.Sel.Name, wallClockAlias
		}
	case "math/rand", "math/rand/v2":
		// Types (rand.Rand, rand.Source) and seeded constructors are fine;
		// any other function reference draws from the global generator.
		if _, isFunc := pkg.Info.Uses[sel.Sel].(*types.Func); isFunc && !randConstructors[sel.Sel.Name] {
			return "rand." + sel.Sel.Name, globalRandAlias
		}
	}
	return "", ""
}

// mapOrderSource reports whether a range statement iterates a map in a way
// that makes the function's behaviour order-dependent: the body returns or
// breaks (first-key-wins), which is the interprocedural shape maprange's
// sink rules cannot see.
func mapOrderSource(pkg *Package, rs *ast.RangeStmt) string {
	tv, ok := pkg.Info.Types[rs.X]
	if !ok {
		return ""
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return ""
	}
	if stmtEscapesLoop(rs.Body, true) {
		return "map iteration order"
	}
	return ""
}

// stmtEscapesLoop reports whether executing s can leave the enclosing map
// range early: a return anywhere (closures excluded — statement traversal
// never descends into expressions), or an unlabeled break bound to that
// range. breakMine is true while an unlabeled break still binds to the map
// range rather than to a nested loop, switch, or select.
func stmtEscapesLoop(s ast.Stmt, breakMine bool) bool {
	switch s := s.(type) {
	case nil:
		return false
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return breakMine && s.Tok == token.BREAK && s.Label == nil
	case *ast.BlockStmt:
		for _, st := range s.List {
			if stmtEscapesLoop(st, breakMine) {
				return true
			}
		}
	case *ast.IfStmt:
		return stmtEscapesLoop(s.Body, breakMine) || stmtEscapesLoop(s.Else, breakMine)
	case *ast.ForStmt:
		return stmtEscapesLoop(s.Body, false)
	case *ast.RangeStmt:
		return stmtEscapesLoop(s.Body, false)
	case *ast.SwitchStmt:
		return switchBodyEscapes(s.Body)
	case *ast.TypeSwitchStmt:
		return switchBodyEscapes(s.Body)
	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			for _, st := range cl.(*ast.CommClause).Body {
				if stmtEscapesLoop(st, false) {
					return true
				}
			}
		}
	case *ast.LabeledStmt:
		return stmtEscapesLoop(s.Stmt, breakMine)
	}
	return false
}

func switchBodyEscapes(body *ast.BlockStmt) bool {
	for _, cl := range body.List {
		for _, st := range cl.(*ast.CaseClause).Body {
			if stmtEscapesLoop(st, false) {
				return true
			}
		}
	}
	return false
}

// chainString renders a taint chain as "pkg.F -> pkg.g -> time.Now".
func chainString(f *taintFact) string {
	return strings.Join(f.Chain, " -> ")
}

// funcLabel renders a function for taint chains: pkg.Name for package
// functions, pkg.(Recv).Name for methods, with the module prefix dropped
// for brevity.
func funcLabel(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		name = recvLabel(sig.Recv().Type()) + "." + name
	}
	if fn.Pkg() != nil {
		p := fn.Pkg().Path()
		if i := strings.LastIndex(p, "/"); i >= 0 {
			p = p[i+1:]
		}
		name = p + "." + name
	}
	return name
}

func recvLabel(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
