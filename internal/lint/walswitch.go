package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// WalSwitch pins the crash-safety contract that every journaled record kind
// is replayable: the journal's engine-op kinds and qosd's session-book
// kinds are string constants switched over by the apply path that live
// requests, WAL and snapshot replay, and the scenario runner share, and
// adding a kind without extending every switch must fail lint, not fail at
// the first post-crash boot.
//
// The analyzer has no hard-coded list of enums. Any package-level const
// block declaring two or more string constants forms a kind group; a switch
// statement that cases on any member of a group must case on all of them.
// A default clause does not exempt the switch: machine.apply ends in a
// default that rejects unknown kinds, and that error path is precisely what
// a forgotten case would fall into at replay time. Additionally, an unexported member that is never used outside its
// own declaration and switch cases has no producer anywhere in the module —
// a record kind nothing journals — and is reported at its declaration.
var WalSwitch = &Analyzer{
	Name: "walswitch",
	Doc:  "require switches over journaled record-kind const groups to handle every kind",
	Run:  runWalSwitch,
}

// kindGroup is one package-level const block of string constants, treated
// as a closed record-kind enumeration.
type kindGroup struct {
	// Members in declaration order.
	Members []*types.Const
	// Pos is the const block's position, used to name the group in
	// findings.
	Pos token.Position
}

// kindGroupFactNS namespaces the member-to-group index in the Program's
// fact store, so each declaring package is scanned once no matter how many
// target packages switch over its kinds.
const kindGroupFactNS = "walswitch"

func runWalSwitch(pass *Pass) error {
	if pass.Prog == nil {
		return nil
	}
	// Exhaustiveness: every switch that cases on a kind must case on the
	// whole group.
	forEachNode(pass, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return true
		}
		covered := make(map[*kindGroup]map[*types.Const]bool)
		for _, cl := range sw.Body.List {
			for _, e := range cl.(*ast.CaseClause).List {
				c := constOf(pass.Pkg, e)
				if c == nil {
					continue
				}
				g := groupOf(pass.Prog, c)
				if g == nil {
					continue
				}
				if covered[g] == nil {
					covered[g] = make(map[*types.Const]bool)
				}
				covered[g][c] = true
			}
		}
		for g, got := range covered {
			var missing []string
			for _, m := range g.Members {
				if !got[m] {
					missing = append(missing, m.Name())
				}
			}
			if len(missing) == 0 {
				continue
			}
			sort.Strings(missing)
			pass.Reportf(sw.Switch,
				"switch covers only %d of %d kinds declared at %s:%d (missing %s); every journaled kind needs identical live and replay handling — add the cases, or annotate with %s %s <reason>",
				len(got), len(g.Members), shortFile(g.Pos.Filename), g.Pos.Line,
				strings.Join(missing, ", "), DirectivePrefix, pass.Analyzer.Name)
		}
		return true
	})

	// Construction: an unexported kind declared in this package must be
	// produced somewhere in the module, not just discriminated on.
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					c, _ := pass.Pkg.Info.Defs[name].(*types.Const)
					if c == nil || c.Exported() || groupOf(pass.Prog, c) == nil {
						continue
					}
					if !constructedSomewhere(pass.Prog, c) {
						pass.Reportf(name.Pos(),
							"record kind %s is switched on but never constructed; a kind nothing journals cannot appear in a WAL — wire up its producer or delete it",
							c.Name())
					}
				}
			}
		}
	}
	return nil
}

// constOf resolves a case expression to the constant it names, or nil.
func constOf(pkg *Package, e ast.Expr) *types.Const {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	c, _ := pkg.Info.Uses[id].(*types.Const)
	return c
}

// groupOf returns the kind group the constant belongs to, indexing the
// declaring package's const blocks on first demand. Constants that are not
// part of a string group of at least two members — or whose declaring
// package is not loaded — have no group.
func groupOf(prog *Program, c *types.Const) *kindGroup {
	if g, ok := prog.Facts.Get(c, kindGroupFactNS); ok {
		grp, _ := g.(*kindGroup)
		return grp
	}
	if c.Pkg() == nil {
		return nil
	}
	pkg := prog.Package(c.Pkg().Path())
	if pkg == nil {
		return nil
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			group := &kindGroup{Pos: pkg.Fset.Position(gd.Pos())}
			stringGroup := true
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					stringGroup = false
					break
				}
				for _, name := range vs.Names {
					m, _ := pkg.Info.Defs[name].(*types.Const)
					if m == nil || !isStringConst(m) {
						stringGroup = false
						break
					}
					group.Members = append(group.Members, m)
				}
				if !stringGroup {
					break
				}
			}
			if !stringGroup || len(group.Members) < 2 {
				continue
			}
			for _, m := range group.Members {
				prog.Facts.Set(m, kindGroupFactNS, group)
			}
		}
	}
	// A negative result is cached too, so unrelated constants in scanned
	// packages do not trigger rescans.
	if _, ok := prog.Facts.Get(c, kindGroupFactNS); !ok {
		prog.Facts.Set(c, kindGroupFactNS, (*kindGroup)(nil))
	}
	g, _ := prog.Facts.Get(c, kindGroupFactNS)
	grp, _ := g.(*kindGroup)
	return grp
}

func isStringConst(c *types.Const) bool {
	basic, ok := c.Type().Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// constructedSomewhere reports whether any loaded package uses the constant
// outside a const declaration and outside switch case expressions — i.e.
// there exists a site that actually produces a record with this kind.
func constructedSomewhere(prog *Program, c *types.Const) bool {
	for _, pkg := range prog.Packages() {
		for _, file := range pkg.Files {
			// Collect spans where a use does not count as construction:
			// const blocks and case-clause expression lists.
			var skip []span
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.GenDecl:
					if n.Tok == token.CONST {
						skip = append(skip, span{n.Pos(), n.End()})
					}
				case *ast.CaseClause:
					for _, e := range n.List {
						skip = append(skip, span{e.Pos(), e.End()})
					}
				}
				return true
			})
			found := false
			ast.Inspect(file, func(n ast.Node) bool {
				if found {
					return false
				}
				id, ok := n.(*ast.Ident)
				if !ok || pkg.Info.Uses[id] != c {
					return true
				}
				for _, s := range skip {
					if id.Pos() >= s.from && id.Pos() < s.to {
						return true
					}
				}
				found = true
				return false
			})
			if found {
				return true
			}
		}
	}
	return false
}

type span struct{ from, to token.Pos }

// shortFile trims a path to its final two elements for findings that name
// a declaration in another file.
func shortFile(path string) string {
	parts := strings.Split(path, "/")
	if len(parts) <= 2 {
		return path
	}
	return strings.Join(parts[len(parts)-2:], "/")
}
