package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"probqos/internal/lint/cfg"
)

// PoolEscape is a use-after-release checker for recycled objects: values
// handed back to a sync.Pool, to an arena, or to a freelist slice (the
// scheduler recycles reservations this way). Once released, the object
// belongs to the pool and may be handed to another caller and overwritten;
// reading it, storing it, or releasing it again is the aliasing bug tests
// can only catch probabilistically.
//
// A release is one of:
//
//   - (*sync.Pool).Put(x)
//   - a module-local method or function named put, free, recycle, or
//     release taking exactly one pointer argument (the arena and slab
//     idiom)
//   - a freelist push, x = append(x, v), where the slice's name contains
//     "free"
//
// After a release on any CFG path, every later use of the released
// variable is reported until an assignment rebinds it. The analysis is
// per-function and tracks plain variables only: aliases made before the
// release are invisible, which under-reports but never invents findings.
var PoolEscape = &Analyzer{
	Name: "poolescape",
	Doc:  "forbid using a pooled or freelisted object after it was released",
	Run:  runPoolEscape,
}

const (
	prLive     uint8 = 1 << iota
	prReleased       // released on some path and not yet rebound
)

// poolState carries per-variable liveness plus where the release that makes
// a later use dangerous happened.
type poolState struct {
	bits    map[*types.Var]uint8
	relPos  map[*types.Var]token.Position
	relVerb map[*types.Var]string
}

func newPoolState() *poolState {
	return &poolState{
		bits:    make(map[*types.Var]uint8),
		relPos:  make(map[*types.Var]token.Position),
		relVerb: make(map[*types.Var]string),
	}
}

func (s *poolState) clone() *poolState {
	out := newPoolState()
	for v, b := range s.bits {
		out.bits[v] = b
	}
	for v, p := range s.relPos {
		out.relPos[v] = p
	}
	for v, l := range s.relVerb {
		out.relVerb[v] = l
	}
	return out
}

// mergePoolState ORs src into dst (missing variables are live), keeping the
// earliest release site for messages. Reports whether dst changed.
func mergePoolState(dst, src *poolState) bool {
	changed := false
	for v, b := range src.bits {
		old := dst.bits[v]
		if old == 0 {
			old = prLive
		}
		if _, ok := dst.bits[v]; !ok || old|b != old {
			dst.bits[v] = old | b
			changed = true
		}
		if p, ok := src.relPos[v]; ok {
			if q, have := dst.relPos[v]; !have || p.Line < q.Line {
				dst.relPos[v] = p
				dst.relVerb[v] = src.relVerb[v]
			}
		}
	}
	for v, b := range dst.bits {
		if _, ok := src.bits[v]; !ok && b|prLive != b {
			dst.bits[v] = b | prLive
			changed = true
		}
	}
	return changed
}

const (
	pvUse = iota
	pvRelease
	pvKill
)

type poolEvent struct {
	pos  token.Pos
	kind int
	obj  *types.Var
	verb string // release verb for messages: "put", "sync.Pool Put", ...
}

func runPoolEscape(pass *Pass) error {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPoolFlow(pass, fd.Body)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				checkPoolFlow(pass, fl.Body)
			}
			return true
		})
	}
	return nil
}

func checkPoolFlow(pass *Pass, body *ast.BlockStmt) {
	pc := &poolChecker{pass: pass, tracked: trackedPoolVars(pass, body)}
	if len(pc.tracked) == 0 {
		return
	}
	pc.rangeHeads = make(map[ast.Node]*ast.RangeStmt)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if rs, ok := n.(*ast.RangeStmt); ok {
			pc.rangeHeads[rs.X] = rs
		}
		return true
	})
	pc.events = make(map[ast.Node][]poolEvent)
	pc.reported = make(map[string]bool)

	g := cfg.New(body)
	entries := map[*cfg.Block]*poolState{g.Entry: newPoolState()}
	work := []*cfg.Block{g.Entry}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		exit := pc.applyBlock(blk, entries[blk].clone(), false)
		for _, succ := range blk.Succs {
			dst, ok := entries[succ]
			if !ok {
				entries[succ] = exit.clone()
				work = append(work, succ)
				continue
			}
			if mergePoolState(dst, exit) {
				work = append(work, succ)
			}
		}
	}
	for _, blk := range g.Blocks {
		st, reachable := entries[blk]
		if !reachable {
			continue
		}
		pc.applyBlock(blk, st.clone(), true)
	}
}

type poolChecker struct {
	pass       *Pass
	tracked    map[*types.Var]bool
	rangeHeads map[ast.Node]*ast.RangeStmt
	events     map[ast.Node][]poolEvent
	reported   map[string]bool
}

func (pc *poolChecker) applyBlock(blk *cfg.Block, st *poolState, emit bool) *poolState {
	for _, n := range blk.Nodes {
		for _, ev := range pc.eventsFor(n) {
			bits := st.bits[ev.obj]
			if bits == 0 {
				bits = prLive
			}
			switch ev.kind {
			case pvUse:
				if emit && bits&prReleased != 0 {
					pc.reportOnce(ev.pos, ev.obj,
						"%s is used after being released to the pool (%s at line %d); the object may already be recycled and rewritten — copy what you need before releasing, or annotate with %s %s <reason>",
						ev.obj.Name(), st.relVerb[ev.obj], st.relPos[ev.obj].Line,
						DirectivePrefix, pc.pass.Analyzer.Name)
				}
			case pvRelease:
				if emit && bits&prReleased != 0 {
					pc.reportOnce(ev.pos, ev.obj,
						"%s may be released twice (previously %s at line %d); a double release hands the same object to two callers — release on exactly one path, or annotate with %s %s <reason>",
						ev.obj.Name(), st.relVerb[ev.obj], st.relPos[ev.obj].Line,
						DirectivePrefix, pc.pass.Analyzer.Name)
				}
				st.bits[ev.obj] = prReleased
				st.relPos[ev.obj] = pc.pass.Pkg.Fset.Position(ev.pos)
				st.relVerb[ev.obj] = ev.verb
			case pvKill:
				st.bits[ev.obj] = prLive
				delete(st.relPos, ev.obj)
				delete(st.relVerb, ev.obj)
			}
		}
	}
	return st
}

func (pc *poolChecker) reportOnce(pos token.Pos, obj *types.Var, format string, args ...any) {
	id := fmt.Sprintf("%d:%s", pos, obj.Name())
	if pc.reported[id] {
		return
	}
	pc.reported[id] = true
	pc.pass.Reportf(pos, format, args...)
}

// trackedPoolVars pre-scans the body for release sites and returns the set
// of variables they release; only these need flow tracking.
func trackedPoolVars(pass *Pass, body *ast.BlockStmt) map[*types.Var]bool {
	tracked := make(map[*types.Var]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n != body {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if v, _ := releaseCallArg(pass.Pkg, n); v != nil {
				tracked[v] = true
			}
		case *ast.AssignStmt:
			for _, v := range freelistPushVars(pass.Pkg, n) {
				tracked[v] = true
			}
		}
		return true
	})
	return tracked
}

// eventsFor extracts uses, releases, and rebindings of tracked variables
// from one CFG node, in execution order: right-hand sides before the
// left-hand-side kills of the same assignment, a range operand before the
// iteration variables it rebinds.
func (pc *poolChecker) eventsFor(n ast.Node) []poolEvent {
	if evs, ok := pc.events[n]; ok {
		return evs
	}
	var evs []poolEvent
	pkg := pc.pass.Pkg

	// Idents consumed by a recognized release become release events rather
	// than plain uses; assignment LHS idents become kills at the statement's
	// end so RHS uses order first.
	releases := make(map[*ast.Ident]string)
	kills := make(map[*ast.Ident]token.Pos)
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if v, verb := releaseCallArg(pkg, m); v != nil {
				if id, ok := ast.Unparen(m.Args[len(m.Args)-1]).(*ast.Ident); ok {
					releases[id] = verb
				}
			}
		case *ast.AssignStmt:
			if ids := freelistPushIdents(pkg, m); len(ids) > 0 {
				for _, id := range ids {
					releases[id] = "pushed onto the freelist"
				}
			}
			for _, lhs := range m.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if obj := identVar(pkg, id); obj != nil && pc.tracked[obj] {
						kills[id] = m.End()
					}
				}
			}
		case *ast.ValueSpec:
			for _, name := range m.Names {
				if obj := identVar(pkg, name); obj != nil && pc.tracked[obj] {
					kills[name] = m.End()
				}
			}
		}
		return true
	})
	if rs, ok := pc.rangeHeads[n]; ok {
		for _, e := range []ast.Expr{rs.Key, rs.Value} {
			if id, ok := e.(*ast.Ident); ok && e != nil {
				if obj := identVar(pkg, id); obj != nil && pc.tracked[obj] {
					kills[id] = rs.X.End()
				}
			}
		}
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		obj := identVar(pkg, id)
		if obj == nil || !pc.tracked[obj] {
			return true
		}
		if verb, ok := releases[id]; ok {
			evs = append(evs, poolEvent{pos: id.Pos(), kind: pvRelease, obj: obj, verb: verb})
			return true
		}
		if pos, ok := kills[id]; ok {
			evs = append(evs, poolEvent{pos: pos, kind: pvKill, obj: obj})
			return true
		}
		evs = append(evs, poolEvent{pos: id.Pos(), kind: pvUse, obj: obj})
		return true
	})
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
	pc.events[n] = evs
	return evs
}

// identVar resolves an identifier to the variable it uses or defines.
func identVar(pkg *Package, id *ast.Ident) *types.Var {
	if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
		return v
	}
	if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
		return v
	}
	return nil
}

// releaseCallArg classifies a call as a pool release and returns the
// variable it releases: (*sync.Pool).Put(x), or a module-local function or
// method named put/free/recycle/release taking exactly one pointer
// argument.
func releaseCallArg(pkg *Package, call *ast.CallExpr) (*types.Var, string) {
	fn := calleeOf(pkg, call)
	if fn == nil || len(call.Args) == 0 {
		return nil, ""
	}
	last := ast.Unparen(call.Args[len(call.Args)-1])
	id, ok := last.(*ast.Ident)
	if !ok {
		return nil, ""
	}
	v, ok := pkg.Info.Uses[id].(*types.Var)
	if !ok {
		return nil, ""
	}
	if fn.Name() == "Put" && fn.Pkg() != nil && fn.Pkg().Path() == "sync" && len(call.Args) == 1 {
		return v, "sync.Pool Put"
	}
	switch fn.Name() {
	case "put", "free", "recycle", "release":
	default:
		return nil, ""
	}
	if len(call.Args) != 1 || fn.Pkg() == nil || fn.Pkg().Path() == "sync" {
		return nil, ""
	}
	if _, isPtr := v.Type().Underlying().(*types.Pointer); !isPtr {
		return nil, ""
	}
	return v, fn.Name()
}

// freelistPushIdents recognizes the freelist push idiom
//
//	s.free = append(s.free, x)
//
// where the slice expression's terminal name contains "free", and returns
// the pushed identifiers.
func freelistPushIdents(pkg *Package, as *ast.AssignStmt) []*ast.Ident {
	if as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return nil
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" ||
		pkg.Info.Uses[id] != types.Universe.Lookup("append") {
		return nil
	}
	if !isFreelistName(as.Lhs[0]) ||
		exprString(pkg.Fset, as.Lhs[0]) != exprString(pkg.Fset, call.Args[0]) {
		return nil
	}
	var out []*ast.Ident
	for _, arg := range call.Args[1:] {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
			if v := identVar(pkg, id); v != nil {
				if _, isPtr := v.Type().Underlying().(*types.Pointer); isPtr {
					out = append(out, id)
				}
			}
		}
	}
	return out
}

// freelistPushVars is trackedPoolVars' view of freelistPushIdents.
func freelistPushVars(pkg *Package, as *ast.AssignStmt) []*types.Var {
	var out []*types.Var
	for _, id := range freelistPushIdents(pkg, as) {
		if v := identVar(pkg, id); v != nil {
			out = append(out, v)
		}
	}
	return out
}

// isFreelistName reports whether the expression's terminal identifier names
// a freelist: "free", "resFree", "freeList".
func isFreelistName(e ast.Expr) bool {
	var name string
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		name = e.Name
	case *ast.SelectorExpr:
		name = e.Sel.Name
	default:
		return false
	}
	return strings.Contains(strings.ToLower(name), "free")
}
