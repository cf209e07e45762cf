package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SyncErr flags Sync and Close calls on writable files whose error result
// is discarded, inside the durability-critical packages (internal/durability
// and internal/service). A dropped fsync or close error means the WAL can
// acknowledge a record the disk never accepted — the exact failure the
// crash-recovery suite exists to rule out. Best-effort cleanup on an error
// path is annotated with //qoslint:allow syncerr <reason>.
var SyncErr = &Analyzer{
	Name: "syncerr",
	Doc:  "forbid discarding Sync/Close errors on writable files in durability-critical packages",
	Run:  runSyncErr,
}

// writerIface is io.Writer built from first principles so the analyzer does
// not depend on type-checking the io package: anything whose method set has
// Write([]byte) (int, error) counts as a writable handle.
var writerIface = func() *types.Interface {
	params := types.NewTuple(types.NewVar(token.NoPos, nil, "p", types.NewSlice(types.Typ[types.Byte])))
	results := types.NewTuple(
		types.NewVar(token.NoPos, nil, "n", types.Typ[types.Int]),
		types.NewVar(token.NoPos, nil, "err", types.Universe.Lookup("error").Type()),
	)
	sig := types.NewSignatureType(nil, nil, nil, params, results, false)
	iface := types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Write", sig)}, nil)
	iface.Complete()
	return iface
}()

func runSyncErr(pass *Pass) error {
	if !underInternal(pass.Pkg.Path, durabilityCriticalDirs) {
		return nil
	}
	forEachNode(pass, func(n ast.Node) bool {
		var call *ast.CallExpr
		switch stmt := n.(type) {
		case *ast.ExprStmt:
			call, _ = stmt.X.(*ast.CallExpr)
		case *ast.DeferStmt:
			call = stmt.Call
		case *ast.GoStmt:
			call = stmt.Call
		case *ast.AssignStmt:
			// `_ = f.Close()`: a single call whose one result lands in blank.
			if len(stmt.Rhs) != 1 || len(stmt.Lhs) != 1 {
				return true
			}
			if id, ok := stmt.Lhs[0].(*ast.Ident); !ok || id.Name != "_" {
				return true
			}
			call, _ = stmt.Rhs[0].(*ast.CallExpr)
		default:
			return true
		}
		if call == nil {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Sync" && sel.Sel.Name != "Close") {
			return true
		}
		fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok {
			return true
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil || !returnsOnlyError(sig) {
			return true
		}
		recv, ok := pass.Pkg.Info.Types[sel.X]
		if !ok || !isWritableHandle(recv.Type) {
			return true
		}
		pass.Reportf(call.Pos(),
			"error from %s.%s is discarded in durability-critical package %s; a lost write error breaks the crash-safety guarantee — handle it, or annotate best-effort cleanup with %s %s <reason>",
			exprString(pass.Pkg.Fset, sel.X), sel.Sel.Name, pass.Pkg.Path, DirectivePrefix, pass.Analyzer.Name)
		return true
	})
	return nil
}

func returnsOnlyError(sig *types.Signature) bool {
	if sig.Results().Len() != 1 {
		return false
	}
	named, ok := sig.Results().At(0).Type().(*types.Named)
	return ok && named.Obj() == types.Universe.Lookup("error")
}

// isWritableHandle reports whether t (or *t) satisfies the structural
// io.Writer shape — a file open for writing, a WAL segment, a snapshot
// temp file.
func isWritableHandle(t types.Type) bool {
	if types.Implements(t, writerIface) {
		return true
	}
	if _, isPtr := t.Underlying().(*types.Pointer); !isPtr {
		if _, isIface := t.Underlying().(*types.Interface); !isIface {
			return types.Implements(types.NewPointer(t), writerIface)
		}
	}
	return false
}
