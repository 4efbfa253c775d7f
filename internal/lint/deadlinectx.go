package lint

import (
	"go/ast"
	"go/types"
)

// runDeadlineCtx enforces deadline propagation through context-aware
// atomic blocks: the whole point of tm.RunCtx is that the caller's
// context — its deadline, its cancellation — governs the attempt. A
// closure that manufactures a fresh root context via context.Background()
// or context.TODO() severs that chain: whatever the fresh context is
// handed to (a helper, a sub-operation, a Done select) keeps running
// after the caller's deadline has expired, which is exactly the
// unbounded-latency defect the serving layer's per-request budgets exist
// to prevent. Flagged:
//
//	tm.RunCtx(ctx, m, 0, func(x tm.Txn) error {
//	    return helper(context.Background(), x) // deadline lost
//	})
//
// The fix is to capture and thread the RunCtx context (or one derived
// from it with context.WithTimeout etc.). Nested function literals are
// skipped: a goroutine spawned from the closure runs on its own schedule
// and may legitimately want a detached context. tm.RunUntil closures are
// not checked: that loop takes a deadline, not a context, so there is no
// caller context to thread.
func runDeadlineCtx(p *Package) []Finding {
	api := resolveTM(p)
	if api == nil || api.runCtx == nil {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 || api.boundedRun(p.Info, call) != api.runCtx {
				return true
			}
			lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
			if !ok {
				return true
			}
			out = append(out, checkDeadlineClosure(p, lit)...)
			return true
		})
	}
	return out
}

// checkDeadlineClosure flags fresh-root context constructions in one
// RunCtx closure body, skipping nested function literals.
func checkDeadlineClosure(p *Package, lit *ast.FuncLit) []Finding {
	var out []Finding
	ast.Inspect(lit, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := freshRootCtxCall(p.Info, call)
		if name == "" {
			return true
		}
		out = append(out, Finding{
			Pos:  p.Fset.Position(call.Pos()),
			Pass: "deadlinectx",
			Message: "context." + name + "() inside a tm.RunCtx closure discards the caller's " +
				"deadline and cancellation — thread the RunCtx context (or derive from it) instead",
		})
		return true
	})
	return out
}

// freshRootCtxCall returns "Background" or "TODO" when call constructs a
// fresh root context from the standard context package, else "".
func freshRootCtxCall(info *types.Info, call *ast.CallExpr) string {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	case *ast.Ident: // dot-imported
		obj = info.Uses[fun]
	}
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
		return ""
	}
	switch obj.Name() {
	case "Background", "TODO":
		return obj.Name()
	}
	return ""
}
