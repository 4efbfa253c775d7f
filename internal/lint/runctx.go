package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// runRunCtx enforces cancellation responsiveness of cancellable atomic
// blocks: tm.RunCtx observes cancellation at the transaction boundaries —
// Txn.Read, Txn.Write and the commit points — and tm.RunUntil observes its
// deadline when the closure returns, so a closure that spins in an
// unconditional loop without ever crossing a transaction boundary (or
// consulting a context itself) can never be cancelled, and the watchdog
// cannot kill it either (kills land at the Txn boundaries). Flagged:
//
//	for { ... }   // no Txn call, no ctx.Done()/ctx.Err(), no way out
//
// inside a closure passed to tm.RunCtx or tm.RunUntil. A loop stays
// silent when it calls a Txn method, touches a context.Context (checking
// Done/Err or passing it to a helper), or can exit on its own (break,
// return, goto, panic).
func runRunCtx(p *Package) []Finding {
	api := resolveTM(p)
	if api == nil || (api.runCtx == nil && api.runUntil == nil) {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			run := api.boundedRun(p.Info, call)
			if run == nil {
				return true
			}
			lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
			if !ok {
				return true
			}
			out = append(out, checkCtxClosure(p, api, run.Name(), lit)...)
			return true
		})
	}
	return out
}

// checkCtxClosure flags unconditional loops in one closure passed to
// tm.<run> that can neither observe cancellation nor terminate. Nested
// function literals are skipped: they run on their own schedule (or not
// at all).
func checkCtxClosure(p *Package, api *tmAPI, run string, lit *ast.FuncLit) []Finding {
	var out []Finding
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n != lit {
				return false
			}
		case *ast.ForStmt:
			if n.Cond == nil && !loopObservesCtx(p, api, n.Body) && !loopCanExit(p, n.Body) {
				out = append(out, Finding{
					Pos:  p.Fset.Position(n.Pos()),
					Pass: "runctx",
					Message: "unconditional loop in a tm." + run + " closure ignores cancellation: " +
						"no Txn call, no ctx.Done()/ctx.Err() check and no exit — " +
						"cross a transaction boundary or consult the context inside the loop",
				})
			}
		}
		return true
	}
	ast.Inspect(lit, walk)
	return out
}

// loopObservesCtx reports whether the loop body can notice cancellation: a
// Txn boundary call (Read/Write/Commit/Run — the hardened loop checks the
// context there), a context method (Done/Err/Deadline/Value), or a
// context.Context value handed to any call (a helper may check it).
// Function literals inside the loop are scanned too — generosity here only
// costs false negatives, never false positives.
func loopObservesCtx(p *Package, api *tmAPI, body *ast.BlockStmt) bool {
	observes := false
	ast.Inspect(body, func(n ast.Node) bool {
		if observes {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if kind, _ := api.classify(p.Info, call); kind != kindNone {
			observes = true
			return false
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "Done", "Err", "Deadline", "Value":
				if isContextType(p.Info.TypeOf(sel.X)) {
					observes = true
					return false
				}
			}
		}
		for _, arg := range call.Args {
			if isContextType(p.Info.TypeOf(arg)) {
				observes = true
				return false
			}
		}
		return true
	})
	return observes
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Context" &&
		obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// loopCanExit reports whether the loop body can leave the loop on its own:
// a return, a goto, a panic, a labeled break, or an unlabeled break not
// captured by a nested breakable statement. Nested function literals do
// not count (their returns return from the literal).
func loopCanExit(p *Package, body *ast.BlockStmt) bool {
	var stmts func(list []ast.Stmt, nested bool) bool
	var stmt func(s ast.Stmt, nested bool) bool
	stmts = func(list []ast.Stmt, nested bool) bool {
		for _, s := range list {
			if stmt(s, nested) {
				return true
			}
		}
		return false
	}
	stmt = func(s ast.Stmt, nested bool) bool {
		switch s := s.(type) {
		case *ast.ReturnStmt:
			return true
		case *ast.BranchStmt:
			switch s.Tok {
			case token.GOTO:
				return true
			case token.BREAK:
				// A labeled break targets this loop or an enclosing one;
				// either way control leaves the loop.
				return s.Label != nil || !nested
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok &&
					objOf(p.Info, id) == types.Universe.Lookup("panic") {
					return true
				}
			}
		case *ast.BlockStmt:
			return stmts(s.List, nested)
		case *ast.LabeledStmt:
			return stmt(s.Stmt, nested)
		case *ast.IfStmt:
			if stmt(s.Body, nested) {
				return true
			}
			if s.Else != nil && stmt(s.Else, nested) {
				return true
			}
		case *ast.ForStmt:
			return stmts(s.Body.List, true)
		case *ast.RangeStmt:
			return stmts(s.Body.List, true)
		case *ast.SwitchStmt:
			return stmts(s.Body.List, true)
		case *ast.TypeSwitchStmt:
			return stmts(s.Body.List, true)
		case *ast.SelectStmt:
			return stmts(s.Body.List, true)
		case *ast.CaseClause:
			return stmts(s.Body, nested)
		case *ast.CommClause:
			return stmts(s.Body, nested)
		}
		return false
	}
	return stmts(body.List, false)
}
