package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// buildParents maps every node in f to its parent, so passes can walk
// upward from an expression to its statement and enclosing function.
func buildParents(f *ast.File) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// enclosingFunc returns the innermost FuncDecl or FuncLit containing n
// (exclusive of n itself), or nil.
func enclosingFunc(parents map[ast.Node]ast.Node, n ast.Node) ast.Node {
	for cur := parents[n]; cur != nil; cur = parents[cur] {
		switch cur.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return cur
		}
	}
	return nil
}

// funcBody returns the body of a FuncDecl or FuncLit.
func funcBody(fn ast.Node) *ast.BlockStmt {
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}

// lvalPath flattens an assignable expression into a dotted path rooted at
// an identifier: "x", "rec.reads", "t.inner". Index expressions collapse
// onto their base ("s[i]" → "s"). It returns the root identifier and ""
// when the expression is not a simple path.
func lvalPath(e ast.Expr) (root *ast.Ident, path string) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e, e.Name
	case *ast.SelectorExpr:
		root, base := lvalPath(e.X)
		if root == nil {
			return nil, ""
		}
		return root, base + "." + e.Sel.Name
	case *ast.IndexExpr:
		return lvalPath(e.X)
	case *ast.StarExpr:
		return lvalPath(e.X)
	}
	return nil, ""
}

// exprMentions reports whether expr references obj anywhere.
func exprMentions(info *types.Info, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// objOf resolves an identifier to its object, whether it is a use or a
// definition site.
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}

// declaredWithin reports whether obj's declaration lies inside node's
// source range.
func declaredWithin(obj types.Object, node ast.Node) bool {
	return obj != nil && obj.Pos() != token.NoPos &&
		obj.Pos() >= node.Pos() && obj.Pos() < node.End()
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && objOf(info, id) == types.Universe.Lookup("nil")
}

// terminatorNames are call targets that stop the error path: the process
// exits, the test fails, or control never returns.
var terminatorNames = map[string]bool{
	"Fatal": true, "Fatalf": true, "Fatalln": true,
	"Panic": true, "Panicf": true, "Panicln": true,
	"FailNow": true, "SkipNow": true, "Skip": true, "Skipf": true,
	"Exit": true, "Goexit": true,
	"fatal": true, "fatalf": true,
}

// pathTerminates reports whether the statement list contains (outside any
// nested function literal) a statement that leaves the enclosing function
// or process: return, goto, break, continue, panic, or a fatal/exit-style
// call.
func pathTerminates(stmts []ast.Stmt) bool {
	term := false
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt, *ast.BranchStmt:
				term = true
			case *ast.CallExpr:
				switch fun := ast.Unparen(n.Fun).(type) {
				case *ast.Ident:
					if fun.Name == "panic" || terminatorNames[fun.Name] {
						term = true
					}
				case *ast.SelectorExpr:
					if terminatorNames[fun.Sel.Name] {
						term = true
					}
				}
			}
			return !term
		})
		if term {
			return true
		}
	}
	return false
}

// calleeFunc resolves a call expression to the package-level function or
// method it invokes, when that is statically evident.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[f].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
