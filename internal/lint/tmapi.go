package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// tmAPI holds the contract-bearing objects of the tm package as resolved
// for one linted package, or nil when the package never imports it.
type tmAPI struct {
	txn     types.Type   // the tm.Txn interface (named)
	tm      types.Type   // the tm.TM interface (named)
	run     types.Object // func tm.Run
	isAbort types.Object // func tm.IsAbort
}

// resolveTM locates the tm package among p's imports (or p itself, when
// linting internal/tm). The package is recognized by its import path
// ("internal/tm" suffix) and by declaring the Txn interface.
func resolveTM(p *Package) *tmAPI {
	candidates := append([]*types.Package{p.Pkg}, p.Pkg.Imports()...)
	for _, imp := range candidates {
		if imp.Name() != "tm" && imp != p.Pkg {
			continue
		}
		if !strings.HasSuffix(imp.Path(), "internal/tm") && imp.Path() != "tm" {
			continue
		}
		scope := imp.Scope()
		txnObj, ok := scope.Lookup("Txn").(*types.TypeName)
		if !ok {
			continue
		}
		if _, ok := txnObj.Type().Underlying().(*types.Interface); !ok {
			continue
		}
		a := &tmAPI{txn: txnObj.Type()}
		if tmObj, ok := scope.Lookup("TM").(*types.TypeName); ok {
			a.tm = tmObj.Type()
		}
		a.run = scope.Lookup("Run")
		a.isAbort = scope.Lookup("IsAbort")
		return a
	}
	return nil
}

// isTxn reports whether t is the tm.Txn interface type.
func (a *tmAPI) isTxn(t types.Type) bool {
	return t != nil && a.txn != nil && types.Identical(t, a.txn)
}

// riskyKind names a call whose error result carries the abort contract.
type riskyKind string

// The calls whose errors must propagate.
const (
	kindNone   riskyKind = ""
	kindRead   riskyKind = "Txn.Read"
	kindWrite  riskyKind = "Txn.Write"
	kindCommit riskyKind = "TM.Commit"
	kindRun    riskyKind = "tm.Run"
)

// classify reports whether call is one of the abort-contract calls, and for
// method calls returns the receiver expression (nil for tm.Run).
func (a *tmAPI) classify(info *types.Info, call *ast.CallExpr) (riskyKind, ast.Expr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if obj := info.Uses[fun.Sel]; obj != nil && obj == a.run {
			return kindRun, nil
		}
		recvType := info.TypeOf(fun.X)
		if recvType == nil {
			return kindNone, nil
		}
		switch fun.Sel.Name {
		case "Read":
			if a.isTxn(recvType) {
				return kindRead, fun.X
			}
		case "Write":
			if a.isTxn(recvType) {
				return kindWrite, fun.X
			}
		case "Commit":
			if a.tm != nil && types.Identical(recvType, a.tm) {
				return kindCommit, fun.X
			}
		}
	case *ast.Ident:
		if obj := info.Uses[fun]; obj != nil && obj == a.run {
			return kindRun, nil
		}
	}
	return kindNone, nil
}

// isIsAbortCall reports whether call is tm.IsAbort(...).
func (a *tmAPI) isIsAbortCall(info *types.Info, call *ast.CallExpr) bool {
	if a.isAbort == nil {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel] == a.isAbort
	case *ast.Ident:
		return info.Uses[fun] == a.isAbort
	}
	return false
}

// errResultIndex returns the index of the trailing error result of call's
// signature, or -1.
func errResultIndex(info *types.Info, call *ast.CallExpr) int {
	tv, ok := info.Types[call]
	if !ok {
		return -1
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		if t.Len() > 0 && isErrorType(t.At(t.Len()-1).Type()) {
			return t.Len() - 1
		}
	default:
		if isErrorType(tv.Type) {
			return 0
		}
	}
	return -1
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool { return t != nil && types.Identical(t, errorType) }
