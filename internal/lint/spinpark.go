package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// runSpinPark flags spin-wait loops that can starve the scheduler: a
// `for` loop polling shared atomic state (slot waits, ring full/empty
// retries) whose body never yields and never attempts lock-free
// progress. On a box with GOMAXPROCS goroutines pinned in such loops the
// writer that would satisfy the wait may never be scheduled — the shape
// the PR 4 watchdog only catches at runtime, after the stall.
//
// A loop is a spin-wait candidate when its condition performs an atomic
// load, or it is an unconditional `for {}` whose body performs one.
// Bounded counter loops (`for i := 0; i < limit; i++`) are not
// candidates: the bound is the escalation.
//
// The loop is accepted when any iteration can yield or progress:
//
//   - runtime.Gosched or time.Sleep (yield / back off);
//   - a channel operation or select (parks in the runtime);
//   - a sync.Mutex/RWMutex Lock, sync.WaitGroup/Cond Wait (parks);
//   - a read-modify-write atomic (Add/Swap/CompareAndSwap/And/Or) — a
//     CAS retry loop is lock-free progress, not a pure spin: a failed
//     attempt means another thread advanced. A plain Store does not
//     count; it usually sits on the success branch the spin never takes;
//   - a call into a function that transitively does any of the above.
//     Cross-package, interface and func-value callees are conservatively
//     assumed to yield; only same-package static callees are walked.
func runSpinPark(p *Package) []Finding {
	yielding := yieldingFuncs(p)

	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok {
				return true
			}
			if !spinCandidate(p, loop) {
				return true
			}
			if loopCanYield(p, loop, yielding) {
				return true
			}
			out = append(out, Finding{
				Pos:     p.Fset.Position(loop.Pos()),
				Pass:    "spinpark",
				Message: "spin-wait loop never yields; bound the spin and escalate (runtime.Gosched, sleep, or park) so a stalled writer can be scheduled",
			})
			return true
		})
	}
	return out
}

// spinCandidate reports whether loop polls shared atomic state: an
// atomic load in the condition, or an unconditional loop with an atomic
// load in the body. A loop with a non-atomic condition terminates on its
// own terms (bounded counters, local predicates) and is out of scope.
func spinCandidate(p *Package, loop *ast.ForStmt) bool {
	if loop.Cond != nil {
		return exprHasAtomicLoad(p, loop.Cond)
	}
	found := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isAtomicLoadCall(p, call) {
			found = true
			return false
		}
		return true
	})
	return found
}

// exprHasAtomicLoad reports whether e contains an atomic load call.
func exprHasAtomicLoad(p *Package, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isAtomicLoadCall(p, call) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isAtomicLoadCall matches x.f.Load() and atomic.LoadUint64(&x).
func isAtomicLoadCall(p *Package, call *ast.CallExpr) bool {
	if _, _, write, ok := atomicMethodCall(p.Info, call); ok {
		return !write
	}
	if op, ok := isAtomicPkgFunc(p.Info, call); ok {
		return len(op) >= 4 && op[:4] == "Load"
	}
	return false
}

// loopCanYield reports whether some construct in the loop (condition,
// post statement or body, excluding nested function literals) yields,
// parks, or makes lock-free progress.
func loopCanYield(p *Package, loop *ast.ForStmt, yielding map[*types.Func]bool) bool {
	found := false
	check := func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if nodeYields(p, n, yielding) {
			found = true
			return false
		}
		return true
	}
	if loop.Cond != nil {
		ast.Inspect(loop.Cond, check)
	}
	if loop.Post != nil && !found {
		ast.Inspect(loop.Post, check)
	}
	if !found {
		ast.Inspect(loop.Body, check)
	}
	return found
}

// nodeYields reports whether a single AST node is a yield/park/progress
// construct.
func nodeYields(p *Package, n ast.Node, yielding map[*types.Func]bool) bool {
	switch n := n.(type) {
	case *ast.SelectStmt:
		return true
	case *ast.SendStmt:
		return true
	case *ast.RangeStmt:
		// Ranging over a channel parks.
		if t, ok := p.Info.TypeOf(n.X).(*types.Chan); ok {
			_ = t
			return true
		}
	case *ast.UnaryExpr:
		if n.Op.String() == "<-" {
			return true
		}
	case *ast.CallExpr:
		return callYields(p, n, yielding)
	}
	return false
}

// callYields classifies one call inside a spin loop.
func callYields(p *Package, call *ast.CallExpr, yielding map[*types.Func]bool) bool {
	// Yield/back-off primitives.
	if name, ok := pkgFuncCall(p.Info, call, "runtime"); ok {
		return name == "Gosched"
	}
	if name, ok := pkgFuncCall(p.Info, call, "time"); ok {
		return name == "Sleep" || name == "After" || name == "Tick"
	}
	// Read-modify-write atomics are lock-free progress (CAS retry loops:
	// a failed CAS means another thread advanced). A plain Store is not —
	// it typically sits on the success branch the spin never reaches.
	if _, name, write, ok := atomicMethodCall(p.Info, call); ok {
		return write && name != "Store"
	}
	if op, ok := isAtomicPkgFunc(p.Info, call); ok {
		if len(op) >= 4 && op[:4] == "Load" {
			return false
		}
		return len(op) < 5 || op[:5] != "Store"
	}
	// sync parking primitives: Mutex.Lock, RWMutex.RLock, WaitGroup.Wait,
	// Cond.Wait.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if recvPkgPath(p.Info, sel) == "sync" {
			switch sel.Sel.Name {
			case "Lock", "RLock", "Wait":
				return true
			}
		}
	}
	// Everything else: resolve the callee.
	fn := calleeFunc(p.Info, call)
	if fn == nil {
		// Builtins and conversions are pure; unresolvable calls (func
		// values, interface methods) are conservatively yielding.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if _, isB := objOf(p.Info, id).(*types.Builtin); isB {
				return false
			}
		}
		if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
			return false // conversion
		}
		return true
	}
	if fn.Pkg() == nil {
		return false // builtin-like (unsafe, error.Error)
	}
	if fn.Pkg() != p.Pkg {
		// Cross-package: assumed to yield, except the atomic loads and
		// pure helpers already classified above.
		if fn.Pkg().Path() == "sync/atomic" {
			return false
		}
		return true
	}
	return yielding[fn]
}

// pkgFuncCall reports whether call invokes a package-level function of
// the package imported from pkgPath, returning the function name.
func pkgFuncCall(info *types.Info, call *ast.CallExpr, pkgPath string) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return "", false
	}
	pkg, ok := info.Uses[id].(*types.PkgName)
	if !ok || pkg.Imported().Path() != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}

// recvPkgPath returns the package path of the named type of a method
// call's receiver expression, or "".
func recvPkgPath(info *types.Info, sel *ast.SelectorExpr) string {
	t := info.TypeOf(sel.X)
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path()
}

// yieldingFuncs computes, to a fixpoint, the set of same-package
// functions that yield/park/progress on some path — the transitive
// closure runSpinPark consults for static same-package callees.
func yieldingFuncs(p *Package) map[*types.Func]bool {
	bodies := map[*types.Func]*ast.FuncDecl{}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				bodies[fn] = fd
			}
		}
	}
	yielding := map[*types.Func]bool{}
	for changed := true; changed; {
		changed = false
		for fn, fd := range bodies {
			if yielding[fn] {
				continue
			}
			does := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if does {
					return false
				}
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				if nodeYields(p, n, yielding) {
					does = true
					return false
				}
				return true
			})
			if does {
				yielding[fn] = true
				changed = true
			}
		}
	}
	return yielding
}

// atomicFuncPrefixes are the sync/atomic package-level operations, keyed by
// prefix: atomic.LoadUint64, atomic.AddInt32, atomic.CompareAndSwapPointer…
var atomicFuncPrefixes = []string{
	"Load", "Store", "Add", "Swap", "CompareAndSwap", "And", "Or",
}

// atomicReadMethods and atomicWriteMethods are the methods of the typed atomics (atomic.Uint64,
// atomic.Int32, atomic.Pointer…), split by whether they mutate.
var (
	atomicReadMethods  = map[string]bool{"Load": true}
	atomicWriteMethods = map[string]bool{
		"Store": true, "Add": true, "Swap": true,
		"CompareAndSwap": true, "And": true, "Or": true,
	}
)

// isAtomicPkgFunc reports whether call invokes a sync/atomic package-level
// function, returning the operation name.
func isAtomicPkgFunc(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return "", false
	}
	pkg, ok := info.Uses[id].(*types.PkgName)
	if !ok || pkg.Imported().Path() != "sync/atomic" {
		return "", false
	}
	for _, p := range atomicFuncPrefixes {
		if strings.HasPrefix(sel.Sel.Name, p) {
			return sel.Sel.Name, true
		}
	}
	return "", false
}

// isAtomicType reports whether t is one of sync/atomic's typed atomics
// (atomic.Uint64, atomic.Uint32, atomic.Int64, atomic.Bool, …).
func isAtomicType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// atomicMethodCall reports whether call is a method call on a typed atomic
// value (x.f.Load(), slot.ver.Store(v)…), returning the receiver
// expression, the method name, and whether it mutates.
func atomicMethodCall(info *types.Info, call *ast.CallExpr) (recv ast.Expr, name string, write, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false, false
	}
	n := sel.Sel.Name
	if !atomicReadMethods[n] && !atomicWriteMethods[n] {
		return nil, "", false, false
	}
	if !isAtomicType(info.TypeOf(sel.X)) {
		return nil, "", false, false
	}
	return sel.X, n, atomicWriteMethods[n], true
}
