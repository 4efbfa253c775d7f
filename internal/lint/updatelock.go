package lint

import (
	"go/ast"
	"go/types"
)

// runUpdateLock enforces the commit-time locking discipline of the
// commit pipeline (internal/rococotm): `u.active.Store(1)` publishes a
// per-thread update-set entry that doubles as the commit-time lock on the
// transaction's write set — directly, or by calling a helper that arms an
// entry and returns holding it (the publication stage's arm) — and every
// path out of the function must release it: directly (`u.active.Store(0)`),
// via a defer of that store, or by calling a function that transitively
// performs the release (the stage's disarm, for example).
// A `return` reached while the entry is still held leaves the write set
// locked forever: readers of any overlapping address spin until their
// spin limit and abort, and the thread's slot is poisoned.
//
// The pass is flow-sensitive along statement lists: after an acquire it
// walks the remaining statements (descending into branches), reporting
// any return encountered before a release on that path. A statement whose
// unconditionally evaluated part (expression statement, assignment
// right-hand side, if/for/switch init or condition, return operands, defer
// of a release) performs or transitively reaches a release ends the held
// region. Transitive releasers are computed to a fixpoint over the
// package's call graph, so a helper that itself delegates the release is
// recognized.
func runUpdateLock(p *Package) []Finding {
	// Package functions by their types object, for call resolution.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}

	// Releasing set: functions containing a direct `.active.Store(0)`,
	// closed under "calls a releasing function".
	releasing := map[*types.Func]bool{}
	for fn, fd := range decls {
		if containsActiveStore(fd.Body, "0") {
			releasing[fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, fd := range decls {
			if releasing[fn] {
				continue
			}
			found := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if found {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok {
					if callee := calleeFunc(p.Info, call); callee != nil && releasing[callee] {
						found = true
					}
				}
				return true
			})
			if found {
				releasing[fn] = true
				changed = true
			}
		}
	}

	// Acquiring set: helpers that store 1 and never release, so they return
	// holding the entry; a call to one is an acquire in the caller. Not
	// closed transitively — a caller that returns while armed is a finding,
	// not a second helper.
	acquiring := map[*types.Func]bool{}
	for fn, fd := range decls {
		if !releasing[fn] && containsActiveStore(fd.Body, "1") {
			acquiring[fn] = true
		}
	}

	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			body := funcBody(n)
			if body == nil {
				return true
			}
			s := &updateLock{p: p, releasing: releasing, acquiring: acquiring}
			s.scan(body.List)
			out = append(out, s.findings...)
			return true // nested literals are scanned as their own functions
		})
	}
	return dedupe(out)
}

type updateLock struct {
	p         *Package
	releasing map[*types.Func]bool
	acquiring map[*types.Func]bool
	findings  []Finding

	// Acquire site being tracked: root object and dotted path of the
	// update-set entry, so the release must name the same entry.
	recvObj  types.Object
	recvPath string
}

// activeStore matches `<recv>.active.Store(<0|1>)` and returns the entry
// expression and the stored value.
func activeStore(call *ast.CallExpr) (recv ast.Expr, val string, ok bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Store" || len(call.Args) != 1 {
		return nil, "", false
	}
	inner, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok || inner.Sel.Name != "active" {
		return nil, "", false
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || (lit.Value != "0" && lit.Value != "1") {
		return nil, "", false
	}
	return inner.X, lit.Value, true
}

// containsActiveStore reports whether the body stores val ("0" or "1") to
// any update-set entry's active flag.
func containsActiveStore(body *ast.BlockStmt, val string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if _, v, ok := activeStore(call); ok && v == val {
				found = true
			}
		}
		return true
	})
	return found
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

// scan walks a statement list outside any held region, looking for
// acquires; the remainder of the list after an acquire is scanned held.
func (s *updateLock) scan(stmts []ast.Stmt) {
	for i, st := range stmts {
		if recv, ok := s.acquireIn(st); ok {
			root, path := lvalPath(recv)
			if root != nil {
				s.recvObj, s.recvPath = objOf(s.p.Info, root), path
			} else {
				s.recvObj, s.recvPath = nil, ""
			}
			s.scanHeld(stmts[i+1:])
			return
		}
		// Normal descent: branches may contain their own acquires.
		switch t := st.(type) {
		case *ast.IfStmt:
			s.scan(t.Body.List)
			switch e := t.Else.(type) {
			case *ast.BlockStmt:
				s.scan(e.List)
			case *ast.IfStmt:
				s.scan([]ast.Stmt{e})
			}
		case *ast.BlockStmt:
			s.scan(t.List)
		case *ast.ForStmt:
			s.scan(t.Body.List)
		case *ast.RangeStmt:
			s.scan(t.Body.List)
		case *ast.SwitchStmt:
			for _, c := range t.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					s.scan(cc.Body)
				}
			}
		case *ast.SelectStmt:
			for _, c := range t.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					s.scan(cc.Body)
				}
			}
		case *ast.LabeledStmt:
			s.scan([]ast.Stmt{t.Stmt})
		}
	}
}

// acquireIn reports an `.active.Store(1)`, or a call to an acquiring helper
// (recv nil: the entry is the helper's business), directly inside st (not in
// a nested function literal).
func (s *updateLock) acquireIn(st ast.Stmt) (recv ast.Expr, ok bool) {
	ast.Inspect(st, func(n ast.Node) bool {
		if ok {
			return false
		}
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if call, isCall := n.(*ast.CallExpr); isCall {
			if r, val, match := activeStore(call); match && val == "1" {
				recv, ok = r, true
			} else if callee := calleeFunc(s.p.Info, call); callee != nil && s.acquiring[callee] {
				ok = true
			}
		}
		return true
	})
	return recv, ok
}

// scanHeld walks statements with the entry held. It returns true when the
// list releases the entry on its fall-through path; returns encountered
// before a release are reported.
func (s *updateLock) scanHeld(stmts []ast.Stmt) bool {
	for _, st := range stmts {
		if s.unconditionalRelease(st) {
			return true
		}
		switch t := st.(type) {
		case *ast.ReturnStmt:
			s.findings = append(s.findings, Finding{
				Pos:  s.p.Fset.Position(t.Pos()),
				Pass: "updatelock",
				Message: "return while the update-set entry (" + s.entryName() +
					".active.Store(1)) is still held; release it (or hand it to a releasing helper) before returning",
			})
			return false // nothing after a return is reachable on this path
		case *ast.IfStmt:
			relBody := s.scanHeld(t.Body.List)
			relElse := false
			switch e := t.Else.(type) {
			case *ast.BlockStmt:
				relElse = s.scanHeld(e.List)
			case *ast.IfStmt:
				relElse = s.scanHeld([]ast.Stmt{e})
			}
			if relBody && relElse && t.Else != nil {
				return true
			}
		case *ast.BlockStmt:
			if s.scanHeld(t.List) {
				return true
			}
		case *ast.ForStmt:
			s.scanHeld(t.Body.List) // zero-iteration case: not a release
		case *ast.RangeStmt:
			s.scanHeld(t.Body.List)
		case *ast.SwitchStmt:
			all, hasDefault := true, false
			for _, c := range t.Body.List {
				cc, ok := c.(*ast.CaseClause)
				if !ok {
					continue
				}
				if cc.List == nil {
					hasDefault = true
				}
				if !s.scanHeld(cc.Body) {
					all = false
				}
			}
			if all && hasDefault {
				return true
			}
		case *ast.SelectStmt:
			all := len(t.Body.List) > 0
			for _, c := range t.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					if !s.scanHeld(cc.Body) {
						all = false
					}
				}
			}
			if all {
				return true
			}
		case *ast.LabeledStmt:
			if s.scanHeld([]ast.Stmt{t.Stmt}) {
				return true
			}
		}
	}
	return false
}

// unconditionalRelease reports whether st's always-evaluated parts release
// the held entry: a matching `.active.Store(0)`, a call to a transitively
// releasing function, or a defer of either.
func (s *updateLock) unconditionalRelease(st ast.Stmt) bool {
	switch t := st.(type) {
	case *ast.ExprStmt:
		return s.exprReleases(t.X)
	case *ast.AssignStmt:
		for _, r := range t.Rhs {
			if s.exprReleases(r) {
				return true
			}
		}
	case *ast.DeferStmt:
		// A deferred release covers every return after this point. A
		// deferred closure is inspected too: `defer func() { ... }()`.
		return s.exprReleases(t.Call)
	case *ast.ReturnStmt:
		for _, r := range t.Results {
			if s.exprReleases(r) {
				return true
			}
		}
	case *ast.IfStmt:
		if t.Init != nil && s.unconditionalRelease(t.Init) {
			return true
		}
		return s.exprReleases(t.Cond)
	case *ast.ForStmt:
		if t.Init != nil && s.unconditionalRelease(t.Init) {
			return true
		}
	case *ast.SwitchStmt:
		if t.Init != nil && s.unconditionalRelease(t.Init) {
			return true
		}
		if t.Tag != nil && s.exprReleases(t.Tag) {
			return true
		}
	}
	return false
}

// exprReleases reports a release anywhere in e, including inside function
// literals (which only matters under defer; elsewhere it errs toward not
// flagging).
func (s *updateLock) exprReleases(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, val, ok := activeStore(call); ok && val == "0" {
			if s.sameEntry(recv) {
				found = true
			}
			return true
		}
		if callee := calleeFunc(s.p.Info, call); callee != nil && s.releasing[callee] {
			found = true
		}
		return true
	})
	return found
}

// sameEntry reports whether recv names the acquired entry. An acquire
// whose path could not be resolved matches any release (conservative: no
// false positives from aliasing we cannot see).
func (s *updateLock) sameEntry(recv ast.Expr) bool {
	if s.recvObj == nil {
		return true
	}
	root, path := lvalPath(recv)
	if root == nil {
		return true
	}
	return path == s.recvPath && objOf(s.p.Info, root) == s.recvObj
}

func (s *updateLock) entryName() string {
	if s.recvPath != "" {
		return s.recvPath
	}
	return "u"
}
