// Package lint statically enforces the transactional-memory programming
// contracts documented in internal/tm — abort errors must propagate, retry
// closures must be idempotent, a Txn is dead after an observed abort — and
// two contracts of the lock-free hot path. It is built exclusively on the
// standard library (go/ast, go/parser, go/types, go/importer) so the module
// stays dependency-free.
//
// A pass is kept while it catches a bug no test catches: a true positive
// in this module's history, or an injected mutant that only the pass
// flags. Three passes enforce the tm programming model:
//
//   - aborterr: an error produced by Txn.Read, Txn.Write, TM.Commit or
//     tm.Run is discarded, never inspected, or caught by a branch that
//     swallows it without propagating, terminating or inspecting the
//     abort reason (tm.IsAbort).
//   - retrypure: a closure passed to tm.Run performs a non-idempotent
//     update (append, ++/+=, map insert) on a variable captured from the
//     enclosing scope without resetting it at the top of the closure;
//     OCC re-executes the closure on abort, double-applying the update.
//   - deadtxn: a Txn method is invoked on a transaction after an abort
//     was already observed on that same transaction; after the first
//     AbortError the transaction is dead.
//
// Two guard the lock-free hot path (spinpark.go, hotalloc.go):
//
//   - spinpark: a spin-wait loop on shared atomic state must yield
//     (runtime.Gosched, sleep, park, or a lock-free CAS retry) — pure
//     spinning starves the scheduler the watchdog only catches at
//     runtime.
//   - hotalloc: functions annotated `//tm:hotpath` (and everything they
//     statically call inside the module) must not heap-allocate; the gate
//     parses `go build -gcflags=-m` escape diagnostics. It needs the go
//     toolchain, so it runs as its own mode (HotAlloc), not in Check.
//
// The other contracts of the hot path and the tm API are guarded by tests
// that fail when the bug is injected, not by passes: the update-set release
// (TestCommitPathsDisarm), the seqlock bracket of the signature rings
// (TestSignatureRingsSeqlock), atomic heap words (the -race lane), a Txn
// that stays on its goroutine (the -race lane), and RunUntil closures that
// end cleanly at their deadline (TestServeRetryBudgetExhausted,
// TestRunUntilLeavesRuntimeClean).
//
// A finding may be suppressed by placing
//
//	//lint:ignore tmlint/<pass> reason
//
// on the flagged line or the line directly above it. The reason is
// mandatory; a directive without one is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Finding is one contract violation.
type Finding struct {
	Pos     token.Position
	Pass    string
	Message string
}

// String renders the driver's file:line: [pass] message format.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pass, f.Message)
}

// A Pass is one analyzer. A Pass with a nil Run does not operate on a
// single type-checked package (hotalloc needs the whole module plus the
// compiler's escape diagnostics); it is listed in Registry but skipped by
// Check.
type Pass struct {
	Name string
	Doc  string
	Run  func(p *Package) []Finding
}

// registry is the single source of truth for the pass set: Passes, Check,
// Registry, and the -list flag of cmd/tmlint all derive from it, so the
// documented pass list cannot drift from the analyzers actually run.
var registry = []*Pass{
	{
		Name: "aborterr",
		Doc:  "abort errors from Txn.Read/Txn.Write/TM.Commit/tm.Run must propagate",
		Run:  runAbortErr,
	},
	{
		Name: "retrypure",
		Doc:  "tm.Run closures re-execute on retry; captured-state updates must be idempotent",
		Run:  runRetryPure,
	},
	{
		Name: "deadtxn",
		Doc:  "no Txn use after an observed abort on that transaction",
		Run:  runDeadTxn,
	},
	{
		Name: "spinpark",
		Doc:  "spin-wait loops on shared atomic state must yield (Gosched/park) or make lock-free progress",
		Run:  runSpinPark,
	},
	{
		Name: "hotalloc",
		Doc:  "//tm:hotpath functions (and their static callees) must not heap-allocate (go build -gcflags=-m gate)",
		Run:  nil, // whole-module mode: see HotAlloc
	},
}

// Passes returns every per-package analyzer, in reporting order.
func Passes() []*Pass {
	out := make([]*Pass, 0, len(registry))
	for _, p := range registry {
		if p.Run != nil {
			out = append(out, p)
		}
	}
	return out
}

// Registry returns every analyzer including whole-module modes like
// hotalloc — the set cmd/tmlint -list describes.
func Registry() []*Pass {
	return append([]*Pass(nil), registry...)
}

// Check runs every pass over p and returns the surviving findings plus any
// malformed suppression directives, sorted by position.
func Check(p *Package) []Finding {
	kept, _ := CheckCount(p)
	return kept
}

// CheckCount is Check plus the number of findings dropped by lint:ignore
// directives, so drivers can report suppression coverage.
func CheckCount(p *Package) ([]Finding, int) {
	var all []Finding
	for _, pass := range Passes() {
		all = append(all, pass.Run(p)...)
	}
	kept, suppressed := applyIgnores(p, all)
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pass < b.Pass
	})
	return kept, suppressed
}

// ignoreRE matches "//lint:ignore tmlint/<pass> reason".
var ignoreRE = regexp.MustCompile(`^//\s*lint:ignore\s+tmlint/([a-z]+)\b[ \t]*(.*)$`)

// ignoreKey addresses one (file, line, pass) suppression target.
type ignoreKey struct {
	file string
	line int
	pass string
}

// collectIgnores scans file comments for lint:ignore directives. It
// returns the suppression set (a directive covers its own line — trailing
// comment — and the line below) and a finding for every malformed
// directive (missing reason). Shared by Check and the hotalloc mode.
func collectIgnores(fset *token.FileSet, files []*ast.File) (map[ignoreKey]bool, []Finding) {
	suppressed := map[ignoreKey]bool{}
	var bad []Finding
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				if strings.TrimSpace(m[2]) == "" {
					bad = append(bad, Finding{
						Pos:  pos,
						Pass: "ignore",
						Message: fmt.Sprintf(
							"lint:ignore tmlint/%s directive is missing a reason", m[1]),
					})
					continue
				}
				suppressed[ignoreKey{pos.Filename, pos.Line, m[1]}] = true
				suppressed[ignoreKey{pos.Filename, pos.Line + 1, m[1]}] = true
			}
		}
	}
	return suppressed, bad
}

// applyIgnores drops findings suppressed by lint:ignore directives,
// reports directives that are malformed (missing reason), and counts the
// findings dropped.
func applyIgnores(p *Package, findings []Finding) ([]Finding, int) {
	suppressed, out := collectIgnores(p.Fset, p.Files)
	dropped := 0
	for _, f := range findings {
		if suppressed[ignoreKey{f.Pos.Filename, f.Pos.Line, f.Pass}] {
			dropped++
			continue
		}
		out = append(out, f)
	}
	return out, dropped
}
