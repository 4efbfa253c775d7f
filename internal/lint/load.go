package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Loader parses and type-checks packages of a single module using only the
// standard library: module-internal imports are resolved by mapping the
// import path onto the module directory tree and type-checking from source;
// everything else is delegated to the stdlib source importer. The module
// must be dependency-free (stdlib-only), which go.mod of this repository
// guarantees.
type Loader struct {
	Root   string // directory containing go.mod
	Module string // module path from go.mod

	Fset *token.FileSet

	std types.Importer
	// pkgs caches the importable view of each package: normally the pure
	// (non-test) files, transiently the test-inclusive view while its own
	// external test package is being checked (see LoadDir).
	pkgs    map[string]*Package
	loading map[string]bool // cycle guard
}

// Package is one type-checked package ready for analysis.
type Package struct {
	Path  string // import path ("rococotm/internal/tm")
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Tests reports whether in-package _test.go files are included.
	Tests bool
}

// NewLoader builds a loader rooted at the directory containing go.mod,
// searching upward from dir.
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:    root,
		Module:  mod,
		Fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}, nil
}

// findModuleRoot walks up from dir to the nearest go.mod.
func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Import implements types.Importer: module-internal paths load from the
// module tree (without test files); all others go to the stdlib importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.Module || strings.HasPrefix(path, l.Module+"/") {
		p, err := l.loadPure(path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return l.std.Import(path)
}

// dirFor maps a module-internal import path to its directory.
func (l *Loader) dirFor(path string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
	return filepath.Join(l.Root, filepath.FromSlash(rel))
}

// PathFor maps a directory inside the module to its import path.
func (l *Loader) PathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.Root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.Module)
	}
	if rel == "." {
		return l.Module, nil
	}
	return l.Module + "/" + filepath.ToSlash(rel), nil
}

// loadPure type-checks the non-test files of a package (the view other
// packages import) and caches the result.
func (l *Loader) loadPure(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	files, _, _, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	p, err := l.check(path, dir, files, false)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// LoadDir type-checks every package rooted in dir for linting: the package
// including its in-package test files, plus the external (_test suffixed)
// test package if one exists. If including the test files fails to
// type-check (e.g. a test-only import cycle back into the package), the
// pure package is analyzed instead.
func (l *Loader) LoadDir(dir string) ([]*Package, error) {
	path, err := l.PathFor(dir)
	if err != nil {
		return nil, err
	}
	files, tests, xtests, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*Package
	switch {
	case len(files) == 0 && len(tests) == 0 && len(xtests) == 0:
		return nil, nil
	case len(files) > 0 && len(tests) > 0:
		p, err := l.check(path, dir, append(append([]*ast.File{}, files...), tests...), true)
		if err != nil {
			// Fall back to the importable view of the package.
			p, err = l.loadPure(path)
			if err != nil {
				return nil, err
			}
		}
		out = append(out, p)
	case len(files) > 0:
		p, err := l.loadPure(path)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	case len(tests) > 0:
		// Test-only package (no importable files).
		p, err := l.check(path, dir, tests, true)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	if len(xtests) > 0 {
		// The external test package compiles against the sibling package's
		// test-inclusive view — export_test.go helpers are visible to it —
		// and so does every module package it imports that imports the
		// sibling (the go tool recompiles those for the test). For the
		// duration of the check the import cache maps path to that view
		// and drops the importers of path; afterwards the pure entries
		// come back.
		saved := l.pkgs
		if len(out) > 0 && out[0].Tests {
			l.pkgs = map[string]*Package{path: out[0]}
			for q, p := range saved {
				if q != path && !imports(p.Pkg, path) {
					l.pkgs[q] = p
				}
			}
		}
		p, err := l.check(path+"_test", dir, xtests, true)
		for q, p := range l.pkgs {
			if _, ok := saved[q]; !ok && q != path && !imports(p.Pkg, path) {
				saved[q] = p
			}
		}
		l.pkgs = saved
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// imports reports whether pkg imports path, directly or transitively.
func imports(pkg *types.Package, path string) bool {
	seen := map[*types.Package]bool{}
	var walk func(*types.Package) bool
	walk = func(p *types.Package) bool {
		for _, q := range p.Imports() {
			if q.Path() == path {
				return true
			}
			if !seen[q] {
				seen[q] = true
				if walk(q) {
					return true
				}
			}
		}
		return false
	}
	return walk(pkg)
}

// parseDir parses the .go files of dir into package files, in-package test
// files and external test-package files.
func (l *Loader) parseDir(dir string) (files, tests, xtests []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") ||
			strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f, perr := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			return nil, nil, nil, perr
		}
		if !buildConstraintsSatisfied(f) {
			continue
		}
		switch {
		case strings.HasSuffix(f.Name.Name, "_test"):
			xtests = append(xtests, f)
		case strings.HasSuffix(n, "_test.go"):
			tests = append(tests, f)
		default:
			files = append(files, f)
		}
	}
	return files, tests, xtests, nil
}

// buildConstraintsSatisfied evaluates the //go:build lines of a parsed
// file against the default build configuration: GOOS, GOARCH, the gc
// toolchain, unix on the usual systems, and any go1.x release gate are
// true; every other tag (race, integration, ignore, custom platforms) is
// false. A file excluded this way (e.g. `//go:build ignore`) is simply
// dropped from the lint view, mirroring what `go build` would compile.
// Release gates assume the running toolchain is new enough — this module
// pins a floor, not a ceiling.
func buildConstraintsSatisfied(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break // constraints must precede the package clause
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue // malformed constraint: keep the file, let the checker complain
			}
			if !expr.Eval(buildTagSatisfied) {
				return false
			}
		}
	}
	return true
}

// buildTagSatisfied is the tag environment for buildConstraintsSatisfied.
func buildTagSatisfied(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	case "unix":
		switch runtime.GOOS {
		case "linux", "darwin", "freebsd", "netbsd", "openbsd", "solaris", "aix", "dragonfly":
			return true
		}
		return false
	}
	return strings.HasPrefix(tag, "go1.")
}

// check runs the type checker over one file set.
func (l *Loader) check(path, dir string, files []*ast.File, tests bool) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var errs []error
	cfg := types.Config{
		Importer: l,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, err := cfg.Check(path, l.Fset, files, info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("lint: type-check %s: %v", path, errs[0])
	}
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %v", path, err)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
		Pkg:   pkg,
		Info:  info,
		Tests: tests,
	}, nil
}
