package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestLoaderTypeError: a package that fails to type-check must come back
// as a diagnostic error, never a panic.
func TestLoaderTypeError(t *testing.T) {
	dir := filepath.Join("testdata", "loader", "typeerr")
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = loader.LoadDir(dir)
	if err == nil {
		t.Fatal("LoadDir succeeded on a package with a type error")
	}
	if !strings.Contains(err.Error(), "type-check") {
		t.Errorf("error does not identify the type-check failure: %v", err)
	}
}

// TestLoaderBuildTags: a file behind an unsatisfiable //go:build tag is
// dropped; the package type-checks on the remaining files. The excluded
// file declares a clashing symbol, so inclusion would fail loudly.
func TestLoaderBuildTags(t *testing.T) {
	dir := filepath.Join("testdata", "loader", "buildtag")
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir failed, excluded file was probably not dropped: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	if n := len(pkgs[0].Files); n != 1 {
		t.Errorf("got %d files, want 1 (excluded.go must be dropped)", n)
	}
	for _, f := range pkgs[0].Files {
		name := filepath.Base(pkgs[0].Fset.Position(f.Pos()).Filename)
		if name == "excluded.go" {
			t.Errorf("excluded.go survived constraint evaluation")
		}
	}
}

// TestLoaderExternalTestImportsImporter: an external test package that
// imports a package importing the package under test sees one type, the
// test-inclusive one, through both paths, as the go tool builds it. The
// importer is loaded first, so the cache already holds it against the
// pure package; after the check the pure view is back.
func TestLoaderExternalTestImportsImporter(t *testing.T) {
	dir := filepath.Join("testdata", "loader", "xtestdep")
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.LoadDir(filepath.Join(dir, "user")); err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadDir(filepath.Join(dir, "base"))
	if err != nil {
		t.Fatalf("LoadDir(base): %v", err)
	}
	if len(pkgs) != 2 || pkgs[1].Path != loader.Module+"/internal/lint/testdata/loader/xtestdep/base_test" {
		t.Fatalf("got %d packages, want base and base_test", len(pkgs))
	}
	pure, err := loader.Import(loader.Module + "/internal/lint/testdata/loader/xtestdep/base")
	if err != nil {
		t.Fatal(err)
	}
	if pure.Scope().Lookup("N") != nil {
		t.Error("the importable view of base kept the export_test.go helper after the external test's check")
	}
}

// TestLoaderIgnoreInCompositeLit: a lint:ignore directive buried inside a
// composite literal neither panics the directive scan nor suppresses a
// finding on an unrelated line.
func TestLoaderIgnoreInCompositeLit(t *testing.T) {
	dir := filepath.Join("testdata", "loader", "ignorelit")
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	findings := Check(pkgs[0])
	if len(findings) != 1 || findings[0].Pass != "aborterr" {
		t.Fatalf("got findings %v, want one aborterr finding (the discarded read in peek)", findings)
	}
	if !strings.Contains(findings[0].Message, "discarded") {
		t.Errorf("unexpected finding: %s", findings[0])
	}
}

// TestBuildTagEnvironment pins the tag semantics: the race tag is unset
// for the lint view, so `//go:build !race` files (the AllocsPerRun tests)
// stay in scope, while release gates and the host platform are satisfied.
func TestBuildTagEnvironment(t *testing.T) {
	if buildTagSatisfied("race") {
		t.Error("race tag must be unset in the lint view")
	}
	if !buildTagSatisfied("go1.22") {
		t.Error("release gates must be satisfied")
	}
	if buildTagSatisfied("secretplatform") {
		t.Error("unknown tags must be unset")
	}
}
