package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestGolden runs every pass over the testdata packages and compares the
// findings, line by line, against `// want` annotations in the sources.
// Each registered per-package pass must have a testdata/src/<pass>
// directory, and each such directory a registered pass.
//
// An annotation holds one or more backtick-quoted regular expressions that
// must each match a finding rendered as "[pass] message" on the annotated
// line. A trailing annotation applies to its own line; an annotation that
// is the only content of its line applies to the line below (used where
// the flagged line is itself a comment, e.g. a malformed lint:ignore
// directive). Lines without annotations must produce no findings.
func TestGolden(t *testing.T) {
	dirs, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, p := range Passes() {
		registered[p.Name] = true
	}
	for _, d := range dirs {
		if !registered[d.Name()] {
			t.Errorf("testdata/src/%s has no registered pass", d.Name())
		}
	}
	for _, pass := range Passes() {
		t.Run(pass.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", pass.Name)
			if _, err := os.Stat(dir); err != nil {
				t.Fatalf("pass %s has no golden data: %v", pass.Name, err)
			}
			loader, err := NewLoader(dir)
			if err != nil {
				t.Fatal(err)
			}
			pkgs, err := loader.LoadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(pkgs) == 0 {
				t.Fatalf("no packages loaded from %s", dir)
			}
			var got []Finding
			for _, p := range pkgs {
				got = append(got, Check(p)...)
			}
			wants := loadWants(t, dir)
			matched := map[*want]bool{}
			for _, f := range got {
				key := lineKey{filepath.Base(f.Pos.Filename), f.Pos.Line}
				text := fmt.Sprintf("[%s] %s", f.Pass, f.Message)
				ok := false
				for _, w := range wants[key] {
					if w.re.MatchString(text) {
						matched[w] = true
						ok = true
					}
				}
				if !ok {
					t.Errorf("unexpected finding at %s:%d: %s", key.file, key.line, text)
				}
			}
			for key, ws := range wants {
				for _, w := range ws {
					if !matched[w] {
						t.Errorf("%s:%d: no finding matched %q", key.file, key.line, w.re)
					}
				}
			}
		})
	}
}

type lineKey struct {
	file string
	line int
}

type want struct {
	re *regexp.Regexp
}

var wantSegRE = regexp.MustCompile("`([^`]*)`")

// loadWants extracts the `// want` annotations from every Go file in dir.
func loadWants(t *testing.T, dir string) map[lineKey][]*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[lineKey][]*want{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			target := i + 1 // 1-based line of the annotation
			if strings.TrimSpace(line[:idx]) == "" {
				target++ // full-line annotation describes the next line
			}
			segs := wantSegRE.FindAllStringSubmatch(line[idx:], -1)
			if len(segs) == 0 {
				t.Fatalf("%s:%d: want annotation without a backtick-quoted regexp", e.Name(), i+1)
			}
			key := lineKey{e.Name(), target}
			for _, seg := range segs {
				re, err := regexp.Compile(seg[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", e.Name(), i+1, seg[1], err)
				}
				wants[key] = append(wants[key], &want{re})
			}
		}
	}
	return wants
}
