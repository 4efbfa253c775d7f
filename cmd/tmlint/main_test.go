package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"rococotm/internal/lint"
)

// TestHumanOutput: the default format is file:line: [pass] message and a
// finding makes the driver exit 1.
func TestHumanOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"testdata/bad"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "testdata/bad/bad.go:14: [aborterr]") {
		t.Errorf("human output missing the expected finding:\n%s", out)
	}
	if strings.Contains(out, `"pass"`) {
		t.Errorf("human output contains JSON:\n%s", out)
	}
}

// TestJSONOutput: -json emits one record per line with file/line/pass/
// message fields.
func TestJSONOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "testdata/bad"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d records, want 1:\n%s", len(lines), stdout.String())
	}
	var rec jsonFinding
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("record is not valid JSON: %v\n%s", err, lines[0])
	}
	if rec.File != "testdata/bad/bad.go" || rec.Line != 14 || rec.Pass != "aborterr" || rec.Message == "" {
		t.Errorf("unexpected record: %+v", rec)
	}
}

// TestListCoversRegistry: -list must describe every pass in the registry,
// including whole-module modes like hotalloc, each with a doc string.
func TestListCoversRegistry(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	out := stdout.String()
	reg := lint.Registry()
	if len(reg) <= len(lint.Passes()) {
		t.Fatalf("registry has %d passes, %d per-package: the whole-module hotalloc mode is missing",
			len(reg), len(lint.Passes()))
	}
	for _, p := range reg {
		if !strings.Contains(out, p.Name) {
			t.Errorf("-list omits pass %q", p.Name)
		}
		if p.Doc == "" {
			t.Errorf("pass %q has no doc string", p.Name)
		}
		if !strings.Contains(out, p.Doc) {
			t.Errorf("-list omits the description of %q", p.Name)
		}
	}
}

// TestSummaryLine: -summary reports pass, finding and suppression counts
// on stderr.
func TestSummaryLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-summary", "testdata/bad"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	want := fmt.Sprintf("tmlint: %d passes, 1 findings, 0 suppressed", len(lint.Passes()))
	if !strings.Contains(stderr.String(), want) {
		t.Errorf("summary line %q missing from stderr:\n%s", want, stderr.String())
	}
}
