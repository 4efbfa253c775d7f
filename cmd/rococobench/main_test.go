package main

import (
	"strings"
	"testing"
)

// TestUnknownExperiment: a bad -exp prints the full experiment table
// (names plus one-line descriptions) and exits non-zero.
func TestUnknownExperiment(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-exp", "nope"}, &out, &errOut)
	if code == 0 {
		t.Fatal("unknown experiment exited zero")
	}
	msg := errOut.String()
	if !strings.Contains(msg, `unknown experiment "nope"`) {
		t.Errorf("missing unknown-experiment line:\n%s", msg)
	}
	for _, e := range experiments {
		if !strings.Contains(msg, e.name) {
			t.Errorf("table missing experiment %q:\n%s", e.name, msg)
		}
		if !strings.Contains(msg, e.desc) {
			t.Errorf("table missing description for %q:\n%s", e.name, msg)
		}
	}
	if out.Len() != 0 {
		t.Errorf("unknown experiment wrote to stdout: %q", out.String())
	}
}

// TestBadFlagsExitNonZero covers flag-level and value-level parse errors.
func TestBadFlagsExitNonZero(t *testing.T) {
	cases := [][]string{
		{"-exp"},               // missing value
		{"-scale", "gigantic"}, // unknown scale
		{"-threads", "four"},   // unparsable thread list
		{"-threads", "0"},      // non-positive thread count
		{"-no-such-flag"},      // unknown flag
	}
	for _, args := range cases {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("run(%v) exited zero (stderr %q)", args, errOut.String())
		}
	}
}

// TestEveryExperimentHasDesc keeps the table self-documenting: adding an
// experiment without a description breaks the unknown-exp listing.
func TestEveryExperimentHasDesc(t *testing.T) {
	for _, e := range experiments {
		if strings.TrimSpace(e.desc) == "" {
			t.Errorf("experiment %q has no description", e.name)
		}
	}
}

// TestSoakExperimentRuns drives the lifecycle soak through the real driver
// for a moment: host-side chaos on a trusting runtime, with the auditor's
// verdict deciding the exit code.
func TestSoakExperimentRuns(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-exp", "soak", "-dur", "50ms"}, &out, &errOut); code != 0 {
		t.Fatalf("soak experiment failed (code %d): %s", code, errOut.String())
	}
	if text := out.String(); !strings.Contains(text, "PASS: history certified acyclic") {
		t.Errorf("soak report missing the audit verdict:\n%s", text)
	}
}

// TestServeExperimentRuns drives the serve experiment end to end through
// the real driver with a minimal configuration — the overload smoke the
// CI serve lane relies on.
func TestServeExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("serve experiment sweep is not short")
	}
	var out, errOut strings.Builder
	code := run([]string{"-exp", "serve", "-dur", "80ms"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("serve experiment failed (code %d): %s", code, errOut.String())
	}
	text := out.String()
	for _, want := range []string{"calibrated capacity", "goodput/s", "knee", "all clean"} {
		if !strings.Contains(text, want) {
			t.Errorf("serve report missing %q:\n%s", want, text)
		}
	}
}
