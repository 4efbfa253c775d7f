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
