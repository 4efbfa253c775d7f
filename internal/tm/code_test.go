package tm

import (
	"errors"
	"fmt"
	"testing"
)

// TestCodeReasonRoundTrip pins the Code → Reason mapping: every code has its
// own reason string, and a code out of range reads as an explicit abort.
func TestCodeReasonRoundTrip(t *testing.T) {
	seen := map[string]Code{}
	for c := Code(0); c < numCodes; c++ {
		r := c.Reason()
		if prev, dup := seen[r]; dup || r == "" {
			t.Errorf("Code(%d).Reason() = %q, already the reason of Code(%d)", c, r, prev)
		}
		seen[r] = c
	}
	if numCodes.Reason() != ReasonExplicit {
		t.Errorf("out-of-range codes must read as %q", ReasonExplicit)
	}
}

// TestAbortCodeSingleton verifies AbortCode returns preallocated errors
// carrying both forms.
func TestAbortCodeSingleton(t *testing.T) {
	for c := Code(0); c < numCodes; c++ {
		err := AbortCode(c)
		if err != AbortCode(c) {
			t.Fatalf("AbortCode(%d) not a singleton", c)
		}
		reason, ok := IsAbort(err)
		if !ok || reason != c.Reason() {
			t.Fatalf("IsAbort(AbortCode(%d)) = %q,%v", c, reason, ok)
		}
		code, ok := CodeOf(err)
		if !ok || code != c {
			t.Fatalf("CodeOf(AbortCode(%d)) = %d,%v", c, code, ok)
		}
		if want := "tm: aborted (" + c.Reason() + ")"; err.Error() != want {
			t.Fatalf("message drift: %q vs %q", err.Error(), want)
		}
	}
	// Wrapped aborts still resolve.
	wrapped := fmt.Errorf("outer: %w", AbortCode(CodeCapacity))
	if c, ok := CodeOf(wrapped); !ok || c != CodeCapacity {
		t.Fatalf("CodeOf(wrapped) = %d,%v", c, ok)
	}
	if c, ok := CodeOf(errors.New("not an abort")); ok {
		t.Fatalf("CodeOf(non-abort) = %d,true", c)
	}
}

// TestCodeStructural pins the routing classification: structural codes
// demote to the slow path, transient ones retry fast.
func TestCodeStructural(t *testing.T) {
	structural := map[Code]bool{
		CodeCapacity: true, CodeFallback: true, CodeWindow: true,
		CodeEngine: true, CodeWatchdog: true,
	}
	for c := Code(0); c < numCodes; c++ {
		if got := c.Structural(); got != structural[c] {
			t.Errorf("Code(%d).Structural() = %v, want %v", c, got, structural[c])
		}
	}
}

// TestCountersPathIdentity drives the Counters through a simulated routing
// history and asserts the accounting identity is conserved: every attempt
// starts once and ends as exactly one commit or abort; fast outcomes are a
// subset tagged on top; fallbacks never exceed fast aborts.
func TestCountersPathIdentity(t *testing.T) {
	var c Counters
	type event struct {
		fast     bool
		commit   bool
		fallback bool // this fast abort demoted the next attempt
	}
	history := []event{
		{fast: true, commit: true},
		{fast: true, commit: false},
		{fast: true, commit: false, fallback: true},
		{fast: false, commit: true},
		{fast: false, commit: false},
		{fast: false, commit: true},
		{fast: true, commit: true},
		{fast: true, commit: false, fallback: true},
		{fast: false, commit: true},
	}
	for _, ev := range history {
		c.OnStart()
		if ev.commit {
			c.OnCommit(false)
			if ev.fast {
				c.OnFastCommit()
			}
			continue
		}
		c.OnAbort(CodeConflict)
		if ev.fast {
			c.OnFastAbort()
		}
		if ev.fallback {
			c.OnSlowFallback()
		}
	}
	c.OnProbation()
	s := c.Snapshot()
	if s.Starts != s.Commits+s.Aborts {
		t.Fatalf("attempt conservation: starts=%d commits=%d aborts=%d", s.Starts, s.Commits, s.Aborts)
	}
	fastAttempts := s.FastCommits + s.FastAborts
	slowAttempts := s.Starts - fastAttempts
	if fastAttempts != 5 || slowAttempts != 4 {
		t.Fatalf("path split: fast=%d slow=%d", fastAttempts, slowAttempts)
	}
	if s.FastCommits > s.Commits || s.FastAborts > s.Aborts {
		t.Fatalf("fast outcomes exceed totals: %+v", s)
	}
	if s.SlowFallbacks > s.FastAborts {
		t.Fatalf("fallbacks (%d) exceed fast aborts (%d)", s.SlowFallbacks, s.FastAborts)
	}
	if s.SlowFallbacks != 2 || s.Probations != 1 {
		t.Fatalf("routing counters: fallbacks=%d probations=%d", s.SlowFallbacks, s.Probations)
	}
}

// siteRecorder is a minimal SiteRunner capturing the sites Begin sees.
type siteRecorder struct {
	TM
	sites []uint64
}

func (s *siteRecorder) BeginSite(thread int, site uint64) (Txn, error) {
	s.sites = append(s.sites, site)
	return s.TM.Begin(thread)
}

// TestRunSitePlumbing verifies RunSite routes through BeginSite with the
// explicit ID, that plain Run derives a caller-PC site per call site, that
// every RunReadOnly fallback shares one site of its own, and that deriving
// a site allocates nothing.
func TestRunSitePlumbing(t *testing.T) {
	base := &flakyTM{heap: nil}
	rec := &siteRecorder{TM: base}
	nop := func(Txn) error { return nil }
	if err := RunSite(rec, 0, 42, nop); err != nil {
		t.Fatal(err)
	}
	if len(rec.sites) != 1 || rec.sites[0] != 42 {
		t.Fatalf("RunSite sites = %v", rec.sites)
	}
	rec.sites = nil
	for i := 0; i < 2; i++ {
		if err := Run(rec, 0, nop); err != nil {
			t.Fatal(err)
		}
	}
	if len(rec.sites) != 2 || rec.sites[0] == 0 || rec.sites[0] != rec.sites[1] {
		t.Fatalf("Run caller-PC sites = %v (want two equal nonzero)", rec.sites)
	}
	loopSite := rec.sites[0]

	// Two call sites on two lines of one function: two sites.
	rec.sites = nil
	if err := Run(rec, 0, nop); err != nil {
		t.Fatal(err)
	}
	if err := Run(rec, 0, nop); err != nil {
		t.Fatal(err)
	}
	if len(rec.sites) != 2 || rec.sites[0] == 0 || rec.sites[1] == 0 ||
		rec.sites[0] == rec.sites[1] || rec.sites[0] == loopSite {
		t.Fatalf("Run sites from distinct lines = %v (loop site %#x), want distinct nonzero", rec.sites, loopSite)
	}
	callerSites := []uint64{loopSite, rec.sites[0], rec.sites[1]}

	// RunReadOnly from two call sites: one shared site, roSite, distinct
	// from every caller-PC site.
	rec.sites = nil
	if err := RunReadOnly(rec, 0, nop); err != nil {
		t.Fatal(err)
	}
	if err := RunReadOnly(rec, 0, nop); err != nil {
		t.Fatal(err)
	}
	if len(rec.sites) != 2 || rec.sites[0] != roSite || rec.sites[1] != roSite || roSite == 0 {
		t.Fatalf("RunReadOnly sites = %v, want two × roSite %#x", rec.sites, roSite)
	}
	for _, s := range callerSites {
		if s == roSite {
			t.Fatalf("RunReadOnly site %#x collides with a Run site", roSite)
		}
	}

	// Deriving the caller-PC site allocates nothing: the stub's Begin and
	// the recorder (capacity reserved) allocate nothing either.
	rec.sites = make([]uint64, 0, 256)
	if avg := testing.AllocsPerRun(100, func() {
		if err := Run(rec, 0, nop); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Run over a SiteRunner allocates %.1f objects per call, want 0", avg)
	}

	// A runtime without SiteRunner ignores the site and still works.
	if err := RunSite(base, 0, 7, nop); err != nil {
		t.Fatal(err)
	}
}
