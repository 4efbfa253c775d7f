package tm

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"rococotm/internal/mem"
)

func TestAbortErrorRoundTrip(t *testing.T) {
	err := AbortCode(CodeCycle)
	reason, ok := IsAbort(err)
	if !ok || reason != ReasonCycle {
		t.Fatalf("IsAbort = (%q, %v)", reason, ok)
	}
	wrapped := fmt.Errorf("outer: %w", err)
	reason, ok = IsAbort(wrapped)
	if !ok || reason != ReasonCycle {
		t.Fatal("wrapped abort not recognized")
	}
	if _, ok := IsAbort(errors.New("plain")); ok {
		t.Fatal("plain error recognized as abort")
	}
	if _, ok := IsAbort(nil); ok {
		t.Fatal("nil recognized as abort")
	}
	if got := err.Error(); got != "tm: aborted (cycle)" {
		t.Fatalf("Error() = %q", got)
	}
}

func TestCountersSnapshot(t *testing.T) {
	var c Counters
	c.OnStart()
	c.OnStart()
	c.OnStart()
	c.OnCommit(false)
	c.OnCommit(true)
	c.OnAbort(CodeConflict)
	c.AddValidation(100 * time.Nanosecond)
	c.AddValidation(-5) // ignored
	c.AddModelValidation(640)
	s := c.Snapshot()
	if s.Starts != 3 || s.Commits != 2 || s.Aborts != 1 || s.ReadOnly != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Reasons[ReasonConflict] != 1 {
		t.Fatalf("reasons = %v", s.Reasons)
	}
	if s.ValidationNanos != 100 || s.ModelValidationNanos != 640 {
		t.Fatalf("validation nanos = %d/%d", s.ValidationNanos, s.ModelValidationNanos)
	}
	if got := s.AbortRate(); got != 1.0/3 {
		t.Fatalf("AbortRate = %g", got)
	}
	if (Stats{}).AbortRate() != 0 {
		t.Fatal("empty AbortRate not 0")
	}
}

func TestCountersAllReasons(t *testing.T) {
	var c Counters
	reasons := []Code{CodeConflict, CodeCycle, CodeWindow,
		CodeCapacity, CodeSpurious, CodeFallback, CodeEngine,
		CodeExplicit, numCodes + 3}
	for _, r := range reasons {
		c.OnAbort(r)
	}
	s := c.Snapshot()
	if s.Aborts != uint64(len(reasons)) {
		t.Fatalf("aborts = %d", s.Aborts)
	}
	if s.Reasons[ReasonEngine] != 1 {
		t.Fatalf("engine = %d", s.Reasons[ReasonEngine])
	}
	// An out-of-range code folds into explicit.
	if s.Reasons[ReasonExplicit] != 2 {
		t.Fatalf("explicit = %d", s.Reasons[ReasonExplicit])
	}
}

func TestBackoffReasonClasses(t *testing.T) {
	if !CodeWindow.Hard() || !CodeEngine.Hard() {
		t.Fatal("window/engine must back off hard")
	}
	for _, r := range []Code{CodeConflict, CodeCycle, CodeCapacity,
		CodeSpurious, CodeFallback} {
		if r.Hard() {
			t.Fatalf("%s must not back off hard", r.Reason())
		}
	}
	// Hard-reason waits sleep a bounded, non-zero duration even at huge
	// attempt counts (the shift must not overflow into zero or negative).
	rg := newRNG()
	for _, attempt := range []int{1, 5, 20, 63, 1000} {
		start := time.Now()
		wait(&rg, CodeEngine, attempt)
		if d := time.Since(start); d > time.Second {
			t.Fatalf("attempt %d slept %v, cap is %v", attempt, d, sleepCap)
		}
	}
	// Soft-reason waits never sleep; they spin at most spinCap.
	start := time.Now()
	for attempt := 1; attempt <= 40; attempt++ {
		wait(&rg, CodeConflict, attempt)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("soft backoff took %v", d)
	}

	// A retry loop starts its generator at zero; the first wait seeds it
	// whichever branch it takes. A zero xorshift state never leaves zero,
	// so an unseeded loop would draw jitter 0 forever.
	var hard, soft rng
	wait(&hard, CodeEngine, 1)   // first abort is hard: the sleep branch
	wait(&soft, CodeConflict, 2) // first wait is a soft one past attempt 1: the spin branch
	if hard == 0 || soft == 0 {
		t.Fatalf("generator after a first wait from zero: hard %#x, soft %#x; want both seeded", uint64(hard), uint64(soft))
	}
	// The two loops draw different streams: xorshift is a bijection on
	// non-zero states, so equal states after one draw would mean equal
	// seeds, and hence equal first jitters.
	if hard == soft {
		t.Fatalf("two loops drew from one stream (state %#x)", uint64(hard))
	}
}

func TestRunBackoffCustomPolicy(t *testing.T) {
	m := &flakyTM{heap: mem.NewHeap(8), failLeft: 2}
	pol := BackoffPolicy{EscalateAfter: 8}
	if err := RunBackoff(m, 0, pol, func(x Txn) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if m.begins != 3 {
		t.Fatalf("begins = %d, want 3", m.begins)
	}
}

// flakyTM aborts the first n commit attempts, then succeeds — for testing
// the Run retry loop without a real runtime.
type flakyTM struct {
	heap      *mem.Heap
	failLeft  int
	begins    int
	abortCall int
	cnt       Counters
	txn       flakyTxn // the one descriptor Begin hands out: Begin allocates nothing
}

type flakyTxn struct{ m *flakyTM }

func (m *flakyTM) Name() string    { return "flaky" }
func (m *flakyTM) Heap() *mem.Heap { return m.heap }
func (m *flakyTM) Stats() Stats    { return m.cnt.Snapshot() }
func (m *flakyTM) Close()          {}
func (m *flakyTM) Begin(int) (Txn, error) {
	m.begins++
	m.txn.m = m
	return &m.txn, nil
}
func (m *flakyTM) Commit(Txn) error {
	if m.failLeft > 0 {
		m.failLeft--
		return AbortCode(CodeConflict)
	}
	return nil
}
func (m *flakyTM) Abort(Txn) { m.abortCall++ }

func (x *flakyTxn) Read(a mem.Addr) (mem.Word, error)  { return x.m.heap.Load(a), nil }
func (x *flakyTxn) Write(a mem.Addr, v mem.Word) error { x.m.heap.Store(a, v); return nil }

func TestRunRetriesOnConflict(t *testing.T) {
	m := &flakyTM{heap: mem.NewHeap(8), failLeft: 3}
	err := Run(m, 0, func(x Txn) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if m.begins != 4 {
		t.Fatalf("begins = %d, want 4 (3 retries)", m.begins)
	}
	if m.abortCall != 0 {
		t.Fatal("Run called Abort for runtime-rolled-back attempts")
	}
}

func TestRunPropagatesAppError(t *testing.T) {
	m := &flakyTM{heap: mem.NewHeap(8)}
	sentinel := errors.New("app failure")
	err := Run(m, 0, func(x Txn) error { return sentinel })
	if err != sentinel {
		t.Fatalf("err = %v", err)
	}
	if m.begins != 1 {
		t.Fatalf("begins = %d; app errors must not be retried", m.begins)
	}
	if m.abortCall != 1 {
		t.Fatal("Run must roll back on app error")
	}
}

func TestRunRetriesAbortFromBody(t *testing.T) {
	m := &flakyTM{heap: mem.NewHeap(8)}
	calls := 0
	err := Run(m, 0, func(x Txn) error {
		//lint:ignore tmlint/retrypure counting re-executions is the point of this test
		calls++
		if calls < 3 {
			return AbortCode(CodeConflict) // e.g. a failed Read propagated
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("body ran %d times, want 3", calls)
	}
}
