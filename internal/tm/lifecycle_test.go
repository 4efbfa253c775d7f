package tm

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"rococotm/internal/mem"
)

// ctlTM is a scriptable mock runtime for lifecycle tests: every method
// counts, and onCommit decides each commit's fate.
type ctlTM struct {
	heap        *mem.Heap
	begins      int
	commits     int
	aborts      int
	escalations []int
	onCommit    func() error
	cnt         Counters
}

type ctlTxn struct{ m *ctlTM }

func newCtlTM() *ctlTM { return &ctlTM{heap: mem.NewHeap(8)} }

func (m *ctlTM) Name() string    { return "ctl" }
func (m *ctlTM) Heap() *mem.Heap { return m.heap }
func (m *ctlTM) Stats() Stats    { return m.cnt.Snapshot() }
func (m *ctlTM) Close()          {}
func (m *ctlTM) Begin(int) (Txn, error) {
	m.begins++
	return &ctlTxn{m: m}, nil
}
func (m *ctlTM) Commit(Txn) error {
	if m.onCommit != nil {
		if err := m.onCommit(); err != nil {
			return err
		}
	}
	m.commits++
	return nil
}
func (m *ctlTM) Abort(Txn)           { m.aborts++ }
func (m *ctlTM) Escalate(thread int) { m.escalations = append(m.escalations, thread) }

func (x *ctlTxn) Read(a mem.Addr) (mem.Word, error)  { return x.m.heap.Load(a), nil }
func (x *ctlTxn) Write(a mem.Addr, v mem.Word) error { x.m.heap.Store(a, v); return nil }

// A panic inside the closure must roll the in-flight attempt back through
// TM.Abort before unwinding — the regression behind the slot-leak fix.
func TestRunPanicAbortsInFlightAttempt(t *testing.T) {
	m := newCtlTM()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate out of Run")
			}
		}()
		//lint:ignore tmlint/aborterr the panic under test preempts the return; Run never yields an error
		_ = Run(m, 0, func(x Txn) error {
			if err := x.Write(0, 1); err != nil {
				return err
			}
			panic("closure bug")
		})
	}()
	if m.begins != 1 || m.aborts != 1 || m.commits != 0 {
		t.Fatalf("begins/aborts/commits = %d/%d/%d, want 1/1/0",
			m.begins, m.aborts, m.commits)
	}
}

// runtime.Goexit (e.g. t.Fatal inside a closure) unwinds without a panic
// value; the attempt must still be rolled back, and Goexit must not be
// swallowed.
func TestRunGoexitAbortsInFlightAttempt(t *testing.T) {
	m := newCtlTM()
	exited := make(chan struct{})
	returned := false
	go func() {
		defer close(exited)
		//lint:ignore tmlint/aborterr Goexit under test unwinds the goroutine; Run never returns
		_ = Run(m, 0, func(x Txn) error {
			runtime.Goexit()
			return nil
		})
		returned = true
	}()
	<-exited
	if returned {
		t.Fatal("Goexit was swallowed: Run returned normally")
	}
	if m.aborts != 1 {
		t.Fatalf("aborts = %d, want 1", m.aborts)
	}
}

// RunUntil observes its deadline at the three attempt boundaries: a
// deadline already past begins nothing; a closure that returns past it is
// rolled back before validation; an attempt that lost validation past it
// is not retried (and not aborted twice). Reads and writes inside the
// closure never see it, and a commit that completes past it is a success.
func TestRunUntilAttemptBoundaries(t *testing.T) {
	m := newCtlTM()
	err := RunUntil(time.Now().Add(-time.Second), m, 0, BackoffPolicy{}, func(x Txn) error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) || m.begins != 0 {
		t.Fatalf("past deadline: err = %v begins = %d, want DeadlineExceeded and no Begin", err, m.begins)
	}

	m = newCtlTM()
	err = RunUntil(time.Now().Add(time.Millisecond), m, 0, BackoffPolicy{}, func(x Txn) error {
		time.Sleep(5 * time.Millisecond)
		return x.Write(0, 1) // past the deadline, still accepted
	})
	if !errors.Is(err, context.DeadlineExceeded) || m.commits != 0 || m.aborts != 1 {
		t.Fatalf("overrun: err = %v commits = %d aborts = %d, want DeadlineExceeded, 0, 1", err, m.commits, m.aborts)
	}

	m = newCtlTM()
	failures := 0
	m.onCommit = func() error {
		failures++
		return AbortCode(CodeWindow) // hard reason: the loop sleeps between tries
	}
	err = RunUntil(time.Now().Add(time.Millisecond), m, 0, BackoffPolicy{}, func(x Txn) error { return x.Write(0, 1) })
	if !errors.Is(err, context.DeadlineExceeded) || failures == 0 {
		t.Fatalf("retrying: err = %v after %d commit attempts, want DeadlineExceeded after at least one", err, failures)
	}

	// Post-verdict: the attempt lost validation (the runtime rolled it
	// back) after the deadline passed — no retry, and no second abort.
	m = newCtlTM()
	m.onCommit = func() error {
		time.Sleep(5 * time.Millisecond)
		return AbortCode(CodeConflict)
	}
	err = RunUntil(time.Now().Add(time.Millisecond), m, 0, BackoffPolicy{}, func(x Txn) error { return x.Write(0, 1) })
	if !errors.Is(err, context.DeadlineExceeded) || m.begins != 1 || m.aborts != 0 {
		t.Fatalf("lost validation: err = %v begins = %d aborts = %d, want DeadlineExceeded, 1, 0", err, m.begins, m.aborts)
	}

	// A commit that completes after the deadline passed wins the race.
	m = newCtlTM()
	m.onCommit = func() error {
		time.Sleep(5 * time.Millisecond)
		return nil
	}
	err = RunUntil(time.Now().Add(time.Millisecond), m, 0, BackoffPolicy{}, func(x Txn) error { return x.Write(0, 1) })
	if err != nil || m.commits != 1 {
		t.Fatalf("commit past the deadline: err = %v commits = %d, want nil, 1", err, m.commits)
	}
}

// After EscalateAfter consecutive conflict aborts the loop must request a
// prioritized pessimistic turn from an Escalator runtime.
func TestRunBackoffEscalatesStarvedThread(t *testing.T) {
	m := newCtlTM()
	fails := 0
	m.onCommit = func() error {
		if len(m.escalations) == 0 {
			fails++
			return AbortCode(CodeConflict)
		}
		return nil
	}
	pol := BackoffPolicy{EscalateAfter: 3}
	if err := RunBackoff(m, 7, pol, func(x Txn) error { return x.Write(0, 1) }); err != nil {
		t.Fatal(err)
	}
	if fails != 3 {
		t.Fatalf("failed attempts before escalation = %d, want 3", fails)
	}
	if len(m.escalations) != 1 || m.escalations[0] != 7 {
		t.Fatalf("escalations = %v, want [7]", m.escalations)
	}
}

// Only contention aborts count toward EscalateAfter: a run of engine and
// watchdog aborts — an outage, a stuck attempt — must never ask for an
// irrevocable turn, which would freeze every committer behind the outage;
// two conflict aborts then must.
func TestRunBackoffEscalatesOnContentionOnly(t *testing.T) {
	m := newCtlTM()
	script := []Code{CodeEngine, CodeWatchdog, CodeEngine, CodeWatchdog, CodeEngine, CodeConflict, CodeWatchdog, CodeConflict}
	fails := 0
	m.onCommit = func() error {
		if fails == len(script) {
			return nil
		}
		if len(m.escalations) != 0 {
			t.Fatalf("escalated after %d aborts %v, want only after both conflicts", fails, script[:fails])
		}
		fails++
		return AbortCode(script[fails-1])
	}
	pol := BackoffPolicy{EscalateAfter: 2}
	if err := RunBackoff(m, 5, pol, func(x Txn) error { return x.Write(0, 1) }); err != nil {
		t.Fatal(err)
	}
	if len(m.escalations) != 1 || m.escalations[0] != 5 {
		t.Fatalf("escalations = %v, want [5]", m.escalations)
	}
}

func TestRunBackoffNegativeEscalateAfterDisables(t *testing.T) {
	m := newCtlTM()
	left := 700
	m.onCommit = func() error {
		if left > 0 {
			left--
			return AbortCode(CodeConflict)
		}
		return nil
	}
	pol := BackoffPolicy{EscalateAfter: -1}
	if err := RunBackoff(m, 0, pol, func(x Txn) error { return x.Write(0, 1) }); err != nil {
		t.Fatal(err)
	}
	if len(m.escalations) != 0 {
		t.Fatalf("escalations = %v, want none", m.escalations)
	}
}
