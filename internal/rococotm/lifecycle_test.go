package rococotm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rococotm/internal/mem"
	"rococotm/internal/tm"
)

// The panic-leak regression: a panic inside a tm.Run closure used to
// unwind past the commit path with the transaction still live — thread
// slot never retired, descriptor never recycled, an escalated gate never
// released. The hardened loop must roll all of that back before the panic
// resumes.
func TestPanicInsideRunReleasesLifecycleState(t *testing.T) {
	m := New(mem.NewHeap(1<<12), Config{MaxThreads: 4})
	defer m.Close()
	a := m.Heap().MustAlloc(4)

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		//lint:ignore tmlint/aborterr the panic under test preempts the return; Run never yields an error
		_ = tm.Run(m, 0, func(x tm.Txn) error {
			if _, err := x.Read(a); err != nil {
				return err
			}
			if err := x.Write(a+1, 7); err != nil {
				return err
			}
			panic("closure bug mid-transaction")
		})
	}()

	if live, _ := m.PoolCheck(); live != 0 {
		t.Fatalf("live transactions after panic = %d, want 0", live)
	}
	// The thread must be fully reusable: descriptor recycled, no wedged
	// engine state.
	for i := 0; i < 5; i++ {
		if err := tm.Run(m, 0, func(x tm.Txn) error {
			return x.Write(a, mem.Word(i))
		}); err != nil {
			t.Fatalf("commit after panic: %v", err)
		}
	}
	if got := m.Heap().Load(a + 1); got != 0 {
		t.Fatalf("panicked attempt's write leaked to the heap: %d", got)
	}
}

// A panic inside an escalated (irrevocable) transaction must release the
// exclusive commit gate, or every other thread deadlocks forever.
func TestPanicInsideEscalatedTurnReleasesGate(t *testing.T) {
	m := New(mem.NewHeap(1<<12), Config{MaxThreads: 4})
	defer m.Close()
	a := m.Heap().MustAlloc(2)

	m.Escalate(0)
	func() {
		defer func() { _ = recover() }()
		//lint:ignore tmlint/aborterr the panic under test preempts the return; Run never yields an error
		_ = tm.Run(m, 0, func(x tm.Txn) error {
			if err := x.Write(a, 1); err != nil {
				return err
			}
			panic("irrevocable closure bug")
		})
	}()

	done := make(chan error, 1)
	go func() {
		done <- tm.Run(m, 1, func(x tm.Txn) error { return x.Write(a+1, 2) })
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit gate still held after panic in irrevocable transaction")
	}
}

// An irrevocable commit that dies on a hard engine error (the engine was
// closed under it) must still release the exclusive gate: every later commit
// takes it shared and would block forever.
func TestIrrevocableEngineErrorReleasesGate(t *testing.T) {
	m := New(mem.NewHeap(1<<12), Config{MaxThreads: 4})
	defer m.Close()
	a := m.Heap().MustAlloc(2)

	m.Escalate(0)
	x, err := m.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Write(a, 1); err != nil {
		t.Fatal(err)
	}
	m.Engine().Close()
	err = m.Commit(x)
	if _, isAbort := tm.IsAbort(err); err == nil || isAbort {
		t.Fatalf("commit on a closed engine returned %v, want a hard error", err)
	}

	done := make(chan error, 1)
	go func() {
		y, err := m.Begin(1)
		if err == nil {
			if err = y.Write(a+1, 2); err == nil {
				err = m.Commit(y)
			}
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("commit on a crashed engine succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit gate still held after a hard engine error in an irrevocable commit")
	}
	if m.IrrevocablePending() {
		t.Error("irrevPending still raised")
	}
	if live, _ := m.PoolCheck(); live != 0 {
		t.Errorf("PoolCheck reports %d live transactions", live)
	}
}

func TestEscalateGrantsOneIrrevocableTurn(t *testing.T) {
	m := New(mem.NewHeap(1<<12), Config{MaxThreads: 4})
	defer m.Close()

	m.Escalate(3)
	x1, err := m.Begin(3)
	if err != nil {
		t.Fatal(err)
	}
	if !x1.(*txn).irrevocable {
		t.Fatal("escalated thread's Begin is not irrevocable")
	}
	m.Abort(x1)

	x2, err := m.Begin(3)
	if err != nil {
		t.Fatal(err)
	}
	if x2.(*txn).irrevocable {
		t.Fatal("escalation was not consumed by the first Begin")
	}
	m.Abort(x2)
}

// TestEscalatedReadOnlyTurnIsIrrevocable: BeginReadOnly takes an escalation
// as Begin does — the attempt runs irrevocably, holding the exclusive gate
// until it commits, and the next one does not.
func TestEscalatedReadOnlyTurnIsIrrevocable(t *testing.T) {
	m := New(mem.NewHeap(1<<12), Config{MaxThreads: 4})
	defer m.Close()
	a := m.Heap().MustAlloc(1)

	m.Escalate(3)
	x1, err := m.BeginReadOnly(3)
	if err != nil {
		t.Fatal(err)
	}
	if x := x1.(*txn); !x.irrevocable || !x.readOnly {
		t.Fatalf("escalated BeginReadOnly: irrevocable %v, read-only %v; want both", x.irrevocable, x.readOnly)
	}
	if m.gate.TryRLock() {
		m.gate.RUnlock()
		t.Fatal("the irrevocable read-only attempt does not hold the exclusive gate")
	}
	if _, err := x1.Read(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(x1); err != nil {
		t.Fatal(err)
	}
	if !m.gate.TryLock() {
		t.Fatal("the gate was not released by the irrevocable read-only commit")
	}
	m.gate.Unlock()

	x2, err := m.BeginReadOnly(3)
	if err != nil {
		t.Fatal(err)
	}
	if x2.(*txn).irrevocable {
		t.Fatal("escalation was not consumed by the first BeginReadOnly")
	}
	m.Abort(x2)
	if live, _ := m.PoolCheck(); live != 0 {
		t.Errorf("PoolCheck live = %d, want 0", live)
	}
}

// The watchdog must flag a transaction stuck past WatchdogAge and kill it
// at its next safe point, without touching healthy successors.
func TestWatchdogKillsStuckTransaction(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	m := New(mem.NewHeap(1<<12), Config{
		MaxThreads:  4,
		WatchdogAge: 3 * time.Millisecond,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logged = append(logged, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	defer m.Close()
	a := m.Heap().MustAlloc(2)

	x, err := m.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Read(a); err != nil {
		t.Fatal(err)
	}
	awaitWatchdogFire(t, m)

	_, err = x.Read(a + 1)
	reason, ok := tm.IsAbort(err)
	if !ok || reason != tm.ReasonWatchdog {
		t.Fatalf("stuck read returned (%v); want a %s abort", err, tm.ReasonWatchdog)
	}

	st := m.Stats()
	if st.WatchdogFires == 0 || st.WatchdogKills != 1 {
		t.Fatalf("watchdog fires/kills = %d/%d, want >=1/1", st.WatchdogFires, st.WatchdogKills)
	}
	if st.Reasons[tm.ReasonWatchdog] != 1 {
		t.Fatalf("watchdog abort reason count = %d", st.Reasons[tm.ReasonWatchdog])
	}
	mu.Lock()
	n := len(logged)
	mu.Unlock()
	if n == 0 {
		t.Fatal("watchdog fired without logging")
	}

	// The kill is scoped to the stuck attempt: the thread's next
	// transaction commits normally.
	if err := tm.Run(m, 0, func(x tm.Txn) error { return x.Write(a, 1) }); err != nil {
		t.Fatal(err)
	}
	if live, _ := m.PoolCheck(); live != 0 {
		t.Fatalf("live = %d after kill and commit", live)
	}
}

// awaitWatchdogFire blocks until m's watchdog has doomed a stuck attempt.
// The age runs from the watchdog's first sight of the attempt, so a fixed
// sleep is too short whenever the host stalls the process.
func awaitWatchdogFire(t *testing.T, m tm.TM) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); m.Stats().WatchdogFires == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the watchdog never fired on a stuck attempt")
		}
	}
}

// Watchdog end-to-end through the retry loop: the first attempt stalls
// past the age and is killed; the retry is prompt and commits.
func TestWatchdogKillRetriesAndCommits(t *testing.T) {
	m := New(mem.NewHeap(1<<12), Config{
		MaxThreads:  4,
		WatchdogAge: 2 * time.Millisecond,
		Logf:        func(string, ...any) {},
	})
	defer m.Close()
	a := m.Heap().MustAlloc(1)

	attempt := 0
	err := tm.Run(m, 0, func(x tm.Txn) error {
		attempt++ //lint:ignore tmlint/retrypure counting attempts across retries is the point of this test
		if attempt == 1 {
			awaitWatchdogFire(t, m) // simulate a wedged closure
		}
		if _, err := x.Read(a); err != nil {
			return err
		}
		return x.Write(a, mem.Word(attempt))
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempt < 2 {
		t.Fatalf("attempts = %d; the stuck first attempt should have been killed", attempt)
	}
	st := m.Stats()
	if st.WatchdogKills == 0 {
		t.Fatal("no watchdog kill recorded")
	}
	if st.Commits == 0 {
		t.Fatal("retry after the kill never committed")
	}
}

func TestWatchdogLeavesHealthyTransactionsAlone(t *testing.T) {
	m := New(mem.NewHeap(1<<12), Config{
		MaxThreads:  4,
		WatchdogAge: time.Second,
	})
	defer m.Close()
	a := m.Heap().MustAlloc(8)
	var wg sync.WaitGroup
	for th := 0; th < 4; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				//lint:ignore tmlint/aborterr load generator: the watchdog counters are asserted after the join
				_ = tm.Run(m, th, func(x tm.Txn) error {
					v, err := x.Read(a + mem.Addr(th))
					if err != nil {
						return err
					}
					return x.Write(a+mem.Addr(th), v+1)
				})
			}
		}(th)
	}
	wg.Wait()
	st := m.Stats()
	if st.WatchdogFires != 0 || st.WatchdogKills != 0 {
		t.Fatalf("watchdog fired on healthy load: fires=%d kills=%d",
			st.WatchdogFires, st.WatchdogKills)
	}
}

// An attempt that ends early against the real runtime — an application
// error after a read or a write, a deadline that passes before validation —
// leaves the lifecycle clean (no live transaction, thread reusable).
func TestRunUntilLeavesRuntimeClean(t *testing.T) {
	m := New(mem.NewHeap(1<<12), Config{MaxThreads: 4})
	defer m.Close()
	a := m.Heap().MustAlloc(2)
	errApp := errors.New("application error")
	never := time.Now().Add(time.Hour)

	boundaries := []struct {
		name string
		want error
		run  func() error
	}{
		{"read", errApp, func() error {
			return tm.RunUntil(never, m, 0, tm.DefaultBackoff, func(x tm.Txn) error {
				if _, err := x.Read(a); err != nil {
					return err
				}
				return errApp
			})
		}},
		{"write", errApp, func() error {
			return tm.RunUntil(never, m, 0, tm.DefaultBackoff, func(x tm.Txn) error {
				if err := x.Write(a, 9); err != nil {
					return err
				}
				return errApp
			})
		}},
		{"pre-validate", context.DeadlineExceeded, func() error {
			return tm.RunUntil(time.Now().Add(time.Millisecond), m, 0, tm.DefaultBackoff, func(x tm.Txn) error {
				if err := x.Write(a, 9); err != nil {
					return err
				}
				time.Sleep(5 * time.Millisecond)
				return nil
			})
		}},
	}
	for _, b := range boundaries {
		if err := b.run(); !errors.Is(err, b.want) {
			t.Fatalf("%s boundary: err = %v, want %v", b.name, err, b.want)
		}
		if live, _ := m.PoolCheck(); live != 0 {
			t.Fatalf("%s boundary: live = %d after the rollback", b.name, live)
		}
	}
	if got := m.Heap().Load(a); got != 0 {
		t.Fatalf("rolled-back attempt's write reached the heap: %d", got)
	}
	if st := m.Stats(); st.Commits != 0 {
		t.Fatalf("commits = %d; every attempt was rolled back", st.Commits)
	}
	// The thread is fully reusable afterwards.
	if err := tm.Run(m, 0, func(x tm.Txn) error { return x.Write(a, 1) }); err != nil {
		t.Fatal(err)
	}
}

func TestPoolCheckAccountsRecycledDescriptors(t *testing.T) {
	m := New(mem.NewHeap(1<<12), Config{MaxThreads: 8})
	defer m.Close()
	a := m.Heap().MustAlloc(8)
	var wg sync.WaitGroup
	for th := 0; th < 8; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				//lint:ignore tmlint/aborterr load generator: the pool accounting is asserted after the join
				_ = tm.Run(m, th, func(x tm.Txn) error {
					return x.Write(a+mem.Addr(th), mem.Word(i))
				})
			}
		}(th)
	}
	wg.Wait()
	live, parked := m.PoolCheck()
	if live != 0 {
		t.Fatalf("live = %d after all workers joined", live)
	}
	if parked == 0 || parked > 8 {
		t.Fatalf("parked = %d, want 1..8", parked)
	}
}
