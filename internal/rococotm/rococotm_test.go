package rococotm

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rococotm/internal/core"
	"rococotm/internal/mem"
	"rococotm/internal/tm"
	"rococotm/internal/tm/tmtest"
	"rococotm/internal/tmds"
)

func factory() tm.TM {
	return New(mem.NewHeap(1<<16), Config{})
}

func TestReadYourWrites(t *testing.T) { tmtest.ReadYourWrites(t, factory) }
func TestAbortRollsBack(t *testing.T) { tmtest.AbortRollsBack(t, factory) }
func TestStatsSanity(t *testing.T)    { tmtest.StatsSanity(t, factory) }
func TestWriteSkew(t *testing.T)      { tmtest.WriteSkew(t, factory, 200) }

func TestCounterHammer(t *testing.T) {
	tmtest.CounterHammer(t, factory, 8, 200)
}

func TestBankInvariant(t *testing.T) {
	tmtest.BankInvariant(t, factory, 6, 32, 300)
}

func TestOpacityProbe(t *testing.T) {
	tmtest.OpacityProbe(t, factory, 6, 300)
}

func TestDisjointParallelism(t *testing.T) {
	tmtest.DisjointParallelism(t, factory, 8, 300)
}

func TestGlobalTSTracksEngine(t *testing.T) {
	m := New(mem.NewHeap(1<<12), Config{})
	defer m.Close()
	a := m.Heap().MustAlloc(8)
	for i := 0; i < 20; i++ {
		if err := tm.Run(m, 0, func(x tm.Txn) error {
			return x.Write(a+mem.Addr(i%8), mem.Word(i))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := m.GlobalTS(), uint64(m.Engine().NextSeq()); got != want {
		t.Fatalf("GlobalTS %d != engine NextSeq %d", got, want)
	}
	if m.GlobalTS() != 20 {
		t.Fatalf("GlobalTS = %d, want 20", m.GlobalTS())
	}
}

func TestReadOnlySkipsFPGA(t *testing.T) {
	m := New(mem.NewHeap(1<<12), Config{})
	defer m.Close()
	a := m.Heap().MustAlloc(1)
	for i := 0; i < 10; i++ {
		if err := tm.Run(m, 0, func(x tm.Txn) error {
			_, err := x.Read(a)
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.ReadOnly != 10 {
		t.Fatalf("read-only commits = %d, want 10", st.ReadOnly)
	}
	if got := m.Engine().Stats().Requests; got != 0 {
		t.Fatalf("read-only transactions reached the FPGA: %d requests", got)
	}
}

func TestStaleReadReordersInsteadOfAborting(t *testing.T) {
	// The headline behaviour: a transaction that read a version a later
	// commit overwrote — and never re-reads the overwritten data — commits
	// with a forward edge, where TinySTM (TOCC) must abort.
	m := New(mem.NewHeap(1<<12), Config{})
	defer m.Close()
	xAddr := m.Heap().MustAlloc(1)
	yAddr := m.Heap().MustAlloc(1)
	m.Heap().Store(xAddr, 10)

	t1, err := m.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := t1.Read(xAddr)
	if err != nil {
		t.Fatal(err)
	}
	if v != 10 {
		t.Fatalf("initial read = %d", v)
	}
	// A concurrent transaction overwrites x and commits.
	if err := tm.Run(m, 1, func(x tm.Txn) error {
		return x.Write(xAddr, 99)
	}); err != nil {
		t.Fatal(err)
	}
	// t1 writes y (disjoint) and commits: ROCoCo serializes t1 before the
	// x-writer.
	if err := t1.Write(yAddr, 7); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(t1); err != nil {
		t.Fatalf("stale-read transaction aborted: %v", err)
	}
	if m.Heap().Load(yAddr) != 7 || m.Heap().Load(xAddr) != 99 {
		t.Fatal("final state wrong")
	}
	if m.Stats().Aborts != 0 {
		t.Fatalf("aborts = %d, want 0", m.Stats().Aborts)
	}
}

func TestCycleAbortsOnCPUOrFPGA(t *testing.T) {
	// t1 reads x stale AND overwrites y that the concurrent committer also
	// wrote: WAW forces t1 after it, the stale read forces t1 before it —
	// a cycle. Either the CPU's eager path or the FPGA must abort t1.
	m := New(mem.NewHeap(1<<12), Config{})
	defer m.Close()
	xAddr := m.Heap().MustAlloc(1)
	yAddr := m.Heap().MustAlloc(1)

	t1, _ := m.Begin(0)
	if _, err := t1.Read(xAddr); err != nil {
		t.Fatal(err)
	}
	if err := tm.Run(m, 1, func(x tm.Txn) error {
		if err := x.Write(xAddr, 1); err != nil {
			return err
		}
		return x.Write(yAddr, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if err := t1.Write(yAddr, 2); err != nil {
		t.Fatal(err)
	}
	err := m.Commit(t1)
	if _, ok := tm.IsAbort(err); !ok {
		t.Fatalf("cyclic transaction committed: %v", err)
	}
	// y must retain the committed writer's value.
	if m.Heap().Load(yAddr) != 1 {
		t.Fatalf("aborted writer leaked: y = %d", m.Heap().Load(yAddr))
	}
}

func TestMissSetAbortsTornSnapshot(t *testing.T) {
	// t1 reads x; a concurrent commit overwrites x and z; t1 then reads z:
	// z is in the miss set, so the CPU must abort eagerly (fast path, no
	// FPGA round trip).
	m := New(mem.NewHeap(1<<12), Config{})
	defer m.Close()
	xAddr := m.Heap().MustAlloc(1)
	zAddr := m.Heap().MustAlloc(1)

	t1, _ := m.Begin(0)
	if _, err := t1.Read(xAddr); err != nil {
		t.Fatal(err)
	}
	if err := tm.Run(m, 1, func(x tm.Txn) error {
		if err := x.Write(xAddr, 5); err != nil {
			return err
		}
		return x.Write(zAddr, 5)
	}); err != nil {
		t.Fatal(err)
	}
	before := m.Engine().Stats().Requests
	_, err := t1.Read(zAddr)
	if _, ok := tm.IsAbort(err); !ok {
		t.Fatalf("torn snapshot read returned %v", err)
	}
	if got := m.Engine().Stats().Requests; got != before {
		t.Fatal("eager abort went through the FPGA")
	}
}

// TestReadFoldStopsAtLoadSnapshot pins the stale-read interleaving behind
// the multi-core lost updates, deterministically, on two TM threads. Read
// is load then admit, with nothing between them; the test runs thread 0's
// two halves itself and lands thread 1's conflicting commit in the gap:
// thread 0 loads a under GlobalTS g1 and accepts the value, thread 1
// commits a write to a and moves GlobalTS to g1+1, then thread 0 folds the
// commit queue. A fold to the live GlobalTS would take that commit in while
// a is not yet in the read set, advance validTS past a write the loaded
// value does not reflect, and let thread 0's own read-modify-write of a
// validate as if it had seen it. With the fold bounded at g1 the commit is
// folded at Commit, with a recorded, and the engine sees the RW edge and
// refuses the cycle.
//
// The other read/extend pairs were audited against the same shape and need
// no bound: the final extension in Commit runs after every value the
// transaction holds is in its read set, so a folded commit that wrote any
// of them trips overlap; PublishFast and
// ValidateFastReadOnly extend nothing — they certify every recorded read
// line by version equality at one serialization point, after the drain scan.
func TestReadFoldStopsAtLoadSnapshot(t *testing.T) {
	m := New(mem.NewHeap(1<<12), Config{})
	defer m.Close()
	a := m.Heap().MustAlloc(1)
	incr := func(x tm.Txn) error {
		v, err := x.Read(a)
		if err != nil {
			return err
		}
		return x.Write(a, v+1)
	}

	t0, _ := m.Begin(0)
	x := t0.(*txn)
	p := probe{a: uint64(a)}
	v, g1, err := x.load(a, &p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tm.Run(m, 1, incr); err != nil {
		t.Fatalf("conflicting commit: %v", err)
	}
	if g := m.globalTS.Load(); g != g1+1 {
		t.Fatalf("GlobalTS = %d after the conflicting commit, want g1+1 = %d", g, g1+1)
	}
	if err = x.admit(&p, g1); err == nil {
		if x.validTS > g1 {
			t.Errorf("validTS = %d passed g1 = %d with a stale value of a in hand", x.validTS, g1)
		}
		if err = x.Write(a, v+1); err == nil {
			err = m.Commit(x)
		}
	}
	if _, ok := tm.IsAbort(err); !ok {
		t.Fatalf("read-modify-write over a stale value: err = %v, want an abort (a = %d)", err, m.Heap().Load(a))
	}
	if err := tm.Run(m, 0, incr); err != nil {
		t.Fatal(err)
	}
	if got := m.Heap().Load(a); got != 2 {
		t.Fatalf("a = %d after two increments, want 2", got)
	}
}

func TestSnapshotExtensionOnDisjointCommits(t *testing.T) {
	// Commits that do not touch t1's read set must extend the snapshot,
	// letting t1 read their values and still commit cleanly.
	m := New(mem.NewHeap(1<<12), Config{})
	defer m.Close()
	a := m.Heap().MustAlloc(1)
	b := m.Heap().MustAlloc(1)

	t1, _ := m.Begin(0)
	if _, err := t1.Read(a); err != nil {
		t.Fatal(err)
	}
	if err := tm.Run(m, 1, func(x tm.Txn) error { return x.Write(b, 42) }); err != nil {
		t.Fatal(err)
	}
	v, err := t1.Read(b)
	if err != nil {
		t.Fatalf("snapshot extension failed: %v", err)
	}
	if v != 42 {
		t.Fatalf("extended read = %d, want 42", v)
	}
	if err := t1.Write(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(t1); err != nil {
		t.Fatal(err)
	}
}

func TestCommitQueueRingOverflow(t *testing.T) {
	// A transaction whose snapshot lags more than the commit queue's slots
	// must abort with the window reason when it next reads.
	m := newTM(mem.NewHeap(1<<14), Config{}, 8)
	defer m.Close()
	a := m.Heap().MustAlloc(64)

	t1, _ := m.Begin(0)
	// Push 12 commits through (ring laps).
	for i := 0; i < 12; i++ {
		if err := tm.Run(m, 1, func(x tm.Txn) error {
			return x.Write(a+mem.Addr(i), 1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := t1.Read(a + 63)
	reason, ok := tm.IsAbort(err)
	if !ok || reason != tm.ReasonWindow {
		t.Fatalf("lapped snapshot read returned %v", err)
	}
}

func TestWindowOverflowViaEngine(t *testing.T) {
	// A transaction whose ValidTS lags beyond the FPGA window's base gets a
	// window abort from the engine: enough commits slide the default
	// 64-entry window past it.
	m := New(mem.NewHeap(1<<14), Config{})
	defer m.Close()
	const commits = core.DefaultW + 2
	a := m.Heap().MustAlloc(2 * commits)

	t1, _ := m.Begin(0)
	// t1 reads a location that concurrent commits overwrite, so its
	// snapshot cannot be extended past them; enough commits then slide
	// the window beyond t1's ValidTS.
	if _, err := t1.Read(a + 2*commits - 1); err != nil {
		t.Fatal(err)
	}
	if err := t1.Write(a+2*commits-2, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < commits; i++ {
		if err := tm.Run(m, 1, func(x tm.Txn) error {
			if err := x.Write(a+2*commits-1, mem.Word(i)); err != nil {
				return err
			}
			return x.Write(a+mem.Addr(i), 1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	err := m.Commit(t1)
	reason, ok := tm.IsAbort(err)
	if !ok || reason != tm.ReasonWindow {
		t.Fatalf("expected window abort, got %v", err)
	}
	if m.Stats().Reasons[tm.ReasonWindow] != 1 {
		t.Fatalf("window abort not counted: %v", m.Stats().Reasons)
	}
	if n := m.Engine().Stats().WindowAborts; n != 1 {
		t.Fatalf("engine counted %d window aborts, want 1", n)
	}
}

func TestValidationCounters(t *testing.T) {
	m := New(mem.NewHeap(1<<12), Config{MeasurePhases: true})
	defer m.Close()
	a := m.Heap().MustAlloc(1)
	for i := 0; i < 10; i++ {
		if err := tm.Run(m, 0, func(x tm.Txn) error {
			v, err := x.Read(a)
			if err != nil {
				return err
			}
			return x.Write(a, v+1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.ValidationNanos == 0 {
		t.Fatal("wall validation time not recorded")
	}
	if st.ModelValidationNanos == 0 {
		t.Fatal("modeled validation time not recorded")
	}
	// Modeled: ≥ 600 ns round trip per validated transaction.
	if st.ModelValidationNanos < 10*600 {
		t.Fatalf("modeled validation %d ns too small", st.ModelValidationNanos)
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	// Writers increment disjoint-ish slots while readers sum; checks the
	// whole pipeline under real interleaving. Sum of all slots must equal
	// total increments at the end.
	m := New(mem.NewHeap(1<<16), Config{})
	defer m.Close()
	const slots = 16
	const perThread = 150
	base := m.Heap().MustAlloc(slots)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for th := 0; th < 6; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				slot := mem.Addr((th*7 + i) % slots)
				err := tm.Run(m, th, func(x tm.Txn) error {
					v, err := x.Read(base + slot)
					if err != nil {
						return err
					}
					return x.Write(base+slot, v+1)
				})
				if err != nil {
					errs <- err
					return
				}
			}
		}(th)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var sum mem.Word
	for i := 0; i < slots; i++ {
		sum += m.Heap().Load(base + mem.Addr(i))
	}
	if sum != 6*perThread {
		t.Fatalf("sum = %d, want %d", sum, 6*perThread)
	}
	// Engine and CPU must agree on the commit count.
	if uint64(m.Engine().NextSeq()) != m.GlobalTS() {
		t.Fatal("engine/CPU commit counts diverged")
	}
}

func TestThreadRangeChecked(t *testing.T) {
	m := New(mem.NewHeap(1<<10), Config{MaxThreads: 2})
	defer m.Close()
	if _, err := m.Begin(2); err == nil {
		t.Fatal("out-of-range thread accepted")
	}
}

func TestIrrevocableEscalation(t *testing.T) {
	// With EscalateAfter=2, a thread that keeps losing the same cycle race
	// escalates and must then commit (the gate freezes other committers).
	m := New(mem.NewHeap(1<<14), Config{})
	defer m.Close()
	xAddr := m.Heap().MustAlloc(1)
	yAddr := m.Heap().MustAlloc(1)

	attempts := 0
	done := make(chan error, 1)
	err := tm.RunBackoff(m, 0, tm.BackoffPolicy{EscalateAfter: 2}, func(x tm.Txn) error {
		attempts++
		if _, err := x.Read(xAddr); err != nil {
			return err
		}
		if attempts <= 2 {
			// Warm-up: a committer on thread 1 closes a cycle with this
			// attempt, which must lose validation.
			if err := tm.Run(m, 1, func(x tm.Txn) error {
				if err := x.Write(xAddr, 1); err != nil {
					return err
				}
				return x.Write(yAddr, 1)
			}); err != nil {
				t.Fatal(err)
			}
			return x.Write(yAddr, 2)
		}
		// Third attempt is irrevocable: a concurrent committer on thread 1
		// must block until it finishes, and it must commit.
		if !x.(*txn).irrevocable {
			t.Fatal("third attempt not irrevocable after two cycle aborts")
		}
		go func() {
			done <- tm.Run(m, 1, func(x tm.Txn) error { return x.Write(xAddr, 9) })
		}()
		return x.Write(yAddr, 7)
	})
	if err != nil {
		t.Fatalf("irrevocable transaction failed: %v", err)
	}
	if attempts != 3 {
		t.Fatalf("%d attempts, want two cycle aborts and an irrevocable commit", attempts)
	}
	if got := m.Stats().Reasons[tm.ReasonCycle]; got != 2 {
		t.Fatalf("%d cycle aborts while warming up escalation, want 2", got)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if m.Heap().Load(yAddr) != 7 || m.Heap().Load(xAddr) != 9 {
		t.Fatalf("final state x=%d y=%d", m.Heap().Load(xAddr), m.Heap().Load(yAddr))
	}
}

func TestIrrevocableHammerTerminates(t *testing.T) {
	// Maximal-contention counter with escalation enabled: must finish and
	// conserve. (Without irrevocability this is the §5.1 livelock shape.)
	m := New(mem.NewHeap(1<<12), Config{})
	defer m.Close()
	a := m.Heap().MustAlloc(1)
	const threads, per = 6, 150
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := tm.RunBackoff(m, th, tm.BackoffPolicy{EscalateAfter: 4}, func(x tm.Txn) error {
					v, err := x.Read(a)
					if err != nil {
						return err
					}
					return x.Write(a, v+1)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(th)
	}
	wg.Wait()
	if got := m.Heap().Load(a); got != threads*per {
		t.Fatalf("counter = %d, want %d", got, threads*per)
	}
}

func TestIrrevocableAppAbortReleasesGate(t *testing.T) {
	m := New(mem.NewHeap(1<<12), Config{})
	defer m.Close()
	a := m.Heap().MustAlloc(1)
	m.Escalate(0)
	// Irrevocable attempt aborted by the application: the gate must be
	// released so others proceed.
	t1, _ := m.Begin(0)
	if !t1.(*txn).irrevocable {
		t.Fatal("escalated Begin not irrevocable")
	}
	m.Abort(t1)
	if err := tm.Run(m, 1, func(x tm.Txn) error { return x.Write(a, 3) }); err != nil {
		t.Fatalf("gate leaked after app abort: %v", err)
	}
}

func TestHistorySerializableWriters(t *testing.T) {
	// Writers (RMW transactions) are validated by the engine and must be
	// serializable. Pure readers commit on the CPU at their snapshot
	// (§5.3) and are outside the windowed guarantee — see DESIGN.md — so
	// the recorded-history check scopes to writers.
	tmtest.HistorySerializable(t, factory, tmtest.HistoryOptions{Readers: false, Seed: 4})
}

func TestHistorySerializableWithReaders(t *testing.T) {
	// Including invisible readers: the paper's design commits them at
	// their snapshot. Under RMW-only writers the snapshot order embeds
	// into the commit order, so this passes too; it would only diverge
	// under blind-write reorderings (documented in DESIGN.md).
	tmtest.HistorySerializable(t, factory, tmtest.HistoryOptions{Readers: true, Seed: 5})
}

// TestReadOnlyScansConserve is the value oracle of the read-only attempt:
// tm.RunReadOnly conservation scans of a smallbank race SendPayment writers
// on a runtime without snapshots, at GOMAXPROCS 1 and 2, so every scan runs
// as a BeginReadOnly attempt against live commits. A scan that reaches its
// end commits, so each one must see the conserved total; every scan must
// terminate, and no attempt may be left live.
func TestReadOnlyScansConserve(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprint("procs", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const (
				accounts = 16
				writers  = 2
				scanners = 2
				scans    = 1000
			)
			m := New(mem.NewHeap(1<<10), Config{MaxThreads: writers + scanners})
			defer m.Close()
			bank, err := tmds.NewSmallBank(m.Heap(), accounts, 100)
			if err != nil {
				t.Fatal(err)
			}
			var stop atomic.Bool
			var wrote atomic.Uint64
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(th) + 1))
					for !stop.Load() {
						from, to := rng.Intn(accounts), rng.Intn(accounts)
						amt := mem.Word(rng.Intn(20) + 1)
						if err := tm.Run(m, th, func(x tm.Txn) error {
							return bank.SendPayment(x, from, to, amt)
						}); err != nil {
							t.Errorf("writer %d: %v", th, err)
							return
						}
						wrote.Add(1)
					}
				}(w)
			}
			scan := func(x tm.Txn) error {
				if !x.(*txn).readOnly {
					t.Error("RunReadOnly did not begin a read-only attempt")
				}
				return bank.CheckConservation(x)
			}
			var scanning sync.WaitGroup
			for s := 0; s < scanners; s++ {
				scanning.Add(1)
				go func(th int) {
					defer scanning.Done()
					for i := 0; i < scans; i++ {
						if err := tm.RunReadOnly(m, th, scan); err != nil {
							t.Errorf("scan %d on thread %d: %v", i, th, err)
							return
						}
					}
				}(writers + s)
			}
			done := make(chan struct{})
			go func() { scanning.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(time.Minute):
				stop.Store(true)
				t.Fatal("read-only scans did not terminate within a minute")
			}
			stop.Store(true)
			wg.Wait()
			if wrote.Load() == 0 {
				t.Error("no writer committed while the scans ran")
			}
			if live, _ := m.PoolCheck(); live != 0 {
				t.Errorf("PoolCheck live = %d, want 0", live)
			}
			if st := m.Stats(); st.Starts != st.Commits+st.Aborts {
				t.Errorf("Starts %d != Commits %d + Aborts %d", st.Starts, st.Commits, st.Aborts)
			}
		})
	}
}

// TestSoak is a longer randomized stress run across all the runtime's
// moving parts (snapshot extension, miss sets, FPGA validation, commit
// ordering, irrevocability) with a conservation invariant at the end.
// Skipped under -short.
func TestSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	m := New(mem.NewHeap(1<<18), Config{})
	defer m.Close()
	const slots = 64
	const threads = 8
	const perThread = 2500
	base := m.Heap().MustAlloc(slots)

	var wg sync.WaitGroup
	errs := make(chan error, threads)
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			rng := th*2654435761 + 1
			next := func(n int) int {
				rng = rng*1103515245 + 12345
				v := (rng >> 16) % n
				if v < 0 {
					v = -v
				}
				return v
			}
			for i := 0; i < perThread; i++ {
				from := mem.Addr(next(slots))
				to := mem.Addr(next(slots))
				if err := tm.RunBackoff(m, th, tm.BackoffPolicy{EscalateAfter: 32}, func(x tm.Txn) error {
					fv, err := x.Read(base + from)
					if err != nil {
						return err
					}
					tv, err := x.Read(base + to)
					if err != nil {
						return err
					}
					if from == to {
						return nil
					}
					if err := x.Write(base+from, fv+1); err != nil {
						return err
					}
					return x.Write(base+to, tv-1)
				}); err != nil {
					errs <- err
					return
				}
			}
		}(th)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var sum int64
	for i := 0; i < slots; i++ {
		sum += int64(m.Heap().Load(base + mem.Addr(i)))
	}
	if sum != 0 {
		t.Fatalf("conservation broken: sum = %d", sum)
	}
	if m.GlobalTS() != uint64(m.Engine().NextSeq()) {
		t.Fatal("CPU/engine commit counts diverged after soak")
	}
}
