package hybrid_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rococotm/internal/audit"
	"rococotm/internal/hybrid"
	"rococotm/internal/mem"
	"rococotm/internal/rococotm"
	"rococotm/internal/tm"
	"rococotm/internal/tm/tmtest"
)

func newHybrid(t *testing.T, cfg hybrid.Config) (*hybrid.TM, *mem.Heap) {
	t.Helper()
	heap := mem.NewHeap(1 << 12)
	if cfg.Slow.MaxThreads == 0 {
		cfg.Slow.MaxThreads = 8
	}
	h := hybrid.New(heap, cfg)
	t.Cleanup(h.Close)
	return h, heap
}

// TestHybridCounterSmoke: disjoint per-thread counters stay entirely on
// the fast path; the totals and the per-path accounting identity hold.
func TestHybridCounterSmoke(t *testing.T) {
	h, heap := newHybrid(t, hybrid.Config{})
	const threads, each = 4, 500
	base := heap.MustAlloc(threads * 8) // one line per thread: no contention

	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			a := base + mem.Addr(th*8)
			for i := 0; i < each; i++ {
				err := tm.Run(h, th, func(x tm.Txn) error {
					v, err := x.Read(a)
					if err != nil {
						return err
					}
					return x.Write(a, v+1)
				})
				if err != nil {
					t.Errorf("thread %d: %v", th, err)
					return
				}
			}
		}(th)
	}
	wg.Wait()

	for th := 0; th < threads; th++ {
		if v := heap.Load(base + mem.Addr(th*8)); v != each {
			t.Errorf("counter %d = %d, want %d", th, v, each)
		}
	}
	s := h.Stats()
	if s.Starts != s.Commits+s.Aborts {
		t.Errorf("accounting: starts %d != commits %d + aborts %d", s.Starts, s.Commits, s.Aborts)
	}
	if s.FastCommits == 0 {
		t.Error("no fast commits on an uncontended workload")
	}
	if s.FastCommits+s.FastAborts > s.Starts {
		t.Errorf("fast attempts %d exceed starts %d", s.FastCommits+s.FastAborts, s.Starts)
	}
	if live, _ := h.PoolCheck(); live != 0 {
		t.Errorf("descriptor leak: %d live", live)
	}
}

// TestHybridLostUpdate: every thread increments one shared word — the
// classic lost-update oracle. Any torn fast/slow interleaving loses an
// increment.
func TestHybridLostUpdate(t *testing.T) {
	h, heap := newHybrid(t, hybrid.Config{})
	const threads, each = 8, 300
	a := heap.MustAlloc(1)

	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				err := tm.RunBackoff(h, th, tm.DefaultBackoff, func(x tm.Txn) error {
					v, err := x.Read(a)
					if err != nil {
						return err
					}
					return x.Write(a, v+1)
				})
				if err != nil {
					t.Errorf("thread %d: %v", th, err)
					return
				}
			}
		}(th)
	}
	wg.Wait()
	if v := heap.Load(a); v != threads*each {
		t.Fatalf("counter = %d, want %d (lost updates)", v, threads*each)
	}
	s := h.Stats()
	if s.Starts != s.Commits+s.Aborts {
		t.Errorf("accounting: starts %d != commits %d + aborts %d", s.Starts, s.Commits, s.Aborts)
	}
}

// TestHybridWriteSkewCrossPath pins the cross-path write-skew cycle: one
// side commits through the uninstrumented fast path, the other through
// the engine-validated slow path (driven directly on the inner runtime),
// under the invariant x+y ≥ 1. A serializable implementation never lets
// both decrements commit in one round.
func TestHybridWriteSkewCrossPath(t *testing.T) {
	h, heap := newHybrid(t, hybrid.Config{})
	base := heap.MustAlloc(16)
	x, y := base, base+8
	slow := h.Slow()

	for round := 0; round < 400; round++ {
		heap.Store(x, 1)
		heap.Store(y, 1)
		var wg sync.WaitGroup
		run := func(m tm.TM, thread int, dec, other mem.Addr) {
			defer wg.Done()
			_ = tm.RunBackoff(m, thread, tm.DefaultBackoff, func(t tm.Txn) error {
				a, err := t.Read(dec)
				if err != nil {
					return err
				}
				b, err := t.Read(other)
				if err != nil {
					return err
				}
				if a+b >= 2 {
					return t.Write(dec, a-1)
				}
				return nil
			})
		}
		wg.Add(2)
		go run(h, 0, x, y)    // adaptive: starts (and stays) fast
		go run(slow, 1, y, x) // pinned to the engine-validated path
		wg.Wait()
		if heap.Load(x)+heap.Load(y) < 1 {
			t.Fatalf("round %d: write skew committed (x=%d y=%d)", round, heap.Load(x), heap.Load(y))
		}
	}
	if s := h.Stats(); s.FastCommits == 0 {
		t.Error("workload never exercised the fast path")
	}
}

// TestHybridHistorySerializable runs the token-based end-to-end history
// oracle over the mixed-path runtime with the serializability auditor
// watching the merged commit stream from the inside.
func TestHybridHistorySerializable(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			auditor := audit.New(audit.Config{})
			var h *hybrid.TM
			tmtest.HistorySerializable(t, func() tm.TM {
				h = hybrid.New(mem.NewHeap(1<<12), hybrid.Config{
					Slow: rococotm.Config{MaxThreads: 8, Observer: auditor},
				})
				return h
			}, tmtest.HistoryOptions{
				Threads:   4,
				TxnsEach:  150,
				Addresses: 10, // few addresses → real cross-path conflicts
				Readers:   false,
				Seed:      seed,
			})
			if err := auditor.Err(); err != nil {
				t.Errorf("auditor: %v", err)
			}
			if st := auditor.Stats(); st.Observed == 0 {
				t.Error("auditor observed no commits")
			}
			s := h.Stats()
			if s.Starts != s.Commits+s.Aborts {
				t.Errorf("accounting: starts %d != commits %d + aborts %d", s.Starts, s.Commits, s.Aborts)
			}
		})
	}
}

// TestHybridRouterDemotion walks the full per-site policy cycle
// deterministically: conflict aborts (a slow commit lands between a fast
// read and its write) push the site's EWMA over the demotion threshold;
// the demoted site routes slow, then grants a probing fast attempt; the
// probe commits and re-promotes the site.
func TestHybridRouterDemotion(t *testing.T) {
	// consecAborts high so the per-thread guard doesn't mask the per-site
	// policy; probeAfter small so the probe arrives quickly.
	h, heap := newHybrid(t, hybrid.Config{})
	hybrid.Limit(h, 0, 100, 2)
	a := heap.MustAlloc(1)
	slow := h.Slow()
	const site = 9001

	conflicts := 0
	for i := 0; i < 30; i++ {
		if st, _ := hybrid.SiteState(h, site); st != hybrid.SiteFastState {
			break
		}
		xt, err := h.BeginSite(0, site)
		if err != nil {
			t.Fatal(err)
		}
		v, err := xt.Read(a)
		if err != nil {
			t.Fatalf("attempt %d: read: %v", i, err)
		}
		// A slow commit slips in between the fast read and its write: the
		// write-back bumps the line version, dooming the fast attempt.
		if err := tm.Run(slow, 1, func(s tm.Txn) error {
			w, err := s.Read(a)
			if err != nil {
				return err
			}
			return s.Write(a, w+1)
		}); err != nil {
			t.Fatalf("attempt %d: interleaved slow commit: %v", i, err)
		}
		werr := xt.Write(a, v+100)
		if werr == nil {
			werr = h.Commit(xt)
		}
		if code, ok := tm.CodeOf(werr); !ok || code != tm.CodeConflict {
			t.Fatalf("attempt %d: stale fast write: err = %v, want CodeConflict", i, werr)
		}
		conflicts++
	}
	if st, ewma := hybrid.SiteState(h, site); st != hybrid.SiteSlowState {
		t.Fatalf("site state = %d after %d conflicts (ewma %d), want slow", st, conflicts, ewma)
	}
	s := h.Stats()
	if s.FastAborts == 0 {
		t.Fatal("no fast aborts recorded")
	}

	// Demoted: attempts route slow until probeAfter of them pass, then one
	// probing fast attempt runs uncontended, commits, and re-promotes.
	fastBefore := s.FastCommits
	inc := func(x tm.Txn) error {
		v, err := x.Read(a)
		if err != nil {
			return err
		}
		return x.Write(a, v+1)
	}
	for i := 0; i < 2*2+1; i++ {
		if err := tm.RunSite(h, 0, site, inc); err != nil {
			t.Fatal(err)
		}
	}
	s = h.Stats()
	if s.Probations == 0 {
		t.Error("demoted site never granted a probe")
	}
	if s.FastCommits == fastBefore {
		t.Error("probe never committed on the fast path")
	}
	if st, _ := hybrid.SiteState(h, site); st != hybrid.SiteFastState {
		t.Errorf("site state = %d after a committed probe, want fast", st)
	}
	t.Logf("conflicts=%d fast=%d/%d probations=%d",
		conflicts, s.FastCommits, s.FastAborts, s.Probations)
}

// TestHybridEscalate: an escalated thread's next attempt routes slow and
// arms the inner runtime's starvation escalation.
func TestHybridEscalate(t *testing.T) {
	h, heap := newHybrid(t, hybrid.Config{})
	a := heap.MustAlloc(1)
	h.Escalate(0)
	if err := tm.Run(h, 0, func(x tm.Txn) error {
		return x.Write(a, 1)
	}); err != nil {
		t.Fatal(err)
	}
	s := h.Stats()
	if s.SlowFallbacks != 1 {
		t.Errorf("SlowFallbacks = %d, want 1 (escalated attempt)", s.SlowFallbacks)
	}
	if s.FastCommits != 0 {
		t.Errorf("FastCommits = %d, want 0", s.FastCommits)
	}
}

// TestHybridIrrevocableCoexistence: fast traffic runs while one thread
// repeatedly conflicts into irrevocable turns; nothing deadlocks and no
// update is lost.
func TestHybridIrrevocableCoexistence(t *testing.T) {
	h, heap := newHybrid(t, hybrid.Config{
		Slow: rococotm.Config{MaxThreads: 8},
	})
	a := heap.MustAlloc(1)
	const threads, each = 6, 200

	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				err := tm.RunBackoff(h, th, tm.BackoffPolicy{EscalateAfter: 2}, func(x tm.Txn) error {
					v, err := x.Read(a)
					if err != nil {
						return err
					}
					return x.Write(a, v+1)
				})
				if err != nil {
					t.Errorf("thread %d: %v", th, err)
					return
				}
			}
		}(th)
	}
	wg.Wait()
	if v := heap.Load(a); v != threads*each {
		t.Fatalf("counter = %d, want %d", v, threads*each)
	}
}

// TestHybridZeroAllocFastPath gates the fast path's steady state: an
// uncontended read-modify-write transaction allocates nothing end to end.
func TestHybridZeroAllocFastPath(t *testing.T) {
	h, heap := newHybrid(t, hybrid.Config{})
	a := heap.MustAlloc(1)
	// Warm up: allocate the descriptor and route the site to steady state.
	for i := 0; i < 10; i++ {
		if err := tm.Run(h, 0, func(x tm.Txn) error {
			v, err := x.Read(a)
			if err != nil {
				return err
			}
			return x.Write(a, v+1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	body := func(x tm.Txn) error {
		v, err := x.Read(a)
		if err != nil {
			return err
		}
		return x.Write(a, v+1)
	}
	if avg := testing.AllocsPerRun(200, func() {
		xt, err := h.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := body(xt); err != nil {
			t.Fatal(err)
		}
		if err := h.Commit(xt); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("fast-path RMW allocates %.1f objects/txn, want 0", avg)
	}
	if s := h.Stats(); s.FastCommits < 200 {
		t.Errorf("alloc loop left the fast path (fast commits = %d)", s.FastCommits)
	}
}

// TestHybridRunReadOnly: the hybrid serves no snapshots, so RunReadOnly
// runs its closure as a transaction; on an idle runtime that is a fast
// attempt whose empty write set commits without the slow runtime. A Write
// inside it is refused before it reaches the runtime: no store, no line
// owned, nothing left live.
func TestHybridRunReadOnly(t *testing.T) {
	h, heap := newHybrid(t, hybrid.Config{})
	base := heap.MustAlloc(16)
	a, b := base, base+8 // distinct lines
	heap.Store(a, 3)
	heap.Store(b, 4)
	twoReads := func(x tm.Txn) error {
		va, err := x.Read(a)
		if err != nil {
			return err
		}
		vb, err := x.Read(b)
		if err != nil {
			return err
		}
		if va+vb != 7 {
			t.Errorf("read %d + %d, want 3 + 4", va, vb)
		}
		return nil
	}

	fastBefore, slowBefore := h.Stats().FastCommits, h.Slow().Stats().Starts
	if err := tm.RunReadOnly(h, 0, twoReads); err != nil {
		t.Fatal(err)
	}
	if got := h.Stats().FastCommits; got != fastBefore+1 {
		t.Errorf("FastCommits %d → %d, want +1", fastBefore, got)
	}
	if got := h.Slow().Stats().Starts; got != slowBefore {
		t.Errorf("slow runtime Starts %d → %d, want unchanged", slowBefore, got)
	}

	err := tm.RunReadOnly(h, 0, func(x tm.Txn) error { return x.Write(a, 99) })
	if !errors.Is(err, tm.ErrReadOnlyWrite) {
		t.Fatalf("Write inside RunReadOnly: err = %v, want ErrReadOnlyWrite", err)
	}
	if got := heap.Load(a); got != 3 {
		t.Errorf("heap = %d after a refused write, want 3", got)
	}
	if w := mem.LineWriterOf(h.Slow().LineTable().Own(mem.LineOf(a)).Load()); w != -1 {
		t.Errorf("line of a owned by thread %d after a refused write, want none", w)
	}
	if live, _ := h.PoolCheck(); live != 0 {
		t.Errorf("PoolCheck live = %d, want 0", live)
	}

	// The steady state allocates one object per call: the write-rejecting
	// Txn handed to the closure.
	if avg := testing.AllocsPerRun(200, func() {
		if err := tm.RunReadOnly(h, 0, twoReads); err != nil {
			t.Fatal(err)
		}
	}); avg != 1 {
		t.Errorf("RunReadOnly allocates %.1f objects per call, want 1", avg)
	}
}

// BenchmarkRunReadOnly is the read-only entry on the hybrid runtime: two
// reads on the fast path, through tm.RunReadOnly.
func BenchmarkRunReadOnly(b *testing.B) {
	heap := mem.NewHeap(1 << 12)
	h := hybrid.New(heap, hybrid.Config{Slow: rococotm.Config{MaxThreads: 2}})
	defer h.Close()
	base := heap.MustAlloc(16)
	twoReads := func(x tm.Txn) error {
		if _, err := x.Read(base); err != nil {
			return err
		}
		_, err := x.Read(base + 8)
		return err
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tm.RunReadOnly(h, 0, twoReads); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHybridPoolCheckSeesFastAttempt: a live fast attempt is a live attempt
// to PoolCheck, and is gone once it commits or aborts — so the leak
// assertions of the other tests can catch a leaked fast attempt.
func TestHybridPoolCheckSeesFastAttempt(t *testing.T) {
	h, heap := newHybrid(t, hybrid.Config{})
	a := heap.MustAlloc(1)
	for _, commit := range []bool{true, false} {
		x, err := h.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := x.Write(a, 1); err != nil {
			t.Fatal(err)
		}
		if live, _ := h.PoolCheck(); live != 1 {
			t.Fatalf("PoolCheck live = %d with a fast attempt owning a line, want 1", live)
		}
		if commit {
			err = h.Commit(x)
		} else {
			h.Abort(x)
		}
		if err != nil {
			t.Fatal(err)
		}
		if live, _ := h.PoolCheck(); live != 0 {
			t.Fatalf("PoolCheck live = %d after the fast attempt ended (commit %v), want 0", live, commit)
		}
	}
	if s := h.Stats(); s.FastCommits != 1 || s.FastAborts != 1 {
		t.Errorf("FastCommits/FastAborts = %d/%d, want 1/1: an attempt left the fast path", s.FastCommits, s.FastAborts)
	}
}

// TestHybridWatchdogKillsFastAttempt: a fast attempt stuck past WatchdogAge is
// counted in WatchdogFires and ends at its next operation with a watchdog
// abort, its eager store rolled back; the merged Stats count the kill.
func TestHybridWatchdogKillsFastAttempt(t *testing.T) {
	h, heap := newHybrid(t, hybrid.Config{Slow: rococotm.Config{
		MaxThreads:  4,
		WatchdogAge: time.Millisecond,
		Logf:        func(string, ...any) {},
	}})
	a := heap.MustAlloc(1)
	x, err := h.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Write(a, 7); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); h.Stats().WatchdogFires == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("WatchdogFires = 0 after a fast attempt stuck past WatchdogAge")
		}
	}
	_, err = x.Read(a)
	if code, ok := tm.CodeOf(err); !ok || code != tm.CodeWatchdog {
		t.Fatalf("stuck fast attempt's Read: err = %v, want a watchdog abort", err)
	}
	if got := heap.Load(a); got != 0 {
		t.Errorf("heap = %d, want 0 (rolled back)", got)
	}
	st := h.Stats()
	if st.WatchdogKills != 1 || st.Reasons[tm.ReasonWatchdog] != 1 || st.FastAborts != 1 {
		t.Errorf("WatchdogKills/Reasons[watchdog]/FastAborts = %d/%d/%d, want 1/1/1",
			st.WatchdogKills, st.Reasons[tm.ReasonWatchdog], st.FastAborts)
	}
	if live, _ := h.PoolCheck(); live != 0 {
		t.Errorf("PoolCheck live = %d, want 0", live)
	}
}

// TestHybridFastWriteCapacityPreCheck: the over-capacity write must abort
// before acquiring the new line — acquisition would push ownedLines past
// its preallocated capacity and cycle the line's seqlock for nothing. The
// untouched version word is the observable.
func TestHybridFastWriteCapacityPreCheck(t *testing.T) {
	h, heap := newHybrid(t, hybrid.Config{})
	hybrid.Limit(h, 2, 0, 0)
	base := heap.MustAlloc(24)
	lt := h.Slow().LineTable()
	over := base + 16
	before := lt.Version(mem.LineOf(over))

	xt, err := h.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := xt.Write(base, 1); err != nil {
		t.Fatal(err)
	}
	if err := xt.Write(base+8, 1); err != nil {
		t.Fatal(err)
	}
	err = xt.Write(over, 1)
	if code, ok := tm.CodeOf(err); !ok || code != tm.CodeCapacity {
		t.Fatalf("third distinct line: err=%v, want capacity abort", err)
	}
	if got := lt.Version(mem.LineOf(over)); got != before {
		t.Errorf("over-capacity line version moved %d → %d: line was acquired before the capacity check", before, got)
	}
}

// TestHybridHardEngineErrorIsCounted: a fast commit that finds the engine
// dead is a hard error to the caller and an engine abort in the accounting —
// Starts == Commits + Aborts survives it, the eager store is rolled back and
// nothing is left live.
func TestHybridHardEngineErrorIsCounted(t *testing.T) {
	h, heap := newHybrid(t, hybrid.Config{})
	a := heap.MustAlloc(1)
	x, err := h.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Write(a, 7); err != nil {
		t.Fatal(err)
	}
	h.Slow().Engine().Close()
	err = h.Commit(x)
	if _, abort := tm.IsAbort(err); err == nil || abort {
		t.Fatalf("commit on a dead engine: err = %v, want a hard error", err)
	}
	st := h.Stats()
	if st.Starts != 1 || st.Commits != 0 || st.Aborts != 1 || st.Reasons[tm.ReasonEngine] != 1 {
		t.Errorf("Starts/Commits/Aborts = %d/%d/%d, reasons %v; want 1/0/1 with one %s abort",
			st.Starts, st.Commits, st.Aborts, st.Reasons, tm.ReasonEngine)
	}
	if got := heap.Load(a); got != 0 {
		t.Errorf("heap = %d, want 0 (rolled back)", got)
	}
	if live, _ := h.PoolCheck(); live != 0 {
		t.Errorf("PoolCheck live = %d, want 0", live)
	}
}
