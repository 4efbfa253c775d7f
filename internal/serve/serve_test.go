package serve_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rococotm/internal/audit"
	"rococotm/internal/hybrid"
	"rococotm/internal/mem"
	"rococotm/internal/mvstore"
	"rococotm/internal/rococotm"
	"rococotm/internal/serve"
	"rococotm/internal/tm"
	"rococotm/internal/tmds"
	"rococotm/internal/wal"
)

// incrFn returns a request body that increments word a.
func incrFn(a mem.Addr) func(tm.Txn) error {
	return func(x tm.Txn) error {
		v, err := x.Read(a)
		if err != nil {
			return err
		}
		return x.Write(a, v+1)
	}
}

// mustAccounting certifies the outcome identity and returns the stats.
func mustAccounting(t *testing.T, s *serve.Server) serve.Stats {
	t.Helper()
	st := s.Stats()
	if err := st.CheckAccounting(); err != nil {
		t.Error(err)
	}
	return st
}

// TestServeCommitsAndAccounting: light load commits everything and the
// accounting identity holds; then a concurrent smallbank mix keeps the
// identity, conserves the bank's balance, and leaves a history the
// serializability auditor certifies and no live transaction behind.
func TestServeCommitsAndAccounting(t *testing.T) {
	h := mem.NewHeap(1 << 12)
	auditor := audit.New(audit.Config{})
	m := rococotm.New(h, rococotm.Config{MaxThreads: 8, Observer: auditor})
	defer m.Close()
	a := h.MustAlloc(1)
	s := serve.New(m, serve.Config{Workers: 2})

	const n = 50
	for i := 0; i < n; i++ {
		out, err := s.Do(serve.Request{Class: serve.Normal, Fn: incrFn(a)})
		if err != nil || out != serve.Committed {
			t.Fatalf("request %d: outcome %v err %v", i, out, err)
		}
	}
	s.Close()
	st := mustAccounting(t, s)
	if st.Committed != n || st.Offered != n {
		t.Fatalf("stats: %+v", st)
	}
	if got := h.Load(a); got != n {
		t.Fatalf("word = %d, want %d", got, n)
	}
	if out, err := s.Do(serve.Request{Fn: incrFn(a)}); out != serve.Shed || !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("Do after Close = %v, %v; want Shed, ErrClosed", out, err)
	}

	const (
		workers   = 4
		clients   = 8
		perClient = 60
	)
	b, err := tmds.NewSmallBank(h, 32, 1000)
	if err != nil {
		t.Fatal(err)
	}
	s = serve.New(m, serve.Config{Workers: workers, DefaultBudget: 100 * time.Millisecond})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 11))
			for i := 0; i < perClient; i++ {
				from, to := rng.Intn(32), rng.Intn(32)
				amt := mem.Word(rng.Intn(20) + 1)
				s.Do(serve.Request{Class: serve.Normal, Fn: func(x tm.Txn) error {
					return b.SendPayment(x, from, to, amt)
				}})
			}
		}(c)
	}
	wg.Wait()
	s.Close()
	if st = mustAccounting(t, s); st.Committed == 0 {
		t.Fatalf("the smallbank mix committed nothing: %+v", st)
	}
	if err := tm.Run(m, workers+1, b.CheckConservation); err != nil {
		t.Errorf("conservation: %v", err)
	}
	if err := auditor.Err(); err != nil {
		t.Errorf("auditor: %v", err)
	}
	if live, _ := m.PoolCheck(); live != 0 {
		t.Errorf("pool leak: %d live txns after Close", live)
	}
}

// TestServeOverloadSheds: far more concurrent offers than the concurrency
// limit admits — the excess is shed at the door, nothing deadlocks, and
// the accounting identity still balances. Admitted requests wait inside Fn
// until the rest have been turned away, so the overload does not depend on
// a commit yielding the processor to the other clients: with the single
// worker held, at most the limit's two requests are admitted. The admitted
// ones are smallbank payments on an audited runtime, so the overload is
// also certified: the bank's balance is conserved, the serializability
// auditor accepts the history, and no transaction is left live.
func TestServeOverloadSheds(t *testing.T) {
	h := mem.NewHeap(1 << 12)
	auditor := audit.New(audit.Config{})
	m := rococotm.New(h, rococotm.Config{MaxThreads: 8, Observer: auditor})
	defer m.Close()
	const (
		clients  = 64
		queueCap = 2
		accounts = 32
	)
	b, err := tmds.NewSmallBank(h, accounts, 1000)
	if err != nil {
		t.Fatal(err)
	}
	s := serve.NewTuned(m, serve.Config{Workers: 1}, serve.Tuning{
		// Keep the limit pinned: a healthy runtime raises no signal, and
		// the SLO is generous.
		MaxInflight: 2,
		TargetP99:   time.Second,
		QueueCap:    queueCap,
	})

	release := make(chan struct{})
	var wg sync.WaitGroup
	var shed, committed atomic.Uint64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			from, to := c%accounts, (c+1)%accounts
			out, _ := s.Do(serve.Request{Class: serve.High, Budget: time.Minute, Fn: func(x tm.Txn) error {
				<-release
				return b.SendPayment(x, from, to, mem.Word(c+1))
			}})
			switch out {
			case serve.Shed:
				shed.Add(1)
			case serve.Committed:
				committed.Add(1)
			}
		}(c)
	}
	for deadline := time.Now().Add(10 * time.Second); s.Stats().Shed < clients-1-queueCap; {
		if time.Now().After(deadline) {
			t.Fatalf("held server shed only %d of %d clients: %+v", s.Stats().Shed, clients, s.Stats())
		}
		time.Sleep(50 * time.Microsecond)
	}
	close(release)
	wg.Wait()
	s.Close()
	st := mustAccounting(t, s)
	if committed.Load() == 0 {
		t.Error("no request committed under overload")
	}
	if shed.Load() == 0 {
		t.Errorf("no request shed with limit 2 and %d concurrent clients: %+v", clients, st)
	}
	if got := shed.Load() + committed.Load(); got != clients {
		t.Errorf("shed %d + committed %d = %d, want %d: %+v", shed.Load(), committed.Load(), got, clients, st)
	}
	if st.ShedLimit == 0 {
		t.Errorf("expected limit sheds, got %+v", st)
	}
	if err := tm.Run(m, 1, b.CheckConservation); err != nil {
		t.Errorf("conservation: %v", err)
	}
	if err := auditor.Err(); err != nil {
		t.Errorf("auditor: %v", err)
	}
	if live, _ := m.PoolCheck(); live != 0 {
		t.Errorf("pool leak: %d live txns after Close", live)
	}
}

// TestServeDeadlineExpiry: a request whose budget is gone before a worker
// picks it up resolves as Expired without touching the runtime.
func TestServeDeadlineExpiry(t *testing.T) {
	h := mem.NewHeap(1 << 10)
	m := rococotm.New(h, rococotm.Config{MaxThreads: 8})
	defer m.Close()
	a := h.MustAlloc(1)
	s := serve.New(m, serve.Config{Workers: 1})
	defer s.Close()

	out, err := s.Do(serve.Request{Class: serve.High, Budget: time.Nanosecond, Fn: incrFn(a)})
	if out != serve.Expired {
		t.Fatalf("outcome = %v (err %v), want Expired", out, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if st := s.Stats(); st.Expired != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestServeDeadlineOverrunRollsBack: a request whose closure writes and
// then sleeps past its budget is caught at the pre-validation boundary —
// it ends Expired with DeadlineExceeded and none of its writes reach the
// heap.
func TestServeDeadlineOverrunRollsBack(t *testing.T) {
	h := mem.NewHeap(1 << 10)
	m := rococotm.New(h, rococotm.Config{MaxThreads: 8})
	defer m.Close()
	a, b := h.MustAlloc(1), h.MustAlloc(1)
	s := serve.New(m, serve.Config{Workers: 1})
	defer s.Close()

	out, err := s.Do(serve.Request{Class: serve.High, Budget: 5 * time.Millisecond,
		Fn: func(x tm.Txn) error {
			if err := x.Write(a, 1); err != nil {
				return err
			}
			if err := x.Write(b, 2); err != nil {
				return err
			}
			time.Sleep(20 * time.Millisecond)
			return nil
		}})
	if out != serve.Expired || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("outcome = %v err %v, want Expired with DeadlineExceeded", out, err)
	}
	if va, vb := h.Load(a), h.Load(b); va != 0 || vb != 0 {
		t.Fatalf("expired request's writes reached the heap: a=%d b=%d", va, vb)
	}
	if st := mustAccounting(t, s); st.Expired != 1 || st.Committed != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// conflictOnce returns a request body whose first attempt is guaranteed to
// lose validation: between its read and its commit, a conflicting
// transaction commits a write to the same word on a separate thread.
func conflictOnce(m tm.TM, thread int, a mem.Addr) func(tm.Txn) error {
	first := true
	return func(x tm.Txn) error {
		v, err := x.Read(a)
		if err != nil {
			return err
		}
		if first {
			first = false
			if err := tm.Run(m, thread, incrFn(a)); err != nil {
				return fmt.Errorf("spoiler: %w", err)
			}
		}
		return x.Write(a, v+1)
	}
}

// TestServeRetryLimit: an attempt cap of 1 plus a guaranteed first-attempt
// conflict finishes the request as AbortedFinal via the attempt cap.
func TestServeRetryLimit(t *testing.T) {
	h := mem.NewHeap(1 << 10)
	m := rococotm.New(h, rococotm.Config{MaxThreads: 8})
	defer m.Close()
	a := h.MustAlloc(1)
	s := serve.NewTuned(m, serve.Config{Workers: 1}, serve.Tuning{MaxAttempts: 1})
	defer s.Close()

	out, err := s.Do(serve.Request{Class: serve.High, Budget: time.Second,
		Fn: conflictOnce(m, 7, a)})
	if out != serve.AbortedFinal || err == nil {
		t.Fatalf("outcome = %v err %v, want AbortedFinal", out, err)
	}
	st := s.Stats()
	if st.Retries == 0 || st.AbortedFinal != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestServeRetryBudgetExhausted: a nearly-empty retry-token bucket turns
// the first retry into a terminal abort and counts the exhaustion.
func TestServeRetryBudgetExhausted(t *testing.T) {
	h := mem.NewHeap(1 << 10)
	m := rococotm.New(h, rococotm.Config{MaxThreads: 8})
	defer m.Close()
	a := h.MustAlloc(1)
	s := serve.NewTuned(m, serve.Config{Workers: 1}, serve.Tuning{
		// Bucket capacity under one token: any retry finds it dry.
		RetryTokensPerAdmit: 0.001,
		RetryTokenCap:       0.05,
	})
	defer s.Close()

	out, err := s.Do(serve.Request{Class: serve.High, Budget: time.Second,
		Fn: conflictOnce(m, 7, a)})
	if out != serve.AbortedFinal || err == nil {
		t.Fatalf("outcome = %v err %v, want AbortedFinal", out, err)
	}
	if st := s.Stats(); st.BudgetExhausts != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// newDurableTM builds a runtime with a durable store so snapshot service
// (tier-2 read-only demotion) is genuine rather than the Run fallback.
func newDurableTM(t *testing.T, heapWords, maxThreads int) (*rococotm.TM, *mem.Heap) {
	t.Helper()
	heap := mem.NewHeap(heapWords)
	dev := wal.NewMemDevice(nil)
	d, _, err := rococotm.RecoverDurable(dev, heap,
		wal.Options{FlushInterval: 100 * time.Microsecond}, mvstore.Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	return rococotm.New(heap, rococotm.Config{MaxThreads: maxThreads, Durable: d}), heap
}

// pressuredTM is a durable runtime whose Stats reports one more engine
// error at every sample while pressured is set, so every controller tick
// classifies as pressured. It embeds *rococotm.TM, so the server still
// sees a Snapshotter, an Escalator and a SiteRunner.
type pressuredTM struct {
	*rococotm.TM
	pressured    atomic.Bool
	engineErrors atomic.Uint64
}

func (p *pressuredTM) Stats() tm.Stats {
	st := p.TM.Stats()
	n := p.engineErrors.Load()
	if p.pressured.Load() {
		n = p.engineErrors.Add(1)
	}
	st.Reasons[tm.ReasonEngine] += n
	return st
}

// TestServeTierDegradation drives sustained artificial pressure through
// the runtime's engine-error count and asserts the full degradation
// ladder: the AIMD limit
// collapses to its floor, the tier escalates, Batch then Normal writes are
// shed while High writes still commit, read-only traffic is demoted to
// snapshot service — and when pressure stops, the server climbs back to
// full service instead of latching degraded.
func TestServeTierDegradation(t *testing.T) {
	inner, h := newDurableTM(t, 1<<10, 8)
	defer inner.Close()
	a := h.MustAlloc(1)

	m := &pressuredTM{TM: inner}
	m.pressured.Store(true)
	s := serve.NewTuned(m, serve.Config{Workers: 2},
		serve.Tuning{MaxInflight: 4, AdaptEvery: time.Millisecond, TierAfter: 2})
	defer s.Close()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (stats %+v)", what, s.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor("tier 2", func() bool { return s.Tier() >= 2 })

	if out, err := s.Do(serve.Request{Class: serve.Batch, Fn: incrFn(a)}); out != serve.Shed || !errors.Is(err, serve.ErrShed) {
		t.Fatalf("Batch at tier 2 = %v, %v; want Shed", out, err)
	}
	if out, err := s.Do(serve.Request{Class: serve.Normal, Fn: incrFn(a)}); out != serve.Shed || !errors.Is(err, serve.ErrShed) {
		t.Fatalf("Normal write at tier 2 = %v, %v; want Shed", out, err)
	}
	if out, err := s.Do(serve.Request{Class: serve.High, Budget: time.Second, Fn: incrFn(a)}); out != serve.Committed {
		t.Fatalf("High write at tier 2 = %v, %v; want Committed (never collapse)", out, err)
	}
	var got mem.Word
	if out, err := s.Do(serve.Request{Class: serve.Normal, ReadOnly: true, Budget: time.Second,
		Fn: func(x tm.Txn) error {
			v, err := x.Read(a)
			got = v
			return err
		}}); out != serve.Committed || err != nil {
		t.Fatalf("read-only at tier 2 = %v, %v; want snapshot service", out, err)
	}
	if got != 1 {
		t.Fatalf("snapshot read = %d, want 1 (post-High-commit height)", got)
	}
	st := s.Stats()
	if st.SnapshotServed == 0 {
		t.Fatalf("read-only request did not use snapshot service: %+v", st)
	}
	if st.ShedClass < 2 || st.TierEntries == 0 || st.LimitDecreases == 0 {
		t.Fatalf("degradation counters: %+v", st)
	}

	// Pressure off: the server must recover to full service.
	m.pressured.Store(false)
	waitFor("tier 0", func() bool { return s.Tier() == 0 })
	waitFor("limit recovery", func() bool { return s.Limit() == 4 })
	if out, err := s.Do(serve.Request{Class: serve.Batch, Budget: time.Second, Fn: incrFn(a)}); out != serve.Committed {
		t.Fatalf("Batch after recovery = %v, %v; want Committed", out, err)
	}
	mustAccounting(t, s)
}

// TestServeNewOrder serves a new-order mix and certifies the workload
// invariants plus the outcome accounting.
func TestServeNewOrder(t *testing.T) {
	const workers = 4
	h := mem.NewHeap(1 << 12)
	m := rococotm.New(h, rococotm.Config{MaxThreads: workers + 2})
	defer m.Close()
	db, err := tmds.NewNewOrderDB(h, 4, 32, 1000)
	if err != nil {
		t.Fatal(err)
	}

	s := serve.New(m, serve.Config{Workers: workers, DefaultBudget: 200 * time.Millisecond})
	var wg sync.WaitGroup
	var committed atomic.Uint64
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c) + 41))
			pick := make([]int, 3)
			for i := 0; i < 60; i++ {
				d := rng.Intn(4)
				for j := range pick {
					pick[j] = rng.Intn(32)
				}
				out, _ := s.Do(serve.Request{Class: serve.Normal, Fn: func(x tm.Txn) error {
					_, err := db.NewOrder(x, d, pick, 2)
					return err
				}})
				if out == serve.Committed {
					committed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	s.Close()

	st := mustAccounting(t, s)
	if st.Committed != committed.Load() {
		t.Errorf("server counted %d commits, clients saw %d", st.Committed, committed.Load())
	}
	if err := tm.Run(m, workers+1, func(x tm.Txn) error {
		orders, err := db.CheckInvariants(x)
		if err != nil {
			return err
		}
		if uint64(orders) != committed.Load() {
			t.Errorf("orders = %d, committed = %d", orders, committed.Load())
		}
		return nil
	}); err != nil {
		t.Fatalf("final invariants: %v", err)
	}
	if live, _ := m.PoolCheck(); live != 0 {
		t.Errorf("pool leak: %d live txns", live)
	}
}

// TestServeLatencyRecorded: the sojourn histogram sees every admitted
// request.
func TestServeLatencyRecorded(t *testing.T) {
	h := mem.NewHeap(1 << 10)
	m := rococotm.New(h, rococotm.Config{MaxThreads: 8})
	defer m.Close()
	a := h.MustAlloc(1)
	s := serve.New(m, serve.Config{Workers: 2})
	for i := 0; i < 20; i++ {
		s.Do(serve.Request{Class: serve.Normal, Fn: incrFn(a)})
	}
	s.Close()
	lat := s.Latency()
	if lat.Count() != 20 {
		t.Fatalf("latency count = %d, want 20", lat.Count())
	}
	if lat.P99() <= 0 {
		t.Fatalf("p99 = %v, want > 0", lat.P99())
	}
}

// TestServePanicReleasesThread: a request whose Fn panics re-panics in
// the caller of Do, is counted AbortedFinal, and leaves its thread (the
// only one) free and its attempt rolled back, so the next request commits.
func TestServePanicReleasesThread(t *testing.T) {
	h := mem.NewHeap(1 << 10)
	m := rococotm.New(h, rococotm.Config{MaxThreads: 4})
	defer m.Close()
	a := h.MustAlloc(1)
	s := serve.New(m, serve.Config{Workers: 1})

	func() {
		defer func() {
			if recover() == nil {
				t.Error("Fn's panic did not reach the caller of Do")
			}
		}()
		s.Do(serve.Request{Class: serve.High, Budget: time.Second, Fn: func(x tm.Txn) error {
			if err := x.Write(a, 7); err != nil {
				return err
			}
			panic("request bug")
		}})
	}()

	done := make(chan serve.Outcome, 1)
	go func() {
		out, _ := s.Do(serve.Request{Class: serve.High, Budget: time.Second, Fn: incrFn(a)})
		done <- out
	}()
	select {
	case out := <-done:
		if out != serve.Committed {
			t.Fatalf("request after the panic = %v, want Committed", out)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("request after the panic never got the thread: %+v", s.Stats())
	}
	st := mustAccounting(t, s)
	if st.AbortedFinal != 1 || st.Committed != 1 {
		t.Errorf("stats: %+v, want 1 aborted (the panic) and 1 committed", st)
	}
	if got := h.Load(a); got != 1 {
		t.Errorf("word = %d, want 1: the panicked attempt's write leaked", got)
	}
	s.Close()
	if live, _ := m.PoolCheck(); live != 0 {
		t.Errorf("pool leak: %d live txns after the panic", live)
	}
}

// exclusiveTM wraps a runtime and records any tm thread begun while an
// attempt of its own is still open, or any thread outside [lo, hi). An
// attempt ends at Commit, at Abort, or at a Read or Write that aborts it.
type exclusiveTM struct {
	tm.TM
	lo, hi int
	busy   [8]atomic.Bool
	bad    atomic.Uint64
}

type exclusiveTxn struct {
	tm.Txn
	busy *atomic.Bool
}

func (x *exclusiveTxn) Read(a mem.Addr) (mem.Word, error) {
	v, err := x.Txn.Read(a)
	x.ended(err)
	return v, err
}

func (x *exclusiveTxn) Write(a mem.Addr, v mem.Word) error {
	err := x.Txn.Write(a, v)
	x.ended(err)
	return err
}

// ended frees the thread if err aborted the attempt.
func (x *exclusiveTxn) ended(err error) {
	if _, ok := tm.CodeOf(err); ok {
		x.busy.Store(false)
	}
}

// claim marks thread busy before the runtime sees the Begin, so a
// double use is caught even where the runtime would refuse it.
func (e *exclusiveTM) claim(thread int) bool {
	if thread < e.lo || thread >= e.hi || !e.busy[thread].CompareAndSwap(false, true) {
		e.bad.Add(1)
		return false
	}
	return true
}

func (e *exclusiveTM) wrap(thread int, claimed bool, x tm.Txn, err error) (tm.Txn, error) {
	if err != nil {
		if claimed {
			e.busy[thread].Store(false)
		}
		return nil, err
	}
	return &exclusiveTxn{Txn: x, busy: &e.busy[thread]}, nil
}

func (e *exclusiveTM) Begin(thread int) (tm.Txn, error) {
	claimed := e.claim(thread)
	x, err := e.TM.Begin(thread)
	return e.wrap(thread, claimed, x, err)
}

func (e *exclusiveTM) BeginSite(thread int, site uint64) (tm.Txn, error) {
	claimed := e.claim(thread)
	x, err := e.TM.(tm.SiteRunner).BeginSite(thread, site)
	return e.wrap(thread, claimed, x, err)
}

func (e *exclusiveTM) Commit(t tm.Txn) error {
	x := t.(*exclusiveTxn)
	err := e.TM.Commit(x.Txn)
	x.busy.Store(false)
	return err
}

func (e *exclusiveTM) Abort(t tm.Txn) {
	x := t.(*exclusiveTxn)
	e.TM.Abort(x.Txn)
	x.busy.Store(false)
}

// TestServeThreadsExclusive: many clients over a small thread pool never
// run two attempts on one tm thread at once, and never use a thread
// outside 0 … Workers-1.
func TestServeThreadsExclusive(t *testing.T) {
	const (
		clients   = 16
		perClient = 100
	)
	h := mem.NewHeap(1 << 10)
	// The hybrid runtime is a tm.SiteRunner, so attempts begin through
	// BeginSite as well as Begin.
	inner := hybrid.New(h, hybrid.Config{Slow: rococotm.Config{MaxThreads: 8}})
	defer inner.Close()
	a, b := h.MustAlloc(1), h.MustAlloc(1)
	m := &exclusiveTM{TM: inner, lo: 0, hi: 2}
	s := serve.NewTuned(m, serve.Config{Workers: 2, DefaultBudget: time.Minute},
		serve.Tuning{MaxInflight: clients})

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			addr := a
			if c%2 == 1 {
				addr = b
			}
			for i := 0; i < perClient; i++ {
				s.Do(serve.Request{Class: serve.High, Fn: func(x tm.Txn) error {
					v, err := x.Read(addr)
					if err != nil {
						return err
					}
					runtime.Gosched()
					return x.Write(addr, v+1)
				}})
			}
		}(c)
	}
	wg.Wait()
	s.Close()

	st := mustAccounting(t, s)
	if n := m.bad.Load(); n != 0 {
		t.Fatalf("%d attempts began on a busy or foreign thread", n)
	}
	if st.Committed == 0 {
		t.Fatalf("nothing committed: %+v", st)
	}
	if got := uint64(h.Load(a) + h.Load(b)); got != st.Committed {
		t.Errorf("words sum to %d, server committed %d", got, st.Committed)
	}
	if live, _ := inner.PoolCheck(); live != 0 {
		t.Errorf("pool leak: %d live txns", live)
	}
}

// TestServeQueuedExpiry: with the one thread held, a request with a 2 ms
// budget waits behind it; released after that deadline, it resolves
// Expired without beginning an attempt on the runtime.
func TestServeQueuedExpiry(t *testing.T) {
	h := mem.NewHeap(1 << 10)
	m := rococotm.New(h, rococotm.Config{MaxThreads: 4})
	defer m.Close()
	a := h.MustAlloc(1)
	s := serve.New(m, serve.Config{Workers: 1})
	defer s.Close()
	starts := m.Stats().Starts

	held, release := make(chan struct{}), make(chan struct{})
	var firstAttempts atomic.Uint64
	first := make(chan serve.Outcome, 1)
	go func() {
		out, _ := s.Do(serve.Request{Class: serve.High, Budget: time.Minute, Fn: func(x tm.Txn) error {
			if firstAttempts.Add(1) == 1 {
				close(held)
				<-release
			}
			return incrFn(a)(x)
		}})
		first <- out
	}()
	<-held

	type result struct {
		out serve.Outcome
		err error
	}
	second := make(chan result, 1)
	go func() {
		out, err := s.Do(serve.Request{Class: serve.High, Budget: 2 * time.Millisecond, Fn: incrFn(a)})
		second <- result{out, err}
	}()
	for s.Stats().Offered < 2 {
		time.Sleep(50 * time.Microsecond)
	}
	time.Sleep(10 * time.Millisecond) // past the second request's deadline
	close(release)

	if out := <-first; out != serve.Committed {
		t.Fatalf("held request = %v, want Committed", out)
	}
	r := <-second
	if r.out != serve.Expired || !errors.Is(r.err, context.DeadlineExceeded) {
		t.Fatalf("queued request = %v, %v; want Expired with DeadlineExceeded", r.out, r.err)
	}
	if got := m.Stats().Starts - starts; got != firstAttempts.Load() {
		t.Errorf("runtime began %d attempts, the held request made %d: the expired one touched the runtime", got, firstAttempts.Load())
	}
	if st := mustAccounting(t, s); st.Expired != 1 || st.Committed != 1 {
		t.Errorf("stats: %+v", st)
	}
}

// TestServeSyncCommitDurableOnReturn: with SyncCommit on, a Committed Do
// returns only once every commit so far is durable — also at GOMAXPROCS 1,
// where the request runs on the caller's goroutine and the WAL flusher
// gets the processor only because WaitDurable kicks it and parks.
func TestServeSyncCommitDurableOnReturn(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	heap := mem.NewHeap(1 << 10)
	d, _, err := rococotm.RecoverDurable(wal.NewMemDevice(nil), heap,
		wal.Options{FlushInterval: time.Hour}, mvstore.Config{}, true)
	if err != nil {
		t.Fatal(err)
	}
	m := rococotm.New(heap, rococotm.Config{MaxThreads: 4, Durable: d})
	defer m.Close()
	a := heap.MustAlloc(1)
	s := serve.New(m, serve.Config{Workers: 2})
	defer s.Close()

	for i := 1; i <= 50; i++ {
		out, err := s.Do(serve.Request{Class: serve.High, Budget: 10 * time.Second, Fn: incrFn(a)})
		if out != serve.Committed {
			t.Fatalf("write %d = %v, %v", i, out, err)
		}
		if got, next := d.Log.DurableSeq(), d.Log.NextSeq(); got < uint64(i) || got < next {
			t.Fatalf("after commit %d: durable horizon %d, appended through %d", i, got, next)
		}
	}
}
