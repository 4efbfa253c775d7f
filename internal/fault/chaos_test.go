package fault_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rococotm/internal/audit"
	"rococotm/internal/fpga"
	"rococotm/internal/mem"
	"rococotm/internal/rococotm"
	"rococotm/internal/tm"
)

// The engine-side chaos scenarios. The runtime trusts its validation
// engine, so the one engine fault left is the crash: Close answers every
// request it had accepted with a terminal verdict, the commits it refuses
// end with the hard fpga.ErrClosed (counted as engine aborts) and are the
// caller's to retry, and Restart brings the engine back with an empty
// window. Across every crash no committed transaction may be lost or
// applied twice, and the runtime auditor must certify the history.

// crashRestart crashes eng and brings it back after outage. The window
// rebases at the engine's own next sequence: every sequence it issued
// before the crash is still published by its holder, so the host's commit
// count catches up with it.
func crashRestart(eng *fpga.Engine, outage time.Duration) {
	eng.Close()
	time.Sleep(outage)
	eng.Restart(uint64(eng.NextSeq()))
}

// incr is one conflicting read-modify-write increment of a.
func incr(a mem.Addr) func(tm.Txn) error {
	return func(x tm.Txn) error {
		v, err := x.Read(a)
		if err != nil {
			return err
		}
		return x.Write(a, v+1)
	}
}

// TestChaosCrashRestart: under conflicting RMW traffic the engine crashes
// repeatedly at seeded points, losing its window each time. The counters
// must sum to exactly the acknowledged commits, every refused commit must
// be one engine abort, and the auditor must certify the history across
// every crash.
func TestChaosCrashRestart(t *testing.T) {
	const (
		workers  = 4
		counters = 4
		crashes  = 10
	)
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			auditor := audit.New(audit.Config{})
			h := mem.NewHeap(1 << 10)
			m := rococotm.New(h, rococotm.Config{MaxThreads: workers, Observer: auditor})
			base := h.MustAlloc(counters)

			var commits, refused atomic.Uint64
			var stop atomic.Bool
			var wg sync.WaitGroup
			for th := 0; th < workers; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					for i := 0; !stop.Load(); i++ {
						err := tm.Run(m, th, incr(base+mem.Addr((i+th)%counters)))
						switch {
						case err == nil:
							commits.Add(1)
						case errors.Is(err, fpga.ErrClosed):
							refused.Add(1)
							runtime.Gosched() // down: wait for the restart
						default:
							t.Errorf("thread %d: %v", th, err)
							return
						}
					}
				}(th)
			}
			rng := rand.New(rand.NewSource(seed))
			eng := m.Engine()
			for c := 0; c < crashes-1; c++ {
				time.Sleep(time.Duration(200+rng.Intn(800)) * time.Microsecond)
				crashRestart(eng, time.Duration(200+rng.Intn(300))*time.Microsecond)
			}
			// The last outage lasts until a commit has met a crash: on a
			// loaded host the workers can miss every sub-millisecond outage.
			time.Sleep(time.Duration(200+rng.Intn(800)) * time.Microsecond)
			eng.Close()
			time.Sleep(time.Duration(200+rng.Intn(300)) * time.Microsecond)
			for deadline := time.Now().Add(10 * time.Second); refused.Load() == 0 && time.Now().Before(deadline); {
				runtime.Gosched()
			}
			eng.Restart(uint64(eng.NextSeq()))
			// Commits flow through the last rebased window.
			for after, deadline := commits.Load(), time.Now().Add(10*time.Second); commits.Load() < after+50; {
				if time.Now().After(deadline) {
					t.Error("no commits after the last restart")
					break
				}
				runtime.Gosched()
			}
			stop.Store(true)
			wg.Wait()

			var sum uint64
			for i := 0; i < counters; i++ {
				sum += uint64(h.Load(base + mem.Addr(i)))
			}
			if sum != commits.Load() {
				t.Fatalf("counters sum to %d, %d commits acknowledged", sum, commits.Load())
			}
			if refused.Load() == 0 {
				t.Error("no commit was refused: the crashes never met traffic")
			}
			st := m.Stats()
			if st.Starts != st.Commits+st.Aborts || st.Reasons[tm.ReasonEngine] != refused.Load() {
				t.Errorf("Starts/Commits/Aborts = %d/%d/%d with %d engine aborts; want Starts == Commits + Aborts and %d engine aborts",
					st.Starts, st.Commits, st.Aborts, st.Reasons[tm.ReasonEngine], refused.Load())
			}
			if es := m.Engine().Stats(); es.Restarts != crashes {
				t.Errorf("engine Restarts = %d, want %d", es.Restarts, crashes)
			}
			if err := auditor.Err(); err != nil {
				t.Errorf("runtime auditor: %v", err)
			}
			if auditor.Stats().Observed == 0 {
				t.Error("auditor observed no commits")
			}
			if live, _ := m.PoolCheck(); live != 0 {
				t.Fatalf("live descriptors after the run = %d", live)
			}
			m.Close()
			settleGoroutines(t, baseline)
		})
	}
}

// TestChaosRecoveryRoundTrip drives a single outage end to end with full
// accounting: commits flow → the engine crashes at a seeded point → the
// next commit is refused with the hard fpga.ErrClosed, counted as one
// engine abort, leaving the heap and GlobalTS alone → Restart at the host's
// commit count → commits flow through the rebased window again. The
// counter must equal the acknowledged increments exactly, and Close must
// leave no goroutine behind.
func TestChaosRecoveryRoundTrip(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			h := mem.NewHeap(1 << 10)
			m := rococotm.New(h, rococotm.Config{MaxThreads: 1})
			a := h.MustAlloc(1)
			crashAt := 10 + rand.New(rand.NewSource(seed)).Intn(100)

			// Phase 1: healthy, up to the crash point.
			for i := 0; i < crashAt; i++ {
				if err := tm.Run(m, 0, incr(a)); err != nil {
					t.Fatal(err)
				}
			}
			m.Engine().Close()

			// Phase 2: down. The commit is refused and leaves nothing behind.
			if err := tm.Run(m, 0, incr(a)); !errors.Is(err, fpga.ErrClosed) {
				t.Fatalf("commit on a crashed engine: err = %v, want fpga.ErrClosed", err)
			}
			if got := h.Load(a); got != mem.Word(crashAt) {
				t.Fatalf("counter = %d after a refused commit, want %d", got, crashAt)
			}
			if got := m.GlobalTS(); got != uint64(crashAt) {
				t.Fatalf("GlobalTS = %d after a refused commit, want %d", got, crashAt)
			}
			st := m.Stats()
			if st.Reasons[tm.ReasonEngine] != 1 || st.Starts != st.Commits+st.Aborts {
				t.Fatalf("Starts/Commits/Aborts = %d/%d/%d, reasons %v; want one %s abort",
					st.Starts, st.Commits, st.Aborts, st.Reasons, tm.ReasonEngine)
			}

			// Phase 3: recovered. Commits flow through the rebased window.
			m.Engine().Restart(m.GlobalTS())
			for i := 0; i < 40; i++ {
				if err := tm.Run(m, 0, incr(a)); err != nil {
					t.Fatalf("commit %d after the restart: %v", i, err)
				}
			}
			if got := h.Load(a); got != mem.Word(crashAt+40) {
				t.Fatalf("counter = %d, want %d", got, crashAt+40)
			}
			if es := m.Engine().Stats(); es.Restarts != 1 || es.Commits != uint64(crashAt+40) {
				t.Fatalf("engine Restarts/Commits = %d/%d, want 1/%d", es.Restarts, es.Commits, crashAt+40)
			}
			if live, _ := m.PoolCheck(); live != 0 {
				t.Fatalf("live descriptors = %d", live)
			}
			m.Close()
			settleGoroutines(t, baseline)
		})
	}
}

// errChaosApp is the application error the soak's failing closures return.
var errChaosApp = errors.New("chaos: application error")

// TestChaosAuditSoak is the acceptance soak in miniature: engine crashes
// plus lifecycle chaos from the host side — closures that fail with an
// application error, injected closure panics, and closures that wedge past the watchdog age — while the runtime
// serializability auditor certifies every committed history window. The
// auditor's own self-test (a seeded wrong verdict that must be flagged
// exactly once) gates the run, so "0 violations" is a meaningful verdict
// and not a dead checker. After Close: no live descriptors, no goroutines.
func TestChaosAuditSoak(t *testing.T) {
	dur := 2 * time.Second
	if testing.Short() {
		dur = 300 * time.Millisecond
	}
	if err := audit.SelfTest(); err != nil {
		t.Fatalf("auditor self-test failed; its verdicts are not trustworthy: %v", err)
	}

	baseline := runtime.NumGoroutine()
	auditor := audit.New(audit.Config{})
	h := mem.NewHeap(1 << 12)
	m := rococotm.New(h, rococotm.Config{
		MaxThreads:  8,
		Observer:    auditor,
		WatchdogAge: 5 * time.Millisecond,
		Logf:        func(string, ...any) {},
	})
	base := h.MustAlloc(16)

	const workers = 6
	type tally struct{ commits, rollbacks, panics, stuck, refused uint64 }
	tallies := make([]tally, workers)
	var wg sync.WaitGroup
	stop := time.Now().Add(dur)
	for th := 0; th < workers; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			tl := &tallies[th]
			for i := 0; time.Now().Before(stop); i++ {
				var err error
				switch {
				case i%37 == 13:
					// Application error mid-transaction: rolled back.
					err = tm.Run(m, th, func(x tm.Txn) error {
						if _, err := x.Read(base + mem.Addr(i%16)); err != nil {
							return err
						}
						return errChaosApp
					})
					if errors.Is(err, errChaosApp) {
						tl.rollbacks++
						err = nil
					}
				case i%53 == 29:
					// Injected closure panic: must unwind cleanly.
					func() {
						defer func() {
							if recover() != nil {
								tl.panics++
							}
						}()
						err = tm.Run(m, th, func(x tm.Txn) error {
							if err := x.Write(base+mem.Addr(i%16), 1); err != nil {
								return err
							}
							panic("injected")
						})
						t.Errorf("thread %d: injected panic did not propagate (Run returned %v)", th, err)
					}()
				case i%97 == 61:
					// Wedged closure: parks past the watchdog age, then
					// retries and commits.
					stalled := false
					err = tm.Run(m, th, func(x tm.Txn) error {
						if !stalled {
							stalled = true
							time.Sleep(8 * time.Millisecond)
						}
						_, err := x.Read(base + mem.Addr(i%16))
						return err
					})
					if err == nil {
						tl.stuck++
					}
				default:
					// Plain conflicting RMW traffic.
					err = tm.Run(m, th, incr(base+mem.Addr((i+th)%16)))
					if err == nil {
						tl.commits++
					}
				}
				switch {
				case err == nil:
				case errors.Is(err, fpga.ErrClosed):
					tl.refused++ // the engine is down: retry after the restart
					runtime.Gosched()
				default:
					t.Errorf("thread %d: %v", th, err)
					return
				}
			}
		}(th)
	}
	crashes := 0
	for time.Now().Add(5 * time.Millisecond).Before(stop) {
		time.Sleep(3 * time.Millisecond)
		crashRestart(m.Engine(), 300*time.Microsecond)
		crashes++
	}
	wg.Wait()

	var total tally
	for _, tl := range tallies {
		total.commits += tl.commits
		total.rollbacks += tl.rollbacks
		total.panics += tl.panics
		total.stuck += tl.stuck
		total.refused += tl.refused
	}
	if total.commits == 0 || total.rollbacks == 0 || total.panics == 0 {
		t.Fatalf("soak exercised too little: %+v", total)
	}
	if err := auditor.Err(); err != nil {
		t.Errorf("runtime auditor: %v", err)
	}
	st := auditor.Stats()
	if st.Observed == 0 {
		t.Fatal("auditor observed no commits")
	}
	t.Logf("soak: %d commits, %d rollbacks, %d panics, %d watchdog-retried, %d refused across %d engine crashes; "+
		"audit: %d observed, %d edges, %d back-edges, %d violations",
		total.commits, total.rollbacks, total.panics, total.stuck, total.refused, crashes,
		st.Observed, st.Edges, st.BackEdges, st.Violations)

	if live, _ := m.PoolCheck(); live != 0 {
		t.Fatalf("live descriptors after soak = %d", live)
	}
	m.Close()
	if live, _ := m.PoolCheck(); live != 0 {
		t.Fatalf("live descriptors after Close = %d", live)
	}
	settleGoroutines(t, baseline)
}
