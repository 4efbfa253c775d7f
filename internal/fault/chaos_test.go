package fault_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"rococotm/internal/audit"
	"rococotm/internal/fault"
	"rococotm/internal/mem"
	"rococotm/internal/rococotm"
	"rococotm/internal/tm"
	"rococotm/internal/tm/tmtest"
)

// The chaos lane (scripts/check.sh runs `go test -race -run Chaos`) drives
// STAMP-style randomized RMW workloads through a fault-tolerant ROCoCoTM
// runtime whose engine link misbehaves per a seeded Schedule, and asserts
// the committed history is serializable with the semantics-package oracle:
// across every degrade/recover cycle, no committed transaction is lost and
// none commits twice (the history checker's token chains catch both).
//
// Each scenario runs under a fixed seed matrix so failures replay.
var chaosSeeds = []int64{1, 7, 42}

// chaosConfig is the runtime configuration every chaos scenario shares:
// deadlines well above the modeled ~600ns round trip but small enough to
// keep tests fast, and a quick recovery prober.
func chaosConfig(sched fault.Schedule, link **fault.Link) rococotm.Config {
	return rococotm.Config{
		MaxThreads:       8,
		ValidateDeadline: 1500 * time.Microsecond,
		ProbeInterval:    200 * time.Microsecond,
		WrapLink:         fault.Wrapper(sched, link),
	}
}

// runChaosHistory runs the serializability workload under sched and
// returns the fault link and runtime for post-hoc assertions. Every
// scenario is double-checked: the tmtest history oracle inspects observed
// values from the outside, and the runtime serializability auditor
// watches the commit stream from the inside — both must agree the
// history is acyclic.
func runChaosHistory(t *testing.T, sched fault.Schedule, seed int64) (*fault.Link, *rococotm.TM) {
	t.Helper()
	var link *fault.Link
	var m *rococotm.TM
	auditor := audit.New(audit.Config{})
	tmtest.HistorySerializable(t, func() tm.TM {
		cfg := chaosConfig(sched, &link)
		cfg.Observer = auditor
		m = rococotm.New(mem.NewHeap(1<<12), cfg)
		return m
	}, tmtest.HistoryOptions{
		Threads:  4,
		TxnsEach: 50,
		// Few addresses → real conflicts → the engine path matters.
		Addresses: 10,
		Readers:   false,
		Seed:      seed,
	})
	if err := auditor.Err(); err != nil {
		t.Errorf("runtime auditor: %v", err)
	}
	if st := auditor.Stats(); st.Observed == 0 {
		t.Error("auditor observed no commits")
	}
	return link, m
}

// TestChaosDelay: verdicts delayed up to 2× the deadline — a mix of
// rides-through and deadline misses that flip to the fallback and back.
func TestChaosDelay(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			link, _ := runChaosHistory(t, fault.Schedule{
				Seed:      seed,
				DelayProb: 0.4,
				DelayMin:  20 * time.Microsecond,
				DelayMax:  3 * time.Millisecond,
			}, seed)
			if link.Stats().Delayed == 0 {
				t.Error("schedule injected no delays")
			}
		})
	}
}

// TestChaosDrop: verdicts silently lost — the hole-in-the-commit-order
// fault that forces abandon + degradation.
func TestChaosDrop(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			link, m := runChaosHistory(t, fault.Schedule{
				Seed:     seed,
				DropProb: 0.08,
			}, seed)
			if link.Stats().Dropped == 0 {
				t.Error("schedule dropped no verdicts")
			}
			if fs := m.FaultStats(); fs.FallbackEntries == 0 {
				t.Errorf("dropped verdicts never tripped degradation: %+v", fs)
			}
		})
	}
}

// TestChaosDuplicateReorder: verdicts duplicated and delivered out of
// order — the at-least-once, unordered completion model.
func TestChaosDuplicateReorder(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			link, _ := runChaosHistory(t, fault.Schedule{
				Seed:          seed,
				DuplicateProb: 0.3,
				ReorderProb:   0.3,
			}, seed)
			st := link.Stats()
			if st.Duplicated == 0 && st.Reordered == 0 {
				t.Error("schedule injected no duplicates or reorders")
			}
		})
	}
}

// TestChaosStall: periodic pull-queue stalls longer than the deadline —
// backpressure the runtime must treat as an outage.
func TestChaosStall(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			link, _ := runChaosHistory(t, fault.Schedule{
				Seed:       seed,
				StallEvery: 25,
				StallFor:   3 * time.Millisecond,
			}, seed)
			if link.Stats().Stalls == 0 {
				t.Error("schedule injected no stalls")
			}
		})
	}
}

// TestChaosCrashRestart: the engine crashes repeatedly (losing window
// state each time) and refuses restarts for an outage window; history must
// stay serializable across every degrade/recover cycle.
func TestChaosCrashRestart(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			link, m := runChaosHistory(t, fault.Schedule{
				Seed:        seed,
				CrashAfter:  30,
				DownFor:     time.Millisecond,
				CrashRepeat: true,
			}, seed)
			if link.Stats().Crashes == 0 {
				t.Error("schedule injected no crashes")
			}
			if fs := m.FaultStats(); fs.FallbackEntries == 0 {
				t.Errorf("crash never tripped degradation: %+v", fs)
			}
		})
	}
}

// TestChaosEverything: all fault classes at once.
func TestChaosEverything(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			link, _ := runChaosHistory(t, fault.Schedule{
				Seed:          seed,
				DelayProb:     0.2,
				DelayMin:      10 * time.Microsecond,
				DelayMax:      2 * time.Millisecond,
				DropProb:      0.03,
				DuplicateProb: 0.1,
				ReorderProb:   0.1,
				StallEvery:    40,
				StallFor:      2 * time.Millisecond,
				CrashAfter:    60,
				DownFor:       time.Millisecond,
				CrashRepeat:   true,
			}, seed)
			if link.Stats().Submits == 0 {
				t.Error("no traffic reached the link")
			}
		})
	}
}

// TestChaosRecoveryRoundTrip drives a single outage end to end with full
// accounting: healthy → crash → degraded (fallback commits) → recovered
// (engine commits again), then checks the counter total — every committed
// increment exactly once — plus entry/exit counters and goroutine
// hygiene after Close.
func TestChaosRecoveryRoundTrip(t *testing.T) {
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			var link *fault.Link
			sched := fault.Schedule{
				Seed:       seed,
				CrashAfter: 25,
				DownFor:    500 * time.Microsecond,
			}
			// The injected crash refuses its casualty and answers everything
			// outstanding with terminal verdicts, so degradation needs no
			// deadline to fire — and with the shared 1.5 ms one, a host stall
			// trips it before the 25th submission and the crash never comes.
			cfg := chaosConfig(sched, &link)
			cfg.ValidateDeadline = 10 * time.Second
			h := mem.NewHeap(1 << 10)
			m := rococotm.New(h, cfg)
			a := h.MustAlloc(1)

			inc := func() {
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

			// Phase 1: past the crash point, into the fallback.
			for i := 0; i < 120; i++ {
				inc()
			}
			if link.Stats().Crashes != 1 {
				t.Fatalf("crashes = %d, want 1", link.Stats().Crashes)
			}
			fs := m.FaultStats()
			if fs.FallbackEntries != 1 {
				t.Fatalf("FallbackEntries = %d, want 1 (%+v)", fs.FallbackEntries, fs)
			}

			// Phase 2: the outage window has long expired; wait for the
			// prober to promote the engine path back.
			deadline := time.Now().Add(10 * time.Second)
			for m.FaultStats().State != "healthy" {
				if time.Now().After(deadline) {
					t.Fatalf("never recovered: %+v", m.FaultStats())
				}
				runtime.Gosched()
			}
			if fs := m.FaultStats(); fs.FallbackExits != 1 {
				t.Fatalf("FallbackExits = %d, want 1 (%+v)", fs.FallbackExits, fs)
			}

			// Phase 3: commits flow through the restarted engine again.
			fallbackBefore := m.FaultStats().FallbackValidations
			for i := 0; i < 40; i++ {
				inc()
			}
			if got := m.FaultStats().FallbackValidations; got != fallbackBefore {
				t.Errorf("post-recovery commits used the fallback (%d → %d)",
					fallbackBefore, got)
			}

			// No committed increment lost, none applied twice.
			if got := h.Load(a); got != 160 {
				t.Fatalf("counter = %d, want 160", got)
			}

			m.Close()
			settleGoroutines(t, baseline)
		})
	}
}

// TestChaosAuditSoak is the acceptance soak in miniature: a fault-heavy
// schedule (drops, duplicates, reorders, crash/restart) plus lifecycle
// chaos from the host side — cancellations, injected closure panics, and
// closures that wedge past the watchdog age — while the runtime
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
	var link *fault.Link
	auditor := audit.New(audit.Config{})
	cfg := chaosConfig(fault.Schedule{
		Seed:          42,
		DelayProb:     0.15,
		DelayMin:      10 * time.Microsecond,
		DelayMax:      2 * time.Millisecond,
		DropProb:      0.03,
		DuplicateProb: 0.1,
		ReorderProb:   0.1,
		CrashAfter:    80,
		DownFor:       time.Millisecond,
		CrashRepeat:   true,
	}, &link)
	cfg.Observer = auditor
	cfg.WatchdogAge = 5 * time.Millisecond
	cfg.Logf = func(string, ...any) {}
	h := mem.NewHeap(1 << 12)
	m := rococotm.New(h, cfg)
	base := h.MustAlloc(16)

	const workers = 6
	type tally struct{ commits, cancels, panics, stuck uint64 }
	tallies := make([]tally, workers)
	var wg sync.WaitGroup
	stop := time.Now().Add(dur)
	for th := 0; th < workers; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			tl := &tallies[th]
			for i := 0; time.Now().Before(stop); i++ {
				switch {
				case i%37 == 13:
					// Cancellation mid-transaction.
					ctx, cancel := context.WithCancel(context.Background())
					err := tm.RunCtx(ctx, m, th, func(x tm.Txn) error {
						cancel()
						_, err := x.Read(base + mem.Addr(i%16))
						return err
					})
					cancel()
					if errors.Is(err, context.Canceled) {
						tl.cancels++
					}
				case i%53 == 29:
					// Injected closure panic: must unwind cleanly.
					func() {
						defer func() {
							if recover() != nil {
								tl.panics++
							}
						}()
						//lint:ignore tmlint/aborterr the injected panic preempts the return; Run never yields an error here
						_ = tm.Run(m, th, func(x tm.Txn) error {
							if err := x.Write(base+mem.Addr(i%16), 1); err != nil {
								return err
							}
							panic("injected")
						})
					}()
				case i%97 == 61:
					// Wedged closure: parks past the watchdog age, then
					// retries and commits.
					stalled := false
					//lint:ignore tmlint/aborterr soak workload: a failed wedged attempt is tolerated, not propagated
					if err := tm.Run(m, th, func(x tm.Txn) error {
						if !stalled {
							stalled = true
							time.Sleep(8 * time.Millisecond)
						}
						_, err := x.Read(base + mem.Addr(i%16))
						return err
					}); err == nil {
						tl.stuck++
					}
				default:
					// Plain conflicting RMW traffic.
					if err := tm.Run(m, th, func(x tm.Txn) error {
						a := base + mem.Addr((i+th)%16)
						v, err := x.Read(a)
						if err != nil {
							return err
						}
						return x.Write(a, v+1)
					}); err != nil {
						t.Errorf("thread %d: %v", th, err)
						return
					}
					tl.commits++
				}
			}
		}(th)
	}
	wg.Wait()

	var total tally
	for _, tl := range tallies {
		total.commits += tl.commits
		total.cancels += tl.cancels
		total.panics += tl.panics
		total.stuck += tl.stuck
	}
	if total.commits == 0 || total.cancels == 0 || total.panics == 0 {
		t.Fatalf("soak exercised too little: %+v", total)
	}
	if err := auditor.Err(); err != nil {
		t.Errorf("runtime auditor: %v", err)
	}
	st := auditor.Stats()
	if st.Observed == 0 {
		t.Fatal("auditor observed no commits")
	}
	t.Logf("soak: %d commits, %d cancels, %d panics, %d watchdog-retried; "+
		"audit: %d observed, %d edges, %d back-edges, %d violations; link: %+v",
		total.commits, total.cancels, total.panics, total.stuck,
		st.Observed, st.Edges, st.BackEdges, st.Violations, link.Stats())

	if live, _ := m.PoolCheck(); live != 0 {
		t.Fatalf("live descriptors after soak = %d", live)
	}
	m.Close()
	if live, _ := m.PoolCheck(); live != 0 {
		t.Fatalf("live descriptors after Close = %d", live)
	}
	settleGoroutines(t, baseline)
}

// settleGoroutines polls until the goroutine count returns to baseline —
// the leak check for deliver goroutines, engine loops and the prober.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(time.Millisecond)
	}
}
