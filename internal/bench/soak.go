package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"rococotm/internal/audit"
	"rococotm/internal/mem"
	"rococotm/internal/rococotm"
	"rococotm/internal/tm"
)

// SoakConfig parameterizes the lifecycle soak: host-side chaos
// (cancellations, injected closure panics, wedged closures) over contended
// read-modify-write traffic, with the watchdog armed and the runtime
// serializability auditor certifying the commit stream.
type SoakConfig struct {
	// Threads is the worker count; default 8.
	Threads int
	// Duration is the wall-clock run length; default 60s.
	Duration time.Duration
	// WatchdogAge is the stuck-transaction threshold; default 5ms.
	WatchdogAge time.Duration
	// Addresses is the shared working set; default 16.
	Addresses int
}

func (c *SoakConfig) fill() {
	if c.Threads == 0 {
		c.Threads = 8
	}
	if c.Duration == 0 {
		c.Duration = 60 * time.Second
	}
	if c.WatchdogAge == 0 {
		c.WatchdogAge = 5 * time.Millisecond
	}
	if c.Addresses == 0 {
		c.Addresses = 16
	}
}

// SoakReport is the outcome of one soak run.
type SoakReport struct {
	Threads     int
	Duration    time.Duration
	Commits     uint64
	Aborts      uint64
	ThroughputK float64

	Cancels  uint64 // context cancellations honored mid-transaction
	Panics   uint64 // injected closure panics unwound cleanly
	Stuck    uint64 // wedged closures killed by the watchdog and retried
	Watchdog struct{ Fires, Kills uint64 }

	SelfTestOK bool
	Audit      audit.Stats
	AuditErr   error // nil iff the committed history is certified acyclic

	LiveAfterClose int // descriptors still live after Close (leak check)
}

// RunSoak drives the lifecycle soak and returns its report. The auditor's
// self-test runs first: a seeded wrong verdict must be flagged exactly
// once before the run's own verdict is believed.
func RunSoak(cfg SoakConfig) (*SoakReport, error) {
	cfg.fill()
	rep := &SoakReport{Threads: cfg.Threads, Duration: cfg.Duration}
	rep.SelfTestOK = audit.SelfTest() == nil
	if !rep.SelfTestOK {
		return rep, fmt.Errorf("bench: auditor self-test failed; soak verdict would be meaningless")
	}

	h := mem.NewHeap(1 << 12)
	base := h.MustAlloc(cfg.Addresses)
	auditor := audit.New(audit.Config{})
	m := rococotm.New(h, rococotm.Config{
		MaxThreads:  cfg.Threads + 1,
		Observer:    auditor,
		WatchdogAge: cfg.WatchdogAge,
		Logf:        func(string, ...any) {}, // fires are counted, not printed
	})

	type tally struct{ commits, cancels, panics, stuck uint64 }
	tallies := make([]tally, cfg.Threads)
	var wg sync.WaitGroup
	stop := time.Now().Add(cfg.Duration)
	for th := 0; th < cfg.Threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			tl := &tallies[th]
			for i := 0; time.Now().Before(stop); i++ {
				switch {
				case i%37 == 13:
					ctx, cancel := context.WithCancel(context.Background())
					err := tm.RunCtx(ctx, m, th, func(x tm.Txn) error {
						cancel()
						_, err := x.Read(base + mem.Addr(i%cfg.Addresses))
						return err
					})
					cancel()
					if errors.Is(err, context.Canceled) {
						tl.cancels++
					}
				case i%53 == 29:
					func() {
						defer func() {
							if recover() != nil {
								tl.panics++
							}
						}()
						//lint:ignore tmlint/aborterr the injected panic preempts the return; Run never yields an error here
						_ = tm.Run(m, th, func(x tm.Txn) error {
							if err := x.Write(base+mem.Addr(i%cfg.Addresses), 1); err != nil {
								return err
							}
							panic("injected")
						})
					}()
				case i%97 == 61:
					stalled := false
					//lint:ignore tmlint/aborterr soak workload: failed attempts are tolerated and tallied, not propagated
					if err := tm.Run(m, th, func(x tm.Txn) error {
						if !stalled {
							stalled = true
							time.Sleep(2 * cfg.WatchdogAge) // the age runs from the watchdog's first sight, up to age/2 late
						}
						_, err := x.Read(base + mem.Addr(i%cfg.Addresses))
						return err
					}); err == nil {
						tl.stuck++
					}
				default:
					a := base + mem.Addr((i+th)%cfg.Addresses)
					//lint:ignore tmlint/aborterr soak workload: failed attempts are tolerated and tallied, not propagated
					if err := tm.Run(m, th, func(x tm.Txn) error {
						v, err := x.Read(a)
						if err != nil {
							return err
						}
						return x.Write(a, v+1)
					}); err == nil {
						tl.commits++
					}
				}
			}
		}(th)
	}
	wg.Wait()

	for _, tl := range tallies {
		rep.Cancels += tl.cancels
		rep.Panics += tl.panics
		rep.Stuck += tl.stuck
	}
	st := m.Stats()
	rep.Commits = st.Commits
	rep.Aborts = st.Aborts
	rep.ThroughputK = float64(st.Commits) / cfg.Duration.Seconds() / 1e3
	rep.Watchdog.Fires = st.WatchdogFires
	rep.Watchdog.Kills = st.WatchdogKills
	rep.Audit = auditor.Stats()
	rep.AuditErr = auditor.Err()

	m.Close()
	rep.LiveAfterClose, _ = m.PoolCheck()
	return rep, nil
}

// String renders the soak report.
func (r *SoakReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Lifecycle soak: %d threads, %v, cancellations + panics + wedged closures\n",
		r.Threads, r.Duration)
	fmt.Fprintf(&sb, "  traffic:  %d commits (%.1f ktxn/s), %d aborts\n",
		r.Commits, r.ThroughputK, r.Aborts)
	fmt.Fprintf(&sb, "  chaos:    %d cancellations honored, %d panics unwound, %d wedged closures recovered\n",
		r.Cancels, r.Panics, r.Stuck)
	fmt.Fprintf(&sb, "  watchdog: %d fires, %d kills\n", r.Watchdog.Fires, r.Watchdog.Kills)
	verdict := "PASS: history certified acyclic"
	if r.AuditErr != nil {
		verdict = "FAIL: " + r.AuditErr.Error()
	}
	selfTest := "pass (seeded cycle flagged exactly once)"
	if !r.SelfTestOK {
		selfTest = "FAIL"
	}
	fmt.Fprintf(&sb, "  audit:    self-test %s; %d commits observed, %d edges (%d backward), %d searches, %d violations\n",
		selfTest, r.Audit.Observed, r.Audit.Edges, r.Audit.BackEdges, r.Audit.Searches, r.Audit.Violations)
	fmt.Fprintf(&sb, "  verdict:  %s; %d descriptors live after Close\n", verdict, r.LiveAfterClose)
	return sb.String()
}
