package bench

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rococotm/internal/mem"
	"rococotm/internal/rococotm"
	"rococotm/internal/tm"
)

// CommitPhaseConfig parameterizes the commit-pipeline experiment: a
// per-phase latency breakdown of Commit, counter throughput across a thread
// sweep, and the aggregate-ring extension microbenchmark (O(K) per-commit
// folds vs O(log K) segment folds).
type CommitPhaseConfig struct {
	// Threads is the thread sweep; default {1, 2, 4, 8, 16}.
	Threads []int
	// Duration is the wall-clock length of each counter run; default 200ms.
	Duration time.Duration
	// Addresses is the shared-counter working set; default 16.
	Addresses int
	// PhaseThreads is the thread count for the phase-breakdown row;
	// default 8.
	PhaseThreads int
	// Lags is the extension-micro backlog sweep; default {4, 16, 64}.
	Lags []int
	// ExtensionIters is the sample count per extension-micro cell;
	// default 4000.
	ExtensionIters int
}

func (c *CommitPhaseConfig) fill() {
	if len(c.Threads) == 0 {
		c.Threads = []int{1, 2, 4, 8, 16}
	}
	if c.Duration == 0 {
		c.Duration = 200 * time.Millisecond
	}
	if c.Addresses == 0 {
		c.Addresses = 16
	}
	if c.PhaseThreads == 0 {
		c.PhaseThreads = 8
	}
	if len(c.Lags) == 0 {
		c.Lags = []int{4, 16, 64}
	}
	if c.ExtensionIters == 0 {
		c.ExtensionIters = 4000
	}
}

// CommitPhaseRow is one cell of the thread sweep.
type CommitPhaseRow struct {
	Threads      int
	KTxn         float64 // ktxn/s
	PipelinePeak uint64  // high-water concurrent write-backs
}

// PhaseBreakdown is the mean per-commit cost of each pipeline phase.
type PhaseBreakdown struct {
	Threads                                               int
	Commits                                               uint64
	ExtendNs, ValidateNs, AwaitNs, PublishNs, WritebackNs float64
}

// ExtensionCell is one lag point of the aggregate-ring micro.
type ExtensionCell struct {
	Lag       int     // commits folded per extension
	PerCommit float64 // ns/extension, MaxAggLevel disabled (O(K) folds)
	Aggregate float64 // ns/extension, aggregate ring on (O(log K) folds)
}

// CommitPhaseReport is the full experiment outcome.
type CommitPhaseReport struct {
	Duration time.Duration
	Phases   PhaseBreakdown
	Sweep    []CommitPhaseRow
	Extend   []ExtensionCell
}

// RunCommitPhase runs the three parts of the experiment.
func RunCommitPhase(cfg CommitPhaseConfig) (*CommitPhaseReport, error) {
	cfg.fill()
	rep := &CommitPhaseReport{Duration: cfg.Duration}
	if err := runPhaseBreakdown(cfg, rep); err != nil {
		return nil, err
	}
	for _, th := range cfg.Threads {
		k, peak, err := runPipelineCounter(cfg, th)
		if err != nil {
			return nil, err
		}
		rep.Sweep = append(rep.Sweep, CommitPhaseRow{Threads: th, KTxn: k, PipelinePeak: peak})
	}
	for _, lag := range cfg.Lags {
		cell := ExtensionCell{Lag: lag}
		for _, agg := range []bool{false, true} {
			ns, err := runExtensionMicro(cfg, lag, agg)
			if err != nil {
				return nil, err
			}
			if agg {
				cell.Aggregate = ns
			} else {
				cell.PerCommit = ns
			}
		}
		rep.Extend = append(rep.Extend, cell)
	}
	return rep, nil
}

// runPhaseBreakdown runs the counter workload with MeasurePhases on and
// reports mean ns/commit of each phase.
func runPhaseBreakdown(cfg CommitPhaseConfig, rep *CommitPhaseReport) error {
	h := mem.NewHeap(1 << 12)
	base := h.MustAlloc(cfg.Addresses)
	m := rococotm.New(h, rococotm.Config{
		MaxThreads:    cfg.PhaseThreads + 1,
		MeasurePhases: true,
	})
	defer m.Close()
	commits, _, err := counterRun(m, base, cfg.PhaseThreads, cfg.Addresses, cfg.Duration)
	if err != nil {
		return err
	}
	st := m.Stats()
	b := PhaseBreakdown{Threads: cfg.PhaseThreads, Commits: commits}
	if n := float64(st.Commits - st.ReadOnly); n > 0 {
		b.ExtendNs = float64(st.CommitExtendNanos) / n
		b.ValidateNs = float64(st.ValidationNanos) / n
		b.AwaitNs = float64(st.CommitAwaitNanos) / n
		b.PublishNs = float64(st.CommitPublishNanos) / n
		b.WritebackNs = float64(st.CommitWritebackNanos) / n
	}
	rep.Phases = b
	return nil
}

// runPipelineCounter runs one sweep cell of the counter workload.
func runPipelineCounter(cfg CommitPhaseConfig, threads int) (ktxn float64, peak uint64, err error) {
	h := mem.NewHeap(1 << 12)
	base := h.MustAlloc(cfg.Addresses)
	m := rococotm.New(h, rococotm.Config{MaxThreads: threads + 1})
	defer m.Close()
	commits, st, err := counterRun(m, base, threads, cfg.Addresses, cfg.Duration)
	if err != nil {
		return 0, 0, err
	}
	return float64(commits) / cfg.Duration.Seconds() / 1e3, st.CommitPipelinePeak, nil
}

// counterRun drives the standard counter-RMW workload (with warmup) and
// returns the measured-window commit count and final stats.
func counterRun(m *rococotm.TM, base mem.Addr, threads, addrs int, d time.Duration) (uint64, tm.Stats, error) {
	work := func(th, iters int, stop *atomic.Bool) {
		for i := 0; stop == nil || !stop.Load(); i++ {
			if stop == nil && i >= iters {
				return
			}
			a := base + mem.Addr((th+i)%addrs)
			err := tm.Run(m, th, func(x tm.Txn) error {
				v, err := x.Read(a)
				if err != nil {
					return err
				}
				return x.Write(a, v+1)
			})
			if err != nil {
				panic(err)
			}
		}
	}
	var warm sync.WaitGroup
	for th := 0; th < threads; th++ {
		warm.Add(1)
		go func(th int) { defer warm.Done(); work(th, 200, nil) }(th)
	}
	warm.Wait()
	before := m.Stats()
	var stopFlag atomic.Bool
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) { defer wg.Done(); work(th, 0, &stopFlag) }(th)
	}
	time.Sleep(d)
	stopFlag.Store(true)
	wg.Wait()
	st := m.Stats()
	return st.Commits - before.Commits, st, nil
}

// runExtensionMicro measures one snapshot extension over a backlog of lag
// commits: a reader pins its snapshot, lag disjoint commits land (untimed),
// and only the reader's next read — the one that folds the whole backlog —
// is timed. Per commit when the aggregate ring is disabled, by aligned
// segments when enabled.
func runExtensionMicro(cfg CommitPhaseConfig, lag int, aggregate bool) (float64, error) {
	maxAgg := -1
	if aggregate {
		maxAgg = 0 // default levels
	}
	h := mem.NewHeap(1 << 14)
	m := rococotm.New(h, rococotm.Config{
		MaxThreads:  2,
		MaxAggLevel: maxAgg,
	})
	defer m.Close()
	base := h.MustAlloc(lag + 2)

	iter := func(timed bool) (time.Duration, error) {
		rd, err := m.Begin(0)
		if err != nil {
			return 0, err
		}
		if _, err := rd.Read(base); err != nil {
			return 0, err
		}
		for i := 0; i < lag; i++ {
			if err := tm.Run(m, 1, func(x tm.Txn) error {
				return x.Write(base+mem.Addr(1+i), 1)
			}); err != nil {
				return 0, err
			}
		}
		// This read triggers the extension fold over the lag backlog.
		var d time.Duration
		if timed {
			start := time.Now()
			_, err = rd.Read(base + mem.Addr(lag) + 1)
			d = time.Since(start)
		} else {
			_, err = rd.Read(base + mem.Addr(lag) + 1)
		}
		if err != nil {
			return 0, err
		}
		m.Abort(rd)
		return d, nil
	}
	for i := 0; i < 200; i++ { // warmup
		if _, err := iter(false); err != nil {
			return 0, err
		}
	}
	iters := cfg.ExtensionIters
	if lag >= 32 {
		iters /= 4 // keep the big-backlog cells bounded
	}
	var total time.Duration
	for i := 0; i < iters; i++ {
		d, err := iter(true)
		if err != nil {
			return 0, err
		}
		total += d
	}
	return float64(total.Nanoseconds()) / float64(iters), nil
}

// String renders the report.
func (r *CommitPhaseReport) String() string {
	var sb strings.Builder
	p := r.Phases
	fmt.Fprintf(&sb, "Commit pipeline: phase breakdown at %d threads (%d commits, mean ns/commit)\n", p.Threads, p.Commits)
	fmt.Fprintf(&sb, "%-12s %10s %10s %10s %10s %10s\n", "", "extend", "validate", "await", "publish", "writeback")
	fmt.Fprintf(&sb, "%-12s %10.0f %10.0f %10.0f %10.0f %10.0f\n", "ns/commit", p.ExtendNs, p.ValidateNs, p.AwaitNs, p.PublishNs, p.WritebackNs)
	fmt.Fprintf(&sb, "\nCounter RMW throughput by goroutine count (%v per cell)\n", r.Duration)
	fmt.Fprintf(&sb, "%8s %10s %9s\n", "threads", "k/s", "wb peak")
	for _, row := range r.Sweep {
		fmt.Fprintf(&sb, "%8d %10.1f %9d\n", row.Threads, row.KTxn, row.PipelinePeak)
	}
	fmt.Fprintf(&sb, "\nSnapshot-extension micro: fold a K-commit backlog (ns per extension)\n")
	fmt.Fprintf(&sb, "%8s %14s %14s %9s\n", "K", "per-commit", "aggregate", "speedup")
	for _, c := range r.Extend {
		speed := 0.0
		if c.Aggregate > 0 {
			speed = c.PerCommit / c.Aggregate
		}
		fmt.Fprintf(&sb, "%8d %14.0f %14.0f %8.2fx\n", c.Lag, c.PerCommit, c.Aggregate, speed)
	}
	sb.WriteString("(aggregate folds decompose the backlog into aligned power-of-two segments: cost grows ~log K instead of ~K)\n")
	return sb.String()
}
