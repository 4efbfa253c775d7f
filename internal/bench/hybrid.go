package bench

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rococotm/internal/hybrid"
	"rococotm/internal/mem"
	"rococotm/internal/rococotm"
	"rococotm/internal/tm"
)

// This file is the hybrid-runtime crossover experiment: where does the
// uninstrumented fast path beat the engine-validated slow path, and how
// gracefully does it lose when contention makes fast attempts futile? The
// grid sweeps transaction size against contention level and runs each
// cell twice — engine-only (the hybrid's own slow runtime driven
// directly, so both arms share the line-table configuration) and
// adaptive hybrid — reporting throughput, the crossover ratio, and the
// fraction of commits the router kept on the fast path.

// HybridBenchConfig parameterizes the crossover grid.
type HybridBenchConfig struct {
	// Threads is the worker count per cell; default 4.
	Threads int
	// Duration is the measured wall-clock window per cell; default 150ms.
	Duration time.Duration
	// Sizes is the read-modify-write ops per transaction; default {1, 4, 16}.
	Sizes []int
	// HotLines is the contention sweep: the number of cache lines all
	// threads share, or 0 for per-thread disjoint working sets (no
	// conflicts); default {0, 64, 2}.
	HotLines []int
}

func (c *HybridBenchConfig) fill() {
	if c.Threads == 0 {
		c.Threads = 4
	}
	if c.Duration == 0 {
		c.Duration = 150 * time.Millisecond
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{1, 4, 16}
	}
	if c.HotLines == nil {
		c.HotLines = []int{0, 64, 2}
	}
}

// HybridBenchRow is one grid cell.
type HybridBenchRow struct {
	Size     int
	HotLines int     // 0: disjoint per-thread sets
	EngineK  float64 // ktxn/s, engine-validated path only
	HybridK  float64 // ktxn/s, adaptive hybrid
	FastFrac float64 // fraction of hybrid commits that went fast
}

// HybridBenchReport is the experiment outcome.
type HybridBenchReport struct {
	Threads  int
	Duration time.Duration
	Rows     []HybridBenchRow
}

// RunHybridBench runs the crossover grid.
func RunHybridBench(cfg HybridBenchConfig) (*HybridBenchReport, error) {
	cfg.fill()
	rep := &HybridBenchReport{Threads: cfg.Threads, Duration: cfg.Duration}
	for _, hot := range cfg.HotLines {
		for _, size := range cfg.Sizes {
			row := HybridBenchRow{Size: size, HotLines: hot}
			ek, _, err := runHybridCell(cfg, size, hot, false)
			if err != nil {
				return nil, err
			}
			hk, fastFrac, err := runHybridCell(cfg, size, hot, true)
			if err != nil {
				return nil, err
			}
			row.EngineK, row.HybridK, row.FastFrac = ek, hk, fastFrac
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep, nil
}

// runHybridCell measures one cell. Both arms run on a hybrid runtime so
// the line table (and its write-back cost) is identical; the engine-only
// arm drives the inner slow runtime directly, which is exactly the
// pre-hybrid commit path.
func runHybridCell(cfg HybridBenchConfig, size, hot int, adaptive bool) (ktxn, fastFrac float64, err error) {
	const stripeLines = 64 // per-thread working set in the disjoint cells
	heap := mem.NewHeap(1 << 14)
	lines := hot
	if lines == 0 {
		lines = cfg.Threads * stripeLines
	}
	base := heap.MustAlloc(lines << mem.LineShift)
	h := hybrid.New(heap, hybrid.Config{Slow: rococotm.Config{MaxThreads: cfg.Threads + 1}})
	defer h.Close()
	var m tm.TM = h
	if !adaptive {
		m = h.Slow()
	}

	// Word address for the x-th op of thread th: one word per line, from
	// either the shared hot set or the thread's disjoint stripe.
	addrOf := func(th int, x uint64) mem.Addr {
		var line uint64
		if hot == 0 {
			line = uint64(th*stripeLines) + x%stripeLines
		} else {
			line = x % uint64(hot)
		}
		return base + mem.Addr(line<<mem.LineShift)
	}

	work := func(th, iters int, stop *atomic.Bool) {
		// Cheap per-thread xorshift keeps address choice off the allocator
		// and out of the timed path's cache footprint.
		rng := uint64(th)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return rng
		}
		for i := 0; stop == nil || !stop.Load(); i++ {
			if stop == nil && i >= iters {
				return
			}
			err := tm.RunBackoff(m, th, tm.DefaultBackoff, func(x tm.Txn) error {
				for j := 0; j < size; j++ {
					a := addrOf(th, next())
					v, err := x.Read(a)
					if err != nil {
						return err
					}
					if err := x.Write(a, v+1); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				panic(err)
			}
		}
	}
	var warm sync.WaitGroup
	for th := 0; th < cfg.Threads; th++ {
		warm.Add(1)
		go func(th int) { defer warm.Done(); work(th, 200, nil) }(th)
	}
	warm.Wait()
	before := m.Stats()
	var stopFlag atomic.Bool
	var wg sync.WaitGroup
	for th := 0; th < cfg.Threads; th++ {
		wg.Add(1)
		go func(th int) { defer wg.Done(); work(th, 0, &stopFlag) }(th)
	}
	time.Sleep(cfg.Duration)
	stopFlag.Store(true)
	wg.Wait()
	st := m.Stats()
	commits := st.Commits - before.Commits
	ktxn = float64(commits) / cfg.Duration.Seconds() / 1e3
	if adaptive && commits > 0 {
		fastFrac = float64(st.FastCommits-before.FastCommits) / float64(commits)
	}
	return ktxn, fastFrac, nil
}

// String renders the crossover grid.
func (r *HybridBenchReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Hybrid crossover grid: engine-only vs adaptive hybrid (%d threads, %v per cell)\n",
		r.Threads, r.Duration)
	fmt.Fprintf(&sb, "%-12s %6s %12s %12s %9s %7s\n",
		"contention", "ops", "engine k/s", "hybrid k/s", "ratio", "fast%")
	for _, row := range r.Rows {
		cont := "disjoint"
		if row.HotLines > 0 {
			cont = fmt.Sprintf("%d lines", row.HotLines)
		}
		ratio := 0.0
		if row.EngineK > 0 {
			ratio = row.HybridK / row.EngineK
		}
		fmt.Fprintf(&sb, "%-12s %6d %12.1f %12.1f %8.2fx %6.1f%%\n",
			cont, row.Size, row.EngineK, row.HybridK, ratio, row.FastFrac*100)
	}
	sb.WriteString("(ratio > 1: the fast path wins; the router's job is keeping the contended cells near 1)\n")
	return sb.String()
}
