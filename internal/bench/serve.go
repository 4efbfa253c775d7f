package bench

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rococotm/internal/audit"
	"rococotm/internal/mem"
	"rococotm/internal/rococotm"
	"rococotm/internal/serve"
	"rococotm/internal/tm"
	"rococotm/internal/tmds"
)

// This file is the serving/overload experiment (`rococobench -exp serve`):
// a simulated client fleet drives a smallbank mix through the
// internal/serve front end at offered loads from half to twice the
// runtime's calibrated capacity, across fleet sizes up to six figures,
// and the report records goodput, shed fraction and the p50/p99/p999
// sojourn tail per cell. The interesting shape is the saturation knee:
// past 1× capacity an unprotected TM collapses into retry storms, while
// the admission controller holds goodput near peak by converting the
// excess into cheap sheds. The single-engine matrix runs with the
// serializability auditor observing every commit, and each cell's outcome
// accounting identity is certified.

// ServeBenchConfig parameterizes RunServeBench. Zero values take defaults.
type ServeBenchConfig struct {
	// Workers is the number of tm threads the server owns, and so the
	// most requests executing at once. Default 4.
	Workers int
	// Clients are the simulated fleet sizes to sweep. Default
	// {1000, 100000}.
	Clients []int
	// LoadFactors are offered-load multiples of the calibrated capacity.
	// Default {0.5, 1, 1.5, 2}.
	LoadFactors []float64
	// Budget is the per-request deadline. Default 20ms.
	Budget time.Duration
	// Duration is the per-cell measurement window. Default 400ms.
	Duration time.Duration
	// Calibrate is the unthrottled capacity-probe duration. Default 250ms.
	Calibrate time.Duration
	// Accounts sizes the smallbank schema. Default 256.
	Accounts int
	// Seed drives the workload mix. Default 1.
	Seed int64
	// Runtimes selects the validation planes to sweep: "single" (one
	// engine, auditor-observed) and/or "sharded" (two engines). Default
	// both.
	Runtimes []string
}

func (c *ServeBenchConfig) fill() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if len(c.Clients) == 0 {
		c.Clients = []int{1_000, 100_000}
	}
	if len(c.LoadFactors) == 0 {
		c.LoadFactors = []float64{0.5, 1, 1.5, 2}
	}
	if c.Budget <= 0 {
		c.Budget = 20 * time.Millisecond
	}
	if c.Duration <= 0 {
		c.Duration = 400 * time.Millisecond
	}
	if c.Calibrate <= 0 {
		c.Calibrate = 250 * time.Millisecond
	}
	if c.Accounts <= 0 {
		c.Accounts = 256
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Runtimes) == 0 {
		c.Runtimes = []string{"single", "sharded"}
	}
}

// ServeRow is one cell of the sweep.
type ServeRow struct {
	Runtime    string
	Clients    int
	Factor     float64
	OfferedPS  float64 // achieved offered load, requests/s
	GoodputPS  float64 // committed/s
	ShedPct    float64
	ExpiredPct float64
	P50        time.Duration
	P99        time.Duration
	P999       time.Duration
	Tier       int // degradation tier when the window closed
	Knee       bool
}

// ServeReport is the experiment outcome.
type ServeReport struct {
	Config     ServeBenchConfig
	CapacityPS map[string]float64 // runtime → calibrated capacity
	Rows       []ServeRow
	// Errs collects certification failures: accounting identity breaks,
	// auditor violations, conservation drift, pool leaks.
	Errs []error
}

// Err returns the first certification failure, if any.
func (r *ServeReport) Err() error {
	if len(r.Errs) > 0 {
		return r.Errs[0]
	}
	return nil
}

// RunServeBench runs the overload sweep.
func RunServeBench(cfg ServeBenchConfig) (*ServeReport, error) {
	cfg.fill()
	rep := &ServeReport{Config: cfg, CapacityPS: map[string]float64{}}
	for _, rt := range cfg.Runtimes {
		if err := runServeRuntime(cfg, rt, rep); err != nil {
			return nil, err
		}
	}
	markKnees(rep.Rows)
	return rep, nil
}

// serveEnv is one runtime under test plus its workload and certification
// hooks.
type serveEnv struct {
	m       tm.TM
	bank    *tmds.SmallBank
	signals func() serve.Signal
	auditor *audit.Auditor
	// poolCheck reports live (leaked) transactions after quiescence.
	poolCheck func() int
	close     func()
}

func newServeEnv(cfg ServeBenchConfig, runtime string) (*serveEnv, error) {
	heap := mem.NewHeap(1 << 14)
	env := &serveEnv{}
	switch runtime {
	case "single":
		env.auditor = audit.New(audit.Config{})
		m := rococotm.New(heap, rococotm.Config{
			MaxThreads: cfg.Workers + 2,
			Observer:   env.auditor,
		})
		env.m = m
		env.signals = func() serve.Signal {
			st := m.Stats()
			return serve.Signal{
				EngineErrors:  st.Reasons[tm.ReasonEngine],
				WatchdogFires: st.WatchdogFires,
			}
		}
		env.poolCheck = func() int { live, _ := m.PoolCheck(); return live }
		env.close = m.Close
	case "sharded":
		m := rococotm.NewSharded(heap, rococotm.ShardedConfig{
			Shards:     2,
			MaxThreads: cfg.Workers + 2,
			Shard:      rococotm.Config{MaxThreads: cfg.Workers + 2},
		})
		env.m = m
		env.signals = func() serve.Signal {
			return serve.Signal{WatchdogFires: m.Stats().WatchdogFires}
		}
		env.poolCheck = func() int { live, _ := m.PoolCheck(); return live }
		env.close = m.Close
	default:
		return nil, fmt.Errorf("bench: unknown serve runtime %q", runtime)
	}
	bank, err := tmds.NewSmallBank(heap, cfg.Accounts, 10_000)
	if err != nil {
		env.close()
		return nil, err
	}
	env.bank = bank
	return env, nil
}

func runServeRuntime(cfg ServeBenchConfig, runtime string, rep *ServeReport) error {
	env, err := newServeEnv(cfg, runtime)
	if err != nil {
		return err
	}
	defer env.close()

	// Best-of-2 calibration: capacity anchors every cell's offered rate,
	// so a transiently slow probe would mislabel the whole sweep.
	capacity := calibrateServe(cfg, env)
	if c2 := calibrateServe(cfg, env); c2 > capacity {
		capacity = c2
	}
	if capacity <= 0 {
		return fmt.Errorf("bench: serve calibration on %s measured zero capacity", runtime)
	}
	rep.CapacityPS[runtime] = capacity

	// Two full passes over the matrix, merged per cell by best goodput —
	// the regression gate's best-of-N logic, but interleaved so the two
	// attempts of any one cell are separated by a whole pass: transient
	// machine load comes in multi-second windows, and back-to-back
	// attempts would both land inside one. Certification must hold on
	// every attempt, so errors from both passes are kept.
	best := map[[2]int]ServeRow{}
	for attempt := 0; attempt < 2; attempt++ {
		for ci, clients := range cfg.Clients {
			for fi, factor := range cfg.LoadFactors {
				// Collect the previous phase's garbage outside the
				// measurement window: a GC cycle landing mid-cell on a
				// small machine reads as a phantom capacity loss.
				goruntime.GC()
				row, errs := runServeCell(cfg, env, runtime, capacity, clients, factor)
				rep.Errs = append(rep.Errs, errs...)
				k := [2]int{ci, fi}
				if prev, ok := best[k]; !ok || row.GoodputPS > prev.GoodputPS {
					best[k] = row
				}
			}
		}
	}
	for ci := range cfg.Clients {
		for fi := range cfg.LoadFactors {
			rep.Rows = append(rep.Rows, best[[2]int{ci, fi}])
		}
	}

	// Post-sweep certification: workload invariant, history auditor, pool.
	if err := tm.Run(env.m, cfg.Workers+1, env.bank.CheckConservation); err != nil {
		rep.Errs = append(rep.Errs, fmt.Errorf("%s: %w", runtime, err))
	}
	if env.auditor != nil {
		if err := env.auditor.Err(); err != nil {
			rep.Errs = append(rep.Errs, fmt.Errorf("%s auditor: %w", runtime, err))
		}
	}
	if live := env.poolCheck(); live != 0 {
		rep.Errs = append(rep.Errs, fmt.Errorf("%s: %d live txns leaked", runtime, live))
	}
	return nil
}

// calibrateServe measures the runtime's commit capacity through the serve
// front end with admission wide open: closed-loop drivers, long budgets,
// no pacing.
func calibrateServe(cfg ServeBenchConfig, env *serveEnv) float64 {
	s := serve.New(env.m, serve.Config{
		Workers:       cfg.Workers,
		MaxInflight:   64 * cfg.Workers,
		DefaultBudget: time.Minute,
		TargetP99:     time.Minute, // never throttle during calibration
	})
	var stop atomic.Bool
	var wg sync.WaitGroup
	drivers := 2 * cfg.Workers
	rng := rand.New(rand.NewSource(cfg.Seed))
	start := time.Now()
	for d := 0; d < drivers; d++ {
		seed := rng.Int63()
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			drng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				s.Do(smallbankRequest(env.bank, cfg.Accounts, drng, serve.High))
			}
		}(seed)
	}
	time.Sleep(cfg.Calibrate)
	stop.Store(true)
	wg.Wait()
	s.Close()
	elapsed := time.Since(start).Seconds()
	return float64(s.Stats().Committed) / elapsed
}

// smallbankRequest draws one request from the serving mix: mostly Normal
// writes, a read-heavy Batch tail and a latency-critical High slice.
func smallbankRequest(b *tmds.SmallBank, accounts int, rng *rand.Rand, forceClass serve.Class) serve.Request {
	from := rng.Intn(accounts)
	to := rng.Intn(accounts)
	amt := mem.Word(rng.Intn(50) + 1)
	class := forceClass
	if forceClass == serve.Class(-1) {
		switch p := rng.Intn(10); {
		case p == 0:
			class = serve.High
		case p <= 2:
			class = serve.Batch
		default:
			class = serve.Normal
		}
	}
	op := rng.Intn(6)
	if class == serve.Batch || op == 5 {
		// Read-only balance probe: eligible for snapshot demotion.
		return serve.Request{Class: class, ReadOnly: true, Fn: func(x tm.Txn) error {
			_, err := b.Balance(x, from)
			return err
		}}
	}
	return serve.Request{Class: class, Fn: func(x tm.Txn) error {
		switch op {
		case 0:
			return b.DepositChecking(x, from, amt)
		case 1:
			return b.TransactSavings(x, from, amt)
		case 2:
			return b.WriteCheck(x, from, amt)
		case 3:
			return b.SendPayment(x, from, to, amt)
		default:
			return b.Amalgamate(x, from, to)
		}
	}}
}

// anyClass asks smallbankRequest to draw the class from the mix.
const anyClass = serve.Class(-1)

// runServeCell drives one (clients, factor) cell: a fresh server over the
// shared runtime, a paced open-loop arrival process multiplexed over a
// bounded simulator pool (each simulated client has at most one request
// outstanding, fleet-style), and a certified accounting read-out.
func runServeCell(cfg ServeBenchConfig, env *serveEnv, runtime string, capacity float64,
	clients int, factor float64) (ServeRow, []error) {
	// MaxInflight gets the same headroom as calibration: the paced arrival
	// process is bursty at sub-millisecond scale, and a tight inflight cap
	// would shed bursts that the queue could absorb well inside the
	// deadline. Overload protection comes from the deadline-aware wait
	// estimate and the AIMD controller shrinking the limit under real
	// pressure, not from an artificially small static cap.
	s := serve.New(env.m, serve.Config{
		Workers:       cfg.Workers,
		MaxInflight:   64 * cfg.Workers,
		DefaultBudget: cfg.Budget,
		Signals:       env.signals,
	})

	// The fleet: a persistent pool of client simulators bounded well under
	// the six-figure fleet sizes (an idle simulated client costs nothing;
	// only in-flight ones need a goroutine). The pacer hands arrival
	// tokens over an unbuffered channel — a send succeeds only while some
	// simulator is idle, so each simulated client has at most one request
	// outstanding and arrivals that find the whole fleet busy are absorbed
	// by client-side queueing, never offered to the server. Persistent
	// simulators instead of a goroutine per arrival keep the generator's
	// own cost from starving the serve workers at six-figure offered
	// rates.
	// The pool bound approximates an unsaturated fleet: outstanding
	// admitted work is capped by the server's inflight limit, so beyond
	// ~1k simulators a larger fleet differs only in per-client rate —
	// six-figure fleets never self-throttle, which the bounded pool
	// reproduces as long as idle simulators remain available.
	nSim := minInt(clients, 1024)
	arrivals := make(chan struct{})
	var offered atomic.Uint64
	var wg sync.WaitGroup
	rng := rand.New(rand.NewSource(cfg.Seed + int64(clients) + int64(factor*1000)))
	for i := 0; i < nSim; i++ {
		seed := rng.Int63()
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			srng := rand.New(rand.NewSource(seed))
			for range arrivals {
				offered.Add(1)
				s.Do(smallbankRequest(env.bank, cfg.Accounts, srng, anyClass))
			}
		}(seed)
	}
	rate := capacity * factor // target offered load, requests/s

	const tick = 500 * time.Microsecond
	timer := time.NewTicker(tick)
	defer timer.Stop()
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	sent := 0
	for time.Now().Before(deadline) {
		<-timer.C
		// Arrivals due is computed from wall-clock elapsed time, not tick
		// counts: ticker ticks coalesce under load, and counting them
		// would silently under-deliver the offered rate.
		due := int(rate * time.Since(start).Seconds())
		for ; sent < due; sent++ {
			select {
			case arrivals <- struct{}{}:
			default: // whole fleet busy: absorbed client-side
			}
		}
	}
	close(arrivals)
	wg.Wait()
	tier := s.Tier()
	s.Close()
	elapsed := time.Since(start).Seconds()

	st := s.Stats()
	lat := s.Latency()
	row := ServeRow{
		Runtime:   runtime,
		Clients:   clients,
		Factor:    factor,
		OfferedPS: float64(st.Offered) / elapsed,
		GoodputPS: float64(st.Committed) / elapsed,
		P50:       lat.P50(),
		P99:       lat.P99(),
		P999:      lat.P999(),
		Tier:      tier,
	}
	if st.Offered > 0 {
		row.ShedPct = 100 * float64(st.Shed) / float64(st.Offered)
		row.ExpiredPct = 100 * float64(st.Expired) / float64(st.Offered)
	}
	var errs []error
	if err := st.CheckAccounting(); err != nil {
		errs = append(errs, fmt.Errorf("%s c=%d f=%.1f: %w", runtime, clients, factor, err))
	}
	if sent := offered.Load(); st.Offered != sent {
		errs = append(errs, fmt.Errorf("%s c=%d f=%.1f: server saw %d offers, fleet sent %d",
			runtime, clients, factor, st.Offered, sent))
	}
	return row, errs
}

// markKnees flags, per (runtime, clients) group, the lowest load factor
// whose goodput is within 2% of the group's peak — the saturation knee
// the EXPERIMENTS.md table calls out.
func markKnees(rows []ServeRow) {
	type key struct {
		rt string
		c  int
	}
	peak := map[key]float64{}
	for _, r := range rows {
		k := key{r.Runtime, r.Clients}
		if r.GoodputPS > peak[k] {
			peak[k] = r.GoodputPS
		}
	}
	seen := map[key]bool{}
	for i := range rows {
		k := key{rows[i].Runtime, rows[i].Clients}
		if !seen[k] && rows[i].GoodputPS >= 0.98*peak[k] {
			rows[i].Knee = true
			seen[k] = true
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// String renders the sweep table.
func (r *ServeReport) String() string {
	var sb strings.Builder
	sb.WriteString("TM-as-a-service overload sweep (smallbank mix; goodput vs offered load)\n")
	for _, rt := range r.Config.Runtimes {
		if c, ok := r.CapacityPS[rt]; ok {
			fmt.Fprintf(&sb, "  %s calibrated capacity: %.0f txn/s (workers=%d, budget=%v)\n",
				rt, c, r.Config.Workers, r.Config.Budget)
		}
	}
	fmt.Fprintf(&sb, "%-8s %8s %6s %11s %11s %6s %6s %10s %10s %10s %5s\n",
		"runtime", "clients", "load", "offered/s", "goodput/s", "shed%", "exp%", "p50", "p99", "p999", "tier")
	for _, row := range r.Rows {
		knee := ""
		if row.Knee {
			knee = " <- knee"
		}
		fmt.Fprintf(&sb, "%-8s %8d %5.1fx %11.0f %11.0f %5.1f%% %5.1f%% %10v %10v %10v %5d%s\n",
			row.Runtime, row.Clients, row.Factor, row.OfferedPS, row.GoodputPS,
			row.ShedPct, row.ExpiredPct, row.P50, row.P99, row.P999, row.Tier, knee)
	}
	if len(r.Errs) == 0 {
		sb.WriteString("certification: accounting identity, conservation, auditor, pool — all clean\n")
	} else {
		for _, err := range r.Errs {
			fmt.Fprintf(&sb, "CERTIFICATION FAILURE: %v\n", err)
		}
	}
	return sb.String()
}
