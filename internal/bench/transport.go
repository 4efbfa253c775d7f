package bench

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rococotm/internal/fpga"
	"rococotm/internal/mem"
	"rococotm/internal/rococotm"
	"rococotm/internal/stamp"
	"rococotm/internal/tm"
)

// TransportBenchConfig parameterizes the validation-transport A/B: the
// same workloads over the legacy per-request channel transport (a link: the
// engine's loop goroutine answers) and over the ring with the committers
// combining (fpga.Engine.Validate runs the pipeline in the caller).
type TransportBenchConfig struct {
	// Threads is the worker count for the counter microbenchmark;
	// default 4.
	Threads int
	// Duration is the wall-clock length of the counter run per arm;
	// default 300ms.
	Duration time.Duration
	// Addresses is the shared-counter working set; default 16.
	Addresses int
	// RoundTrips is the sample count for the raw engine round-trip
	// measurement; default 30000.
	RoundTrips int
	// App is the STAMP application for the end-to-end row; default ssca2
	// (short transactions — the workload most sensitive to per-validation
	// overhead). Empty string skips the app row.
	App string
	// Scale is the STAMP input scale; default small (keeps `-exp all`
	// fast; the EXPERIMENTS.md table uses medium).
	Scale stamp.Scale
	// AppThreads is the thread count for the app row; default 8.
	AppThreads int
}

func (c *TransportBenchConfig) fill() {
	if c.Threads == 0 {
		c.Threads = 4
	}
	if c.Duration == 0 {
		c.Duration = 300 * time.Millisecond
	}
	if c.Addresses == 0 {
		c.Addresses = 16
	}
	if c.RoundTrips == 0 {
		c.RoundTrips = 30000
	}
	if c.App == "" {
		c.App = "ssca2"
	}
	if c.AppThreads == 0 {
		c.AppThreads = 8
	}
}

// TransportArm is the outcome of one transport under all three workloads.
type TransportArm struct {
	Name      string
	Transport fpga.Transport

	// RoundTripNs is the mean host round trip of a synchronous
	// conflict-heavy Validate (the paper's §6 host-latency quantity).
	RoundTripNs float64

	// Counter microbenchmark.
	Commits      uint64
	Aborts       uint64
	ThroughputK  float64
	AllocsPerTxn float64
	BatchMean    float64
	BatchMax     uint64

	// STAMP app row (per validated transaction, wall clock).
	AppWallUs   float64
	AppCommits  uint64
	AppSpeedS   float64
	AppBatchMax uint64
}

// TransportReport compares the two transports.
type TransportReport struct {
	Threads  int
	Duration time.Duration
	App      string
	Arms     []TransportArm
}

// RunTransportBench runs both arms.
func RunTransportBench(cfg TransportBenchConfig) (*TransportReport, error) {
	cfg.fill()
	rep := &TransportReport{Threads: cfg.Threads, Duration: cfg.Duration, App: cfg.App}
	for _, tr := range []struct {
		name string
		t    fpga.Transport
	}{
		{"channel (legacy)", fpga.TransportChannel},
		{"ring (combining)", fpga.TransportRing},
	} {
		arm := TransportArm{Name: tr.name, Transport: tr.t}
		if err := runRoundTrip(cfg, &arm); err != nil {
			return nil, err
		}
		if err := runCounterMicro(cfg, &arm); err != nil {
			return nil, err
		}
		if cfg.App != "" {
			if err := runTransportApp(cfg, &arm); err != nil {
				return nil, err
			}
		}
		rep.Arms = append(rep.Arms, arm)
	}
	return rep, nil
}

// runRoundTrip measures the raw engine round trip: one committer issuing
// synchronous validations with an always-conflicting footprint (every
// request probes the full history window — the 4.9µs baseline shape).
// The channel arm allocates a reply channel per request and hands off to the
// loop goroutine, reproducing the legacy transport's cost; the ring arm
// validates in the caller on a pooled verdict slot.
func runRoundTrip(cfg TransportBenchConfig, arm *TransportArm) error {
	e, err := fpga.Start(fpga.Config{Transport: arm.Transport})
	if err != nil {
		return err
	}
	defer e.Close()
	reads := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	writes := []uint64{11, 12, 13, 14}
	issue := func(i int) {
		r := fpga.Request{Token: uint64(i), ValidTS: uint64(i), ReadAddrs: reads, WriteAddrs: writes}
		if arm.Transport == fpga.TransportChannel {
			r.Reply = make(chan fpga.Verdict, 1)
		}
		if _, err := e.Validate(r); err != nil {
			panic(err)
		}
	}
	for i := 0; i < 1000; i++ { // warm the window and the slot pool
		issue(i)
	}
	start := time.Now()
	for i := 0; i < cfg.RoundTrips; i++ {
		issue(1000 + i)
	}
	arm.RoundTripNs = float64(time.Since(start).Nanoseconds()) / float64(cfg.RoundTrips)
	return nil
}

// runCounterMicro drives Threads workers of counter RMWs through the full
// runtime and reports throughput, steady-state allocations per committed
// transaction (heap mallocs measured across the run after a warmup), and
// the engine's batch occupancy.
func runCounterMicro(cfg TransportBenchConfig, arm *TransportArm) error {
	h := mem.NewHeap(1 << 12)
	base := h.MustAlloc(cfg.Addresses)
	m := rococotm.New(h, rococotm.Config{
		MaxThreads: cfg.Threads + 1,
		Engine:     fpga.Config{Transport: arm.Transport},
	})
	defer m.Close()

	work := func(th, iters int, stop *atomic.Bool) {
		for i := 0; stop == nil || !stop.Load(); i++ {
			if stop == nil && i >= iters {
				return
			}
			a := base + mem.Addr((th+i)%cfg.Addresses)
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

	// Warm every per-thread scratch structure before measuring.
	var warm sync.WaitGroup
	for th := 0; th < cfg.Threads; th++ {
		warm.Add(1)
		go func(th int) { defer warm.Done(); work(th, 200, nil) }(th)
	}
	warm.Wait()
	before := m.Stats()

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var stopFlag atomic.Bool
	var wg sync.WaitGroup
	for th := 0; th < cfg.Threads; th++ {
		wg.Add(1)
		go func(th int) { defer wg.Done(); work(th, 0, &stopFlag) }(th)
	}
	time.Sleep(cfg.Duration)
	stopFlag.Store(true)
	wg.Wait()
	runtime.ReadMemStats(&ms1)

	st := m.Stats()
	arm.Commits = st.Commits - before.Commits
	arm.Aborts = st.Aborts - before.Aborts
	arm.ThroughputK = float64(arm.Commits) / cfg.Duration.Seconds() / 1e3
	if arm.Commits > 0 {
		arm.AllocsPerTxn = float64(ms1.Mallocs-ms0.Mallocs) / float64(arm.Commits)
	}
	if st.ValidationBatches > 0 {
		// Requests == validations drained; mean occupancy over the whole
		// run (warmup included — occupancy, unlike mallocs, has no
		// warmup transient worth excluding).
		arm.BatchMean = float64(m.Engine().Stats().Requests) / float64(st.ValidationBatches)
	}
	arm.BatchMax = st.ValidationBatchMax
	return nil
}

// runTransportApp runs one STAMP application end to end and reports the
// measured per-validation engine wall time (the Fig. 11 quantity) under
// the arm's transport.
func runTransportApp(cfg TransportBenchConfig, arm *TransportArm) error {
	app, err := NewApp(cfg.App, cfg.Scale)
	if err != nil {
		return err
	}
	var rtm *rococotm.TM
	res, err := stamp.Execute(app, func(h *mem.Heap) tm.TM {
		rtm = rococotm.New(h, rococotm.Config{
			MaxThreads:        cfg.AppThreads + 1,
			MeasureValidation: true,
			Engine:            fpga.Config{Transport: arm.Transport},
		})
		return rtm
	}, cfg.AppThreads)
	if err != nil {
		return err
	}
	es := rtm.Engine().Stats()
	if es.Requests > 0 {
		arm.AppWallUs = float64(res.TM.ValidationNanos) / float64(es.Requests) / 1e3
	}
	arm.AppCommits = res.TM.Commits
	arm.AppSpeedS = res.Wall.Seconds()
	arm.AppBatchMax = es.MaxBatch
	return nil
}

// String renders the comparison table.
func (r *TransportReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Validation transport A/B: channel vs ring, %d threads, %v counter run, app=%s\n",
		r.Threads, r.Duration, r.App)
	fmt.Fprintf(&sb, "%-18s %12s %10s %10s %11s %10s %9s %9s\n",
		"arm", "roundtrip ns", "ktxn/s", "allocs/txn", "batch mean", "batch max", "app µs", "app s")
	for _, a := range r.Arms {
		fmt.Fprintf(&sb, "%-18s %12.0f %10.1f %10.2f %11.2f %10d %9.3f %9.3f\n",
			a.Name, a.RoundTripNs, a.ThroughputK, a.AllocsPerTxn,
			a.BatchMean, a.BatchMax, a.AppWallUs, a.AppSpeedS)
	}
	if len(r.Arms) == 2 && r.Arms[1].RoundTripNs > 0 {
		fmt.Fprintf(&sb, "(round-trip speedup %.2fx; the combining arm runs the pipeline in the committer — no goroutine hand-off — drains up to %d requests per lock acquisition and holds the commit hot path at zero steady-state allocations.\n app µs sums concurrent waiters' wall time)\n",
			r.Arms[0].RoundTripNs/r.Arms[1].RoundTripNs, r.Arms[1].BatchMax)
	}
	return sb.String()
}
