package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"rococotm/internal/fpga"
	"rococotm/internal/mem"
	"rococotm/internal/mvstore"
	"rococotm/internal/serve"
	"rococotm/internal/stamp"
	"rococotm/internal/tm"
	"rococotm/internal/wal"
)

// sampleEvery is the latency and span sampling rate: 1 transaction in 64
// pays for a clock pair, so timing costs under 1 % of a round.
const sampleEvery = 64

// requestBudget is serve's DefaultBudget for the full stack: the deadline of
// every request, and (at 4/5 of it) the p99 the AIMD controller defends. At
// the 50 ms default one stall of a shared vCPU expires a request or halves
// the concurrency limit under two closed-loop clients, which then see tens of
// thousands of sheds; every one is a failed operation. A slow program shows
// in the latency metrics instead.
const requestBudget = time.Second

// roundSpec selects one round. A round is one fresh process (see runChild);
// tests call runRound in-process.
type roundSpec struct {
	Workload string
	Seed     uint64
	Round    int
	Procs    int // GOMAXPROCS for the round; every gated number uses 1
	Workers  int // closed-loop worker goroutines
	WindowMS int // measured window; ignored when Ops > 0
	Ops      int // per-worker measured op count, run as four quarters (tests)
	Warmup   int // per-worker warm-up op count; < 0 selects the workload's
	Traced   bool
	TraceOut string // span dump (traced rounds), optional
}

// quarter is the cumulative state after one quarter of a counted round.
type quarter struct {
	Ops             [numOps]uint64
	Commits, RO     uint64
	Reads, ProxyTxn uint64
}

// roundResult is everything a round measured, raw; the parent aggregates.
type roundResult struct {
	SetupS      float64
	PopulateMS  float64
	ConstructMS float64
	WarmupMS    float64
	WindowS     float64

	Ops       [numOps]uint64 // operations that returned success, per kind
	Attempted uint64         // operations issued in the window, plus one for the oracle
	Failed    uint64         // operations that returned an error, plus one if the oracle is violated
	FirstErr  string
	OracleErr string

	UpdateNS []int32 // sampled latencies, 1 in 64
	RoNS     []int32

	TM       tm.Stats      // window deltas
	Engine   fpga.Stats    // window deltas; peaks are cumulative
	Serve    serve.Stats   // whole round, warm-up included
	WAL      wal.Stats     // window deltas
	Store    mvstore.Stats // at the end of the window
	Recover  float64       // ms
	StealS   float64       // CPU seconds the hypervisor stole from the guest during the window (all vCPUs)
	Alloc    uint64        // bytes allocated in the window
	GCCycles uint32
	GCPause  uint64 // ns
	Quarters []quarter
	Trace    *traceAgg
}

func (r *roundResult) txns() uint64 {
	var n uint64
	for _, c := range r.Ops {
		n += c
	}
	return n
}

// worker is one closed-loop client: it issues its next operation only when
// the previous one returned.
type worker struct {
	id  int
	w   *world
	gen generator
	cur op
	fn  [numOps]func(tm.Txn) error // prebuilt bodies: issuing an op allocates nothing

	// results of the last index attempt
	hit bool
	val mem.Word

	measuring bool
	ops       [numOps]uint64
	attempted uint64
	failed    uint64
	firstErr  error
	update    []int32
	ro        []int32
	do        recorder // serve.do spans (traced full stack)
	// Traced direct rounds record spans for every second timed transaction;
	// the others are timed only. The difference of the two means is what
	// recording costs where it happens (see insitu).
	timedN         uint64
	recNS, plainNS int64
	recN, plainN   int64
	epoch          time.Time
	end            time.Time
}

func newWorker(id int, w *world, spec roundSpec) *worker {
	k := &worker{id: id, w: w, epoch: time.Now()}
	k.gen = generator{
		rng:      stamp.NewRNG(streamSeed(spec.Seed, spec.Workload, spec.Round, id)),
		accounts: w.wl.accounts,
		worker:   id,
	}
	if w.shadow != nil {
		k.gen.shadow = w.shadow[id]
	}
	k.update = make([]int32, 0, 1<<16)
	k.ro = make([]int32, 0, 1<<16)
	k.fn[opPayment] = func(t tm.Txn) error { return w.bank.SendPayment(t, k.cur.a, k.cur.b, 1) }
	k.fn[opBalance] = func(t tm.Txn) error { _, err := w.bank.Balance(t, k.cur.a); return err }
	k.fn[opInsert] = func(t tm.Txn) (err error) {
		k.hit, err = w.tree.Insert(t, mem.Word(k.cur.a), keyValue(k.cur.a))
		return err
	}
	k.fn[opRemove] = func(t tm.Txn) (err error) {
		k.hit, err = w.tree.Remove(t, mem.Word(k.cur.a))
		return err
	}
	k.fn[opFind] = func(t tm.Txn) (err error) {
		k.val, k.hit, err = w.tree.Find(t, mem.Word(k.cur.a))
		return err
	}
	return k
}

// issue runs one logical operation through the stack under test.
func (k *worker) issue(o op) error {
	w := k.w
	if w.srv != nil {
		out, err := w.srv.Do(serve.Request{Class: serve.Normal, ReadOnly: readOnlyOp[o.kind], Fn: k.fn[o.kind]})
		if out != serve.Committed {
			return fmt.Errorf("serve: %v: %w", out, err)
		}
		return nil
	}
	var err error
	if readOnlyOp[o.kind] {
		err = tm.RunReadOnly(w.m, k.id, k.fn[o.kind])
	} else {
		err = tm.RunSite(w.m, k.id, opSite[o.kind], k.fn[o.kind])
	}
	if err != nil || w.bank != nil {
		return err
	}
	// Index: this worker owns the key, so its shadow set predicts the result.
	in := &w.shadow[k.id][o.a]
	switch o.kind {
	case opInsert:
		if !k.hit || *in {
			return errMismatch
		}
		*in = true
	case opRemove:
		if !k.hit || !*in {
			return errMismatch
		}
		*in = false
	case opFind:
		if k.hit != *in || (k.hit && k.val != keyValue(o.a)) {
			return errMismatch
		}
	}
	return nil
}

// run issues operations until n are done (n > 0) or, with n == 0, until a
// sampled operation ends past deadline: the clock is read on sampled
// operations only.
func (k *worker) run(n int, deadline time.Time) {
	w := k.w
	direct := w.px != nil && w.srv == nil
	until := int64(deadline.Sub(k.epoch))
	for i := 0; n == 0 || i < n; i++ {
		o := k.gen.next()
		k.cur = o
		timed := o.sample && k.measuring
		record := timed && k.timedN&1 == 0
		if direct {
			w.px.openTxn(k.id, record)
		}
		var start int64
		if timed {
			start = int64(time.Since(k.epoch))
		}
		err := k.issue(o)
		if direct {
			w.px.closeTxn(k.id)
		}
		k.attempted++
		if err != nil {
			k.failed++
			if k.firstErr == nil {
				k.firstErr = fmt.Errorf("%s: %w", opNames[o.kind], err)
			}
		} else {
			k.ops[o.kind]++
		}
		if !o.sample {
			continue
		}
		now := int64(time.Since(k.epoch))
		if timed {
			d := now - start
			if d > math.MaxInt32 {
				d = math.MaxInt32
			}
			k.timedN++
			if record {
				k.recNS, k.recN = k.recNS+d, k.recN+1
			} else {
				k.plainNS, k.plainN = k.plainNS+d, k.plainN+1
			}
			if readOnlyOp[o.kind] {
				k.ro = append(k.ro, int32(d))
			} else {
				k.update = append(k.update, int32(d))
			}
			if w.px != nil && w.srv != nil {
				p0 := start + int64(k.epoch.Sub(w.px.epoch))
				k.do.add(span{Txn: uint64(8+k.id)<<48 | k.attempted, Kind: spDo, Parent: -1, Start: p0, End: p0 + d})
			}
		}
		if n == 0 && now >= until {
			break
		}
	}
	k.end = time.Now()
}

// runRound runs one round: allocate, populate, construct, warm up by count,
// measure, stop, check. start is when the process (or the test) entered.
func runRound(spec roundSpec, start time.Time) (*roundResult, error) {
	wl, ok := findWorkload(spec.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	if spec.Procs < 1 || spec.Workers < 1 || spec.Workers >= maxThreads {
		return nil, fmt.Errorf("bad round shape: procs %d workers %d", spec.Procs, spec.Workers)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(spec.Procs))

	w, populated, constructed, err := buildWorld(spec, wl)
	if err != nil {
		return nil, err
	}
	defer w.close()

	workers := make([]*worker, spec.Workers)
	for i := range workers {
		workers[i] = newWorker(i, w, spec)
	}
	all := func(n int, deadline time.Time) {
		var wg sync.WaitGroup
		for _, k := range workers {
			wg.Add(1)
			go func(k *worker) {
				defer wg.Done()
				k.run(n, deadline)
			}(k)
		}
		wg.Wait()
	}

	warm := wl.warmup
	if spec.Warmup >= 0 {
		warm = spec.Warmup
	}
	if warm > 0 {
		all(warm, time.Time{})
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	tm0, eng0 := w.inner.Stats(), w.slow.Engine().Stats()
	ds0, _ := w.slow.DurableStats()
	var px0 proxyCounts
	if w.px != nil {
		px0 = w.px.counts()
	}
	for _, k := range workers {
		k.measuring = true
		k.ops, k.attempted, k.failed, k.firstErr = [numOps]uint64{}, 0, 0, nil
	}

	res := &roundResult{}
	steal0 := stolenSeconds()
	begin := time.Now() // set-up ends here: the next thing that runs is the first measured transaction
	if spec.Ops > 0 {
		for q := 0; q < 4; q++ {
			all(spec.Ops/4, time.Time{})
			qs := quarter{}
			for _, k := range workers {
				for i, c := range k.ops {
					qs.Ops[i] += c
				}
			}
			st := w.inner.Stats()
			qs.Commits, qs.RO = st.Commits-tm0.Commits, st.ReadOnly-tm0.ReadOnly
			if w.px != nil {
				c := w.px.counts()
				qs.Reads, qs.ProxyTxn = c.reads-px0.reads, c.commits-px0.commits
			}
			res.Quarters = append(res.Quarters, qs)
		}
	} else {
		all(0, begin.Add(time.Duration(spec.WindowMS)*time.Millisecond))
	}
	end := begin
	for _, k := range workers {
		if k.end.After(end) {
			end = k.end
		}
	}
	res.StealS = stolenSeconds() - steal0
	w.stopServer()

	runtime.ReadMemStats(&ms1)
	res.SetupS = begin.Sub(start).Seconds()
	res.PopulateMS = float64(populated.Sub(start)) / 1e6
	res.ConstructMS = float64(constructed.Sub(populated)) / 1e6
	res.WarmupMS = float64(begin.Sub(constructed)) / 1e6
	res.WindowS = end.Sub(begin).Seconds()
	for _, k := range workers {
		for i, c := range k.ops {
			res.Ops[i] += c
		}
		res.Attempted += k.attempted
		res.Failed += k.failed
		if k.firstErr != nil && res.FirstErr == "" {
			res.FirstErr = k.firstErr.Error()
		}
		res.UpdateNS = append(res.UpdateNS, k.update...)
		res.RoNS = append(res.RoNS, k.ro...)
	}
	res.TM = subStats(w.inner.Stats(), tm0)
	res.Engine = subEngine(w.slow.Engine().Stats(), eng0)
	res.Alloc = ms1.TotalAlloc - ms0.TotalAlloc
	res.GCCycles = ms1.NumGC - ms0.NumGC
	res.GCPause = ms1.PauseTotalNs - ms0.PauseTotalNs
	if w.srv != nil {
		res.Serve = w.srv.Stats()
	}
	if ds, ok := w.slow.DurableStats(); ok {
		res.WAL, res.Store = ds.WAL, ds.Store
		res.WAL.Appends -= ds0.WAL.Appends
		res.WAL.Flushes -= ds0.WAL.Flushes
		res.WAL.Bytes -= ds0.WAL.Bytes
	}
	if w.px != nil {
		logs := make([][]span, 0, maxThreads+len(workers))
		for i := range w.px.th {
			logs = append(logs, w.px.th[i].spans)
		}
		for _, k := range workers {
			logs = append(logs, k.do.spans)
		}
		clk, pair := w.px.calibrate()
		agg := aggregate(clk, pair, logs...)
		if w.srv == nil {
			clk, pair = insitu(workers, agg, clk, pair)
			agg = aggregate(clk, pair, logs...)
		}
		c := w.px.counts()
		agg.Reads, agg.Writes, agg.Commits = c.reads-px0.reads, c.writes-px0.writes, c.commits-px0.commits
		res.Trace = &agg
		if spec.TraceOut != "" {
			if err := writeSpans(spec.TraceOut, w.inner.Name(), logs...); err != nil {
				return nil, err
			}
		}
	}

	// The oracle is one more attempted operation; a violation fails it.
	res.Attempted++
	res.Recover, err = w.oracle(spec)
	if err != nil {
		res.Failed++
		res.OracleErr = err.Error()
	}
	return res, nil
}

// stolenSeconds reads the guest's cumulative steal time (Linux /proc/stat,
// USER_HZ = 100); 0 where the host does not report it. It is host evidence
// beside the numbers: a round measured while the hypervisor ran someone else
// is slow for a reason the program does not control.
func stolenSeconds() float64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// insitu replaces the hot-loop calibration of the recording cost by what
// the round itself shows: recorded transactions are longer than the timed
// but unrecorded ones by the cost of their child spans, in place, with cold
// caches. The clock share of it scales with the hot-loop ratio.
func insitu(workers []*worker, agg traceAgg, clk, pair int64) (int64, int64) {
	var recNS, plainNS, recN, plainN int64
	for _, k := range workers {
		recNS, recN = recNS+k.recNS, recN+k.recN
		plainNS, plainN = plainNS+k.plainNS, plainN+k.plainN
	}
	children := agg.Begin.N + agg.Read.N + agg.Write.N + agg.CommitUpd.N + agg.CommitRO.N + agg.Abort.N
	if recN < 100 || plainN < 100 || children == 0 {
		return clk, pair
	}
	extra := float64(recNS)/float64(recN) - float64(plainNS)/float64(plainN)
	est := int64(extra * float64(agg.Txns) / float64(children))
	if est <= pair {
		return clk, pair // the hot-loop cost is a floor
	}
	return clk * est / pair, est
}

func subStats(a, b tm.Stats) tm.Stats {
	a.Starts -= b.Starts
	a.Commits -= b.Commits
	a.Aborts -= b.Aborts
	a.ReadOnly -= b.ReadOnly
	for k := range a.Reasons {
		a.Reasons[k] -= b.Reasons[k]
	}
	a.ValidationNanos -= b.ValidationNanos
	a.ModelValidationNanos -= b.ModelValidationNanos
	a.CommitExtendNanos -= b.CommitExtendNanos
	a.CommitAwaitNanos -= b.CommitAwaitNanos
	a.CommitPublishNanos -= b.CommitPublishNanos
	a.CommitWritebackNanos -= b.CommitWritebackNanos
	a.FastCommits -= b.FastCommits
	a.FastAborts -= b.FastAborts
	a.SlowFallbacks -= b.SlowFallbacks
	a.Probations -= b.Probations
	return a
}

func subEngine(a, b fpga.Stats) fpga.Stats {
	a.Requests -= b.Requests
	a.Commits -= b.Commits
	a.CycleAborts -= b.CycleAborts
	a.WindowAborts -= b.WindowAborts
	a.Probes -= b.Probes
	a.ModelCycles -= b.ModelCycles
	a.Batches -= b.Batches
	return a
}
