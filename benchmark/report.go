package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
)

// metricDef names one reported number. BENCHMARK.json lists the same names;
// a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"txn_per_s", "1/s", "higher", 0.25},
	{"update_p50_us", "us", "lower", 0.25},
	{"ro_p50_us", "us", "lower", 0.25},
}

// perLayer is the per-layer list, in the order of the README's interaction
// table. A metric that does not apply to a workload (hybrid.* on the engine
// workloads, serve.* outside bank-full) reads 0 there.
var perLayer = []metricDef{
	{"tm.attempts_per_commit", "x", "lower", 0},
	{"tm.abort_share.cycle", "share", "lower", 0},
	{"tm.abort_share.conflict", "share", "lower", 0},
	{"tm.abort_share.window", "share", "lower", 0},
	{"tm.abort_share.other", "share", "lower", 0},
	{"tm.backoff_ns_per_txn", "ns", "lower", 0},
	{"tm.run_self_ns", "ns", "lower", 0},
	{"rococotm.begin_ns", "ns", "lower", 0},
	{"rococotm.read_ns", "ns", "lower", 0},
	{"rococotm.write_ns", "ns", "lower", 0},
	{"rococotm.commit_update_ns", "ns", "lower", 0},
	{"rococotm.commit_ro_ns", "ns", "lower", 0},
	{"rococotm.abort_ns", "ns", "lower", 0},
	{"rococotm.phase.extend_ns", "ns", "lower", 0},
	{"rococotm.phase.validate_ns", "ns", "lower", 0},
	{"rococotm.phase.await_ns", "ns", "lower", 0},
	{"rococotm.phase.publish_ns", "ns", "lower", 0},
	{"rococotm.phase.writeback_ns", "ns", "lower", 0},
	{"rococotm.read_overhead_x", "x", "lower", 0},
	{"fpga.process_ns.small", "ns", "lower", 0},
	{"fpga.process_ns.large", "ns", "lower", 0},
	{"fpga.roundtrip_ns", "ns", "lower", 0},
	{"fpga.handoff_ns", "ns", "lower", 0},
	{"fpga.batch_mean", "count", "higher", 0},
	{"fpga.queue_peak", "count", "lower", 0},
	{"fpga.model_validation_ns", "ns", "lower", 0},
	{"core.window_validate_ns", "ns", "lower", 0},
	{"sig.insert_ns", "ns", "lower", 0},
	{"sig.intersects_ns", "ns", "lower", 0},
	{"mem.heap_load_ns", "ns", "lower", 0},
	{"hybrid.begin_ns", "ns", "lower", 0},
	{"hybrid.read_ns", "ns", "lower", 0},
	{"hybrid.write_ns", "ns", "lower", 0},
	{"hybrid.commit_update_ns", "ns", "lower", 0},
	{"hybrid.commit_ro_ns", "ns", "lower", 0},
	{"hybrid.fast_share", "share", "higher", 0},
	{"hybrid.fast_abort_share", "share", "lower", 0},
	{"hybrid.slow_fallbacks", "count", "lower", 0},
	{"hybrid.probations", "count", "lower", 0},
	{"serve.do_ns", "ns", "lower", 0},
	{"serve.overhead_ns", "ns", "lower", 0},
	{"serve.noop_do_ns", "ns", "lower", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.expired", "count", "lower", 0},
	{"serve.aborted_final", "count", "lower", 0},
	{"serve.retries", "count", "lower", 0},
	{"serve.limit_final", "count", "higher", 0},
	{"serve.tier_final", "count", "lower", 0},
	{"wal.append_ns", "ns", "lower", 0},
	{"wal.bytes_per_commit", "B", "lower", 0},
	{"wal.records_per_flush", "count", "higher", 0},
	{"wal.flush_count", "count", "lower", 0},
	{"wal.recover_ms", "ms", "lower", 0},
	{"wal.file_sync_us", "us", "lower", 0},
	{"mvstore.apply_ns", "ns", "lower", 0},
	{"mvstore.snapshot_read_ns", "ns", "lower", 0},
	{"mvstore.versions_live", "count", "lower", 0},
	{"tmds.reads_per_txn", "count", "lower", 0},
	{"tmds.writes_per_txn", "count", "lower", 0},
	{"go.alloc_bytes_per_txn", "B", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"go.gc_pause_ms", "ms", "lower", 0},
	{"setup.populate_ms", "ms", "lower", 0},
	{"setup.construct_ms", "ms", "lower", 0},
	{"setup.warmup_ms", "ms", "lower", 0},
	{"tail.update_p90_us", "us", "lower", 0},
	{"tail.ro_p90_us", "us", "lower", 0},
	{"tail.update_p99_us", "us", "lower", 0},
	{"tail.update_p999_us", "us", "lower", 0},
	{"tail.ro_p99_us", "us", "lower", 0},
	{"par.txn_per_s", "1/s", "higher", 0},
	{"par.txn_per_s_iqr", "1/s", "lower", 0},
	{"par.speedup", "x", "higher", 0},
	{"par.abort_share", "share", "lower", 0},
	{"par.oracle_violations", "count", "lower", 0},
	{"trace.overhead_share", "share", "lower", 0},
	{"trace.closure_ratio", "x", "higher", 0},
	{"host.steal_share", "share", "lower", 0},
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// iqr is the distance between the first and third quartile (linear
// interpolation between order statistics).
func iqr(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.75) - at(0.25)
}

// quantileNS is the q-quantile of sorted integer-nanosecond samples, in ns.
// The clock reads whole nanoseconds, so many samples tie; the estimate
// interpolates inside the 1 ns bin that holds the rank (the grouped-data
// quantile), which moves continuously with the distribution instead of
// jumping between integers.
func quantileNS(sorted []int32, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	i := int(rank)
	if i >= n {
		i = n - 1
	}
	v := sorted[i]
	lo := sort.Search(n, func(j int) bool { return sorted[j] >= v })
	hi := sort.Search(n, func(j int) bool { return sorted[j] > v })
	return float64(v) - 0.5 + (rank-float64(lo))/float64(hi-lo)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// set is the rounds of one workload in one configuration.
type set []*roundResult

func (s set) each(f func(*roundResult) float64) []float64 {
	out := make([]float64, len(s))
	for i, r := range s {
		out[i] = f(r)
	}
	return out
}

func (s set) txnPerS() []float64 {
	return s.each(func(r *roundResult) float64 { return ratio(float64(r.txns()), r.WindowS) })
}

// pooled returns the latency samples of every round, sorted.
func (s set) pooled() (update, ro []int32) {
	for _, r := range s {
		update = append(update, r.UpdateNS...)
		ro = append(ro, r.RoNS...)
	}
	sort.Slice(update, func(i, j int) bool { return update[i] < update[j] })
	sort.Slice(ro, func(i, j int) bool { return ro[i] < ro[j] })
	return update, ro
}

func (s set) sum(f func(*roundResult) float64) float64 {
	var t float64
	for _, r := range s {
		t += f(r)
	}
	return t
}

// summary is the end-to-end view of one workload.
type summary struct {
	values            map[string]float64
	attempted, failed uint64
	samplesUpd        int
	samplesRO         int
	firstErr          string
}

// percentileUS is the median over the rounds of each round's q-quantile, in
// microseconds. Pooling the samples of all rounds would let one disturbed
// round (the host slows for seconds at a time) move the tail of the pool.
func (s set) percentileUS(q float64, samples func(*roundResult) []int32) float64 {
	return median(s.each(func(r *roundResult) float64 {
		v := append([]int32(nil), samples(r)...)
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		return quantileNS(v, q) / 1e3
	}))
}

func updateSamples(r *roundResult) []int32 { return r.UpdateNS }
func roSamples(r *roundResult) []int32     { return r.RoNS }

// summarize computes the end-to-end metrics, each the median over the rounds
// of the round's own value.
func summarize(s set) summary {
	sum := summary{values: map[string]float64{
		"setup_s":       median(s.each(func(r *roundResult) float64 { return r.SetupS })),
		"txn_per_s":     median(s.txnPerS()),
		"update_p50_us": s.percentileUS(0.50, updateSamples),
		"ro_p50_us":     s.percentileUS(0.50, roSamples),
	}}
	for _, r := range s {
		sum.samplesUpd += len(r.UpdateNS)
		sum.samplesRO += len(r.RoNS)
	}
	for _, r := range s {
		sum.attempted += r.Attempted
		sum.failed += r.Failed
		for _, e := range []string{r.OracleErr, r.FirstErr} {
			if e != "" && sum.firstErr == "" {
				sum.firstErr = e
			}
		}
	}
	return sum
}

// parRound is one diagnostic round at GOMAXPROCS=NumCPU. A round that
// crashed or hung has no result and counts as an oracle violation: on an
// unsound runtime a lost update can corrupt the tree into a cycle.
type parRound struct {
	res *roundResult
	err error
}

// layers computes every per-layer metric of one workload from the
// reference (untraced), traced and parallel rounds and the layer probes.
func layers(wl workload, ref, traced set, par []parRound, probes map[string]float64) map[string]float64 {
	m := map[string]float64{}
	for k, v := range probes {
		m[k] = v
	}

	// Counters, from the untraced rounds.
	var starts, commits, ro, fastC, fastA float64
	reasons := map[string]float64{}
	for _, r := range ref {
		starts += float64(r.TM.Starts)
		commits += float64(r.TM.Commits)
		ro += float64(r.TM.ReadOnly)
		fastC += float64(r.TM.FastCommits)
		fastA += float64(r.TM.FastAborts)
		for k, v := range r.TM.Reasons {
			reasons[k] += float64(v)
		}
	}
	n := float64(len(ref))
	txns := ref.sum(func(r *roundResult) float64 { return float64(r.txns()) })
	m["tm.attempts_per_commit"] = ratio(starts, commits)
	m["tm.abort_share.cycle"] = ratio(reasons["cycle"], starts)
	m["tm.abort_share.conflict"] = ratio(reasons["conflict"], starts)
	m["tm.abort_share.window"] = ratio(reasons["window"], starts)
	m["tm.abort_share.other"] = ratio(starts-commits-reasons["cycle"]-reasons["conflict"]-reasons["window"], starts)
	m["fpga.batch_mean"] = ratio(ref.sum(func(r *roundResult) float64 { return float64(r.Engine.Requests + r.Engine.Probes) }),
		ref.sum(func(r *roundResult) float64 { return float64(r.Engine.Batches) }))
	for _, r := range ref {
		if q := float64(r.Engine.QueuePeak); q > m["fpga.queue_peak"] {
			m["fpga.queue_peak"] = q
		}
	}
	// Modelled clock (Fig. 10 cost model), not wall time.
	m["fpga.model_validation_ns"] = ratio(ref.sum(func(r *roundResult) float64 { return float64(r.TM.ModelValidationNanos) }),
		ref.sum(func(r *roundResult) float64 { return float64(r.Engine.Requests) }))
	if wl.stack == stackHybrid {
		m["hybrid.fast_share"] = ratio(fastC, commits)
		m["hybrid.fast_abort_share"] = ratio(fastA, fastC+fastA)
		m["hybrid.slow_fallbacks"] = ref.sum(func(r *roundResult) float64 { return float64(r.TM.SlowFallbacks) }) / n
		m["hybrid.probations"] = ref.sum(func(r *roundResult) float64 { return float64(r.TM.Probations) }) / n
	}
	if wl.stack == stackFull && len(ref) > 0 {
		last := ref[len(ref)-1]
		m["serve.shed"] = ref.sum(func(r *roundResult) float64 { return float64(r.Serve.Shed) })
		m["serve.expired"] = ref.sum(func(r *roundResult) float64 { return float64(r.Serve.Expired) })
		m["serve.aborted_final"] = ref.sum(func(r *roundResult) float64 { return float64(r.Serve.AbortedFinal) })
		m["serve.retries"] = ref.sum(func(r *roundResult) float64 { return float64(r.Serve.Retries) })
		m["serve.limit_final"] = float64(last.Serve.Limit)
		m["serve.tier_final"] = float64(last.Serve.Tier)
		appends := ref.sum(func(r *roundResult) float64 { return float64(r.WAL.Appends) })
		flushes := ref.sum(func(r *roundResult) float64 { return float64(r.WAL.Flushes) })
		m["wal.bytes_per_commit"] = ratio(ref.sum(func(r *roundResult) float64 { return float64(r.WAL.Bytes) }), appends)
		m["wal.records_per_flush"] = ratio(appends, flushes)
		m["wal.flush_count"] = flushes / n
		m["wal.recover_ms"] = median(ref.each(func(r *roundResult) float64 { return r.Recover }))
		m["mvstore.versions_live"] = float64(last.Store.Versions)
	}
	m["host.steal_share"] = ratio(ref.sum(func(r *roundResult) float64 { return r.StealS }),
		ref.sum(func(r *roundResult) float64 { return r.WindowS })*float64(runtime.NumCPU()))
	m["go.alloc_bytes_per_txn"] = ratio(ref.sum(func(r *roundResult) float64 { return float64(r.Alloc) }), txns)
	m["go.gc_cycles"] = ref.sum(func(r *roundResult) float64 { return float64(r.GCCycles) }) / n
	m["go.gc_pause_ms"] = ref.sum(func(r *roundResult) float64 { return float64(r.GCPause) }) / n / 1e6
	m["setup.populate_ms"] = median(ref.each(func(r *roundResult) float64 { return r.PopulateMS }))
	m["setup.construct_ms"] = median(ref.each(func(r *roundResult) float64 { return r.ConstructMS }))
	m["setup.warmup_ms"] = median(ref.each(func(r *roundResult) float64 { return r.WarmupMS }))
	m["tail.update_p90_us"] = ref.percentileUS(0.90, updateSamples)
	m["tail.ro_p90_us"] = ref.percentileUS(0.90, roSamples)
	upd, roS := ref.pooled()
	m["tail.update_p99_us"] = quantileNS(upd, 0.99) / 1e3
	m["tail.update_p999_us"] = quantileNS(upd, 0.999) / 1e3
	m["tail.ro_p99_us"] = quantileNS(roS, 0.99) / 1e3

	// Spans, from the traced rounds. Every span is compensated for the
	// measured cost of the clock reads that bracket it (README "Traced run").
	var t traceAgg
	var closure []float64
	for _, r := range traced {
		a := r.Trace
		if a == nil {
			continue
		}
		t.merge(*a)
		root := a.rootMean()
		if wl.stack == stackFull {
			root = a.Do.mean()
		}
		closure = append(closure, ratio(root*float64(r.txns()), workersPerRun*r.WindowS*1e9))
	}
	layer := "rococotm"
	if wl.stack == stackHybrid {
		layer = "hybrid"
	}
	m[layer+".begin_ns"] = t.Begin.mean()
	m[layer+".read_ns"] = t.Read.mean()
	m[layer+".write_ns"] = t.Write.mean()
	m[layer+".commit_update_ns"] = t.CommitUpd.mean()
	m[layer+".commit_ro_ns"] = t.CommitRO.mean()
	m["tm.backoff_ns_per_txn"] = ratio(float64(t.BackoffNS), float64(t.Txns))
	m["tm.run_self_ns"] = ratio(float64(t.SelfNS), float64(t.Txns))
	m["tmds.reads_per_txn"] = ratio(float64(t.Reads), float64(t.Commits))
	m["tmds.writes_per_txn"] = ratio(float64(t.Writes), float64(t.Commits))
	if wl.stack != stackHybrid {
		m["rococotm.abort_ns"] = t.Abort.mean()
		m["rococotm.read_overhead_x"] = ratio(t.Read.mean(), probes["mem.heap_load_ns"])
		// Existing Config.MeasurePhases counters, per update commit.
		upd := traced.sum(func(r *roundResult) float64 { return float64(r.TM.Commits - r.TM.ReadOnly) })
		m["rococotm.phase.extend_ns"] = ratio(traced.sum(func(r *roundResult) float64 { return float64(r.TM.CommitExtendNanos) }), upd)
		m["rococotm.phase.validate_ns"] = ratio(traced.sum(func(r *roundResult) float64 { return float64(r.TM.ValidationNanos) }), upd)
		m["rococotm.phase.await_ns"] = ratio(traced.sum(func(r *roundResult) float64 { return float64(r.TM.CommitAwaitNanos) }), upd)
		m["rococotm.phase.publish_ns"] = ratio(traced.sum(func(r *roundResult) float64 { return float64(r.TM.CommitPublishNanos) }), upd)
		m["rococotm.phase.writeback_ns"] = ratio(traced.sum(func(r *roundResult) float64 { return float64(r.TM.CommitWritebackNanos) }), upd)
	}
	if wl.stack == stackFull {
		m["serve.do_ns"] = t.Do.mean()
		m["serve.overhead_ns"] = t.Do.mean() - t.rootMean()
	}
	refRate := median(ref.txnPerS())
	m["trace.overhead_share"] = 1 - ratio(median(traced.txnPerS()), refRate)
	m["trace.closure_ratio"] = median(closure)

	// Parallel diagnostics, ungated.
	var parOK set
	violations := 0.0
	for _, p := range par {
		if p.err != nil || p.res.OracleErr != "" {
			violations++
		}
		if p.err == nil {
			parOK = append(parOK, p.res)
		}
	}
	rates := parOK.txnPerS()
	m["par.txn_per_s"] = median(rates)
	m["par.txn_per_s_iqr"] = iqr(rates)
	m["par.speedup"] = ratio(median(rates), refRate)
	m["par.abort_share"] = ratio(parOK.sum(func(r *roundResult) float64 { return float64(r.TM.Aborts) }),
		parOK.sum(func(r *roundResult) float64 { return float64(r.TM.Starts) }))
	m["par.oracle_violations"] = violations

	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0 // does not apply to this workload
		}
	}
	return m
}

func printMetrics(w io.Writer, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-30s %16.6g %s\n", d.name, values[d.name], d.unit)
	}
}
