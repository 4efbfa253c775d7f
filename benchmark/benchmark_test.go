package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func testSpec(workload string) roundSpec {
	return roundSpec{
		Workload: workload, Seed: 7, Procs: 1, Workers: workersPerRun,
		WindowMS: 50, Warmup: 2000,
	}
}

func mustRound(t *testing.T, spec roundSpec) *roundResult {
	t.Helper()
	res, err := runRound(spec, time.Now())
	if err != nil {
		t.Fatalf("%s: %v", spec.Workload, err)
	}
	if res.Failed != 0 {
		t.Fatalf("%s: %d of %d operations failed: %s %s", spec.Workload, res.Failed, res.Attempted, res.FirstErr, res.OracleErr)
	}
	return res
}

// TestSmoke runs every workload for two short rounds with the oracles on.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		var s set
		for round := 0; round < 2; round++ {
			spec := testSpec(wl.name)
			spec.Round = round
			s = append(s, mustRound(t, spec))
		}
		sum := summarize(s)
		for _, d := range endToEnd {
			if v := sum.values[d.name]; !(v > 0) {
				t.Errorf("%s: %s = %v, want > 0", wl.name, d.name, v)
			}
		}
	}
}

// TestTracedSmoke checks that a traced round of every stack yields spans
// that add up, and that the layer list is complete.
func TestTracedSmoke(t *testing.T) {
	for _, name := range []string{"bank-engine", "bank-hybrid", "bank-full"} {
		wl, _ := findWorkload(name)
		spec := testSpec(name)
		spec.WindowMS = 200
		ref := mustRound(t, spec)
		spec.Traced = true
		traced := mustRound(t, spec)
		a := traced.Trace
		if a == nil || a.Txns == 0 || a.Begin.N == 0 || a.Read.N == 0 || a.CommitUpd.N == 0 {
			t.Fatalf("%s: traced round recorded no spans: %+v", name, a)
		}
		if got := float64(a.Reads) / float64(a.Commits); got != 2 {
			t.Errorf("%s: reads per bank transaction = %v, want exactly 2", name, got)
		}
		m := layers(wl, set{ref}, set{traced}, nil, map[string]float64{"mem.heap_load_ns": 1})
		if len(m) != len(perLayer) {
			t.Errorf("%s: %d layer metrics, list has %d", name, len(m), len(perLayer))
		}
		// The value itself is a mean over a few hundred recorded transactions
		// here; one preemption inside one of them moves it (README).
		if c := m["trace.closure_ratio"]; !(c > 0) {
			t.Errorf("%s: closure ratio %v", name, c)
		}
	}
}

func share(a, b uint64) float64 { return float64(a) / float64(b) }

// TestStationary checks the generator: the op mix, the read-only share of
// commits and the reads per transaction are flat between the first and the
// last quarter of a counted window, and two runs of the same seed and op
// count agree exactly. The index runs one worker here: with two, the order
// in which their inserts interleave shapes the tree, and so the read count.
func TestStationary(t *testing.T) {
	for _, tc := range []struct {
		workload string
		workers  int
	}{{"bank-engine", 2}, {"index-engine", 1}} {
		spec := testSpec(tc.workload)
		spec.Workers, spec.Ops, spec.Traced = tc.workers, 80_000, true
		a, b := mustRound(t, spec), mustRound(t, spec)
		if !reflect.DeepEqual(a.Quarters, b.Quarters) {
			t.Fatalf("%s: two runs of one seed differ:\n%+v\n%+v", tc.workload, a.Quarters, b.Quarters)
		}
		if a.Trace.Reads != b.Trace.Reads || a.Trace.Commits != b.Trace.Commits {
			t.Fatalf("%s: reads/commits %d/%d vs %d/%d", tc.workload, a.Trace.Reads, a.Trace.Commits, b.Trace.Reads, b.Trace.Commits)
		}
		q := a.Quarters
		if len(q) != 4 {
			t.Fatalf("%s: %d quarters", tc.workload, len(q))
		}
		first, last := q[0], q[3]
		prev := q[2]
		var nFirst, nLast uint64
		for k := range first.Ops {
			nFirst += first.Ops[k]
			nLast += last.Ops[k] - prev.Ops[k]
		}
		for k := range first.Ops {
			f, l := share(first.Ops[k], nFirst), share(last.Ops[k]-prev.Ops[k], nLast)
			if math.Abs(f-l) > 0.02 {
				t.Errorf("%s: share of %s moved from %.3f to %.3f", tc.workload, opNames[k], f, l)
			}
		}
		roF, roL := share(first.RO, first.Commits), share(last.RO-prev.RO, last.Commits-prev.Commits)
		if math.Abs(roF-roL) > 0.02 {
			t.Errorf("%s: read-only share of commits moved from %.3f to %.3f", tc.workload, roF, roL)
		}
		rF, rL := share(first.Reads, first.ProxyTxn), share(last.Reads-prev.Reads, last.ProxyTxn-prev.ProxyTxn)
		if math.Abs(rF-rL) > 0.02*rF {
			t.Errorf("%s: reads per transaction moved from %.3f to %.3f", tc.workload, rF, rL)
		}
	}
}

// TestProxyKeepsFastPath: the tracing proxy forwards tm.SiteRunner, so the
// hybrid runtime routes the same way with and without it.
func TestProxyKeepsFastPath(t *testing.T) {
	spec := testSpec("bank-hybrid")
	spec.Ops = 80_000
	plain := mustRound(t, spec)
	spec.Traced = true
	traced := mustRound(t, spec)
	p, q := share(plain.TM.FastCommits, plain.TM.Commits), share(traced.TM.FastCommits, traced.TM.Commits)
	if p < 0.9 || math.Abs(p-q) > 0.01 {
		t.Errorf("hybrid.fast_share %.4f without the proxy, %.4f with it", p, q)
	}
}

func TestQuantile(t *testing.T) {
	s := []int32{10, 10, 10, 10, 11, 11, 11, 11}
	if got := quantileNS(s, 0.5); got != 10.5 {
		t.Errorf("p50 = %v, want 10.5 (where the 10 ns and 11 ns bins meet)", got)
	}
	if got := quantileNS(s, 0.25); got != 10 {
		t.Errorf("p25 = %v, want 10 (middle of the 10 ns bin)", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	if got := iqr([]float64{1, 2, 3, 4, 5}); got != 2 {
		t.Errorf("iqr = %v", got)
	}
}

// TestContract keeps BENCHMARK.json in step with the code.
func TestContract(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var c struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v vs %q (%s)", i, c.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s %d: %+v vs %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", c.EndToEnd, endToEnd)
	check("per_layer", c.PerLayer, perLayer)
}
