package bench

import (
	"strings"
	"testing"

	"rococotm/internal/mem"
	"rococotm/internal/sig"
	"rococotm/internal/simclock"
	"rococotm/internal/stamp"
	"rococotm/internal/tm"
)

func TestCostModelsExist(t *testing.T) {
	for _, rt := range append(Runtimes(), "seq") {
		m := CostModelFor(rt)
		if m.Read <= 0 || m.Begin <= 0 {
			t.Fatalf("%s: degenerate cost model %+v", rt, m)
		}
	}
}

func TestCostModelUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown runtime accepted")
		}
	}()
	CostModelFor("nope")
}

func TestNewRuntimeBuildsAll(t *testing.T) {
	for _, rt := range append(Runtimes(), "seq") {
		h := mem.NewHeap(1 << 12)
		m := NewRuntime(rt, h, 8)
		a := h.MustAlloc(1)
		if err := tm.Run(m, 0, func(x tm.Txn) error { return x.Write(a, 1) }); err != nil {
			t.Fatalf("%s: %v", rt, err)
		}
		m.Close()
	}
}

func TestTimedChargesClocks(t *testing.T) {
	h := mem.NewHeap(1 << 12)
	group := simclock.NewGroup(2)
	w := NewTimed(NewRuntime("tinystm", h, 4), CostModelFor("tinystm"), group)
	defer w.Close()
	a := h.MustAlloc(1)
	if err := tm.Run(w, 0, func(x tm.Txn) error {
		v, err := x.Read(a)
		if err != nil {
			return err
		}
		return x.Write(a, v+1)
	}); err != nil {
		t.Fatal(err)
	}
	m := CostModelFor("tinystm")
	want := m.Begin + m.Read + m.Write + m.CommitBase + m.CommitPerRead + m.CommitPerWrite
	if got := group.Clock(0).Now(); got != want {
		t.Fatalf("clock = %g, want %g", got, want)
	}
	if group.Clock(1).Now() != 0 {
		t.Fatal("wrong thread charged")
	}
}

func TestTimedOffloadUsesPipe(t *testing.T) {
	h := mem.NewHeap(1 << 12)
	group := simclock.NewGroup(1)
	w := NewTimed(NewRuntime("rococotm", h, 4), CostModelFor("rococotm"), group)
	defer w.Close()
	a := h.MustAlloc(1)
	if err := tm.Run(w, 0, func(x tm.Txn) error { return x.Write(a, 1) }); err != nil {
		t.Fatal(err)
	}
	served, _ := w.Pipe().Stats()
	if served != 1 {
		t.Fatalf("pipe served %d requests, want 1", served)
	}
	// The clock must include the offload latency.
	if got := group.Clock(0).Now(); got < CostModelFor("rococotm").OffloadLatency {
		t.Fatalf("clock %g does not include offload latency", got)
	}
	// Read-only transactions skip the pipe.
	if err := tm.Run(w, 0, func(x tm.Txn) error {
		_, err := x.Read(a)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if served, _ := w.Pipe().Stats(); served != 1 {
		t.Fatal("read-only transaction hit the pipe")
	}
}

func TestFig7Smoke(t *testing.T) {
	cfg := Fig7Config{
		Geometries: []sig.Config{{M: 512, K: 4}},
		Sizes:      []int{8, 32},
		Probes:     500,
		Seed:       1,
	}
	rep, err := RunFig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("points = %d", len(rep.Points))
	}
	// Monotone in n for a fixed geometry.
	if rep.Points[0].QueryModel >= rep.Points[1].QueryModel {
		t.Fatal("query FP not increasing in n")
	}
	if !strings.Contains(rep.String(), "Figure 7") {
		t.Fatal("rendering broken")
	}
}

func TestFig9Smoke(t *testing.T) {
	cfg := Fig9Config{
		Locations: 1024, Ns: []int{16}, Ts: []int{16},
		Traces: 5, TxnsPerRun: 500, Window: 64, Seed: 1,
	}
	rep, err := RunFig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := rep.Points[0]
	if !(p.TwoPL > p.TOCC && p.TOCC > p.ROCoCo) {
		t.Fatalf("ordering violated: %+v", p)
	}
	if rep.MaxReductionVsTOCC <= 0 {
		t.Fatal("no reduction vs TOCC recorded")
	}
	if !strings.Contains(rep.String(), "Figure 9") {
		t.Fatal("rendering broken")
	}
}

func TestFig10SmokeSingleApp(t *testing.T) {
	cfg := Fig10Config{
		Scale:   stamp.Small,
		Threads: []int{1, 4},
		Apps:    []string{"ssca2", "vacation"},
	}
	rep, err := RunFig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Apps) != 2 {
		t.Fatalf("apps = %d", len(rep.Apps))
	}
	for _, app := range rep.Apps {
		if app.SeqNanos <= 0 {
			t.Fatalf("%s: no sequential baseline", app.App)
		}
		for _, c := range app.Cells {
			if c.Speedup <= 0 {
				t.Fatalf("%s %s/%d: speedup %g", app.App, c.Runtime, c.Threads, c.Speedup)
			}
		}
	}
	if rep.GeomeanVsTinySTM[4] <= 0 {
		t.Fatal("geomean missing")
	}
	if !strings.Contains(rep.String(), "Figure 10") {
		t.Fatal("rendering broken")
	}
}

func TestFig11Smoke(t *testing.T) {
	cfg := Fig11Config{Scale: stamp.Small, Threads: 4, Apps: []string{"vacation"}}
	rep, err := RunFig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	row := rep.Rows[0]
	if row.TinySTMWallUs <= 0 {
		t.Fatalf("TinySTM validation not measured: %+v", row)
	}
	if row.ROCoCoModelUs < 0.6 || row.ROCoCoModelUs > 2 {
		t.Fatalf("modeled ROCoCoTM validation %g µs out of band", row.ROCoCoModelUs)
	}
	if !strings.Contains(rep.String(), "Figure 11") {
		t.Fatal("rendering broken")
	}
}

func TestResourcesReport(t *testing.T) {
	rep, err := RunResources(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < 2 {
		t.Fatal("too few design points")
	}
	if rep.Rows[0].W != 64 || rep.Rows[0].M != 512 {
		t.Fatal("first row is not the paper design point")
	}
	if !strings.Contains(rep.String(), "6.5") {
		t.Fatal("rendering broken")
	}
}

func TestWindowAblationSmoke(t *testing.T) {
	rep, err := RunWindowAblation([]int{4, 64}, 16, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny windows must abort more (overflow) than the full window.
	if rep.Rows[0].AbortRate <= rep.Rows[1].AbortRate {
		t.Fatalf("W=4 (%.4f) not worse than W=64 (%.4f)",
			rep.Rows[0].AbortRate, rep.Rows[1].AbortRate)
	}
	if rep.Rows[0].WindowAborts == 0 {
		t.Fatal("tiny window recorded no overflow aborts")
	}
}

func TestSigAblationSmoke(t *testing.T) {
	rep, err := RunSigAblation([]string{"vacation"}, stamp.Small, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	if !strings.Contains(rep.String(), "Ablation") {
		t.Fatal("rendering broken")
	}
}

func TestNewAppUnknown(t *testing.T) {
	if _, err := NewApp("bayes", stamp.Small); err == nil {
		t.Fatal("bayes should be excluded, as in the paper")
	}
}

func TestFig6PipeliningWins(t *testing.T) {
	rep := RunFig6([]int{1, 28})
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	one, many := rep.Rows[0], rep.Rows[1]
	if one.ExclusiveNanos != one.PipelinedNanos {
		t.Fatalf("single validation should cost the same: %v vs %v",
			one.ExclusiveNanos, one.PipelinedNanos)
	}
	// At 28 threads the exclusive validator serializes ~28 latencies while
	// the pipeline stays near one latency plus the beats.
	if many.ExclusiveNanos < 20*rep.ValidationNanos {
		t.Fatalf("exclusive makespan %v did not serialize", many.ExclusiveNanos)
	}
	if many.PipelinedNanos > 2*rep.ValidationNanos {
		t.Fatalf("pipelined makespan %v did not overlap", many.PipelinedNanos)
	}
	if !strings.Contains(rep.String(), "Figure 6") {
		t.Fatal("rendering broken")
	}
}

func TestContentionAblationSmoke(t *testing.T) {
	rep, err := RunContentionAblation(stamp.Small, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	if !strings.Contains(rep.String(), "contention") {
		t.Fatal("rendering broken")
	}
}
