package rococotm

import (
	"runtime"
	"testing"

	"rococotm/internal/audit"
	"rococotm/internal/mem"
	"rococotm/internal/tm"
)

// fastHarness drives PublishFast by hand, playing the hybrid fast path's
// role: acquire ownership, BeginApply, store eagerly, publish, release.
type fastHarness struct {
	r    *TM
	lt   *mem.LineTable
	heap *mem.Heap
}

// publish runs one manual fast commit writing 42 into a and reading b.
func (fh *fastHarness) publish(t *testing.T, a, b mem.Addr, val mem.Word) error {
	t.Helper()
	la, lb := mem.LineOf(a), mem.LineOf(b)
	vb := fh.lt.Version(lb)
	own := fh.lt.Own(la)
	s := own.Load()
	if mem.LineWriterOf(s) != -1 {
		t.Fatalf("line %d already owned", la)
	}
	if !own.CompareAndSwap(s, mem.LineWithWriter(s, 0)) {
		t.Fatal("ownership CAS failed")
	}
	fh.lt.BeginApply(la)
	old := fh.heap.Load(a)
	fh.heap.Store(a, val)
	err := fh.r.PublishFast(&FastFootprint{
		Thread:       0,
		ReadAddrs:    []uint64{uint64(b)},
		WriteAddrs64: []uint64{uint64(a)},
		WriteOrder:   []mem.Addr{a},
		NewVals:      []mem.Word{val},
		OldVals:      []mem.Word{old},
		ReadLines:    []uint64{lb},
		ReadVers:     []uint64{vb},
	})
	fh.lt.EndApply(la)
	fh.lt.Release(la)
	return err
}

// TestPublishFastOrdering pins the merged commit order: fast publications
// claim engine sequences, interleave with slow commits, appear in the
// observer stream, and finalize the heap on both outcomes.
func TestPublishFastOrdering(t *testing.T) {
	heap := mem.NewHeap(1 << 10)
	lt := mem.NewLineTable(heap.Cap())
	auditor := audit.New(audit.Config{})
	r := New(heap, Config{MaxThreads: 2, LineTable: lt, Observer: auditor})
	defer r.Close()
	base := heap.MustAlloc(16)
	a, b := base, base+8 // distinct lines
	fh := &fastHarness{r: r, lt: lt, heap: heap}

	// Fast commit 0: write a=42, read b.
	if err := fh.publish(t, a, b, 42); err != nil {
		t.Fatalf("fast publish: %v", err)
	}
	if got := heap.Load(a); got != 42 {
		t.Fatalf("heap[a] = %d, want 42", got)
	}
	if ts := r.GlobalTS(); ts != 1 {
		t.Fatalf("GlobalTS = %d, want 1", ts)
	}

	// Slow commit 1 on top: reads the fast value, writes b.
	x, err := r.Begin(1)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := x.Read(a); err != nil || v != 42 {
		t.Fatalf("slow read of fast commit = %d, %v", v, err)
	}
	if err := x.Write(b, 7); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(x); err != nil {
		t.Fatalf("slow commit: %v", err)
	}
	if ts := r.GlobalTS(); ts != 2 {
		t.Fatalf("GlobalTS = %d, want 2", ts)
	}

	// Fast publication 2 fails: its recorded read version of b is stale
	// (the slow write-back bumped the line). The sequence is consumed with
	// an empty record and the eager store rolls back.
	lb := mem.LineOf(b)
	for lt.Version(lb) == 0 {
		// The slow write-back is decoupled; wait for its bump to land.
		runtime.Gosched()
	}
	err = fh.publishStale(t, a, b, 99)
	if code, ok := tm.CodeOf(err); !ok || code != tm.CodeConflict {
		t.Fatalf("stale publish err = %v, want CodeConflict", err)
	}
	if got := heap.Load(a); got != 42 {
		t.Fatalf("heap[a] after failed publish = %d, want 42 (restored)", got)
	}
	if ts := r.GlobalTS(); ts != 3 {
		t.Fatalf("GlobalTS = %d, want 3 (failed publication consumes the seq)", ts)
	}

	if err := auditor.Err(); err != nil {
		t.Fatalf("auditor: %v", err)
	}
	if st := auditor.Stats(); st.Observed != 3 {
		t.Fatalf("auditor observed %d commits, want 3", st.Observed)
	}
}

// publishStale is publish with a deliberately stale recorded read version.
func (fh *fastHarness) publishStale(t *testing.T, a, b mem.Addr, val mem.Word) error {
	t.Helper()
	la, lb := mem.LineOf(a), mem.LineOf(b)
	own := fh.lt.Own(la)
	s := own.Load()
	if !own.CompareAndSwap(s, mem.LineWithWriter(s, 0)) {
		t.Fatal("ownership CAS failed")
	}
	fh.lt.BeginApply(la)
	old := fh.heap.Load(a)
	fh.heap.Store(a, val)
	err := fh.r.PublishFast(&FastFootprint{
		Thread:       0,
		ReadAddrs:    []uint64{uint64(b)},
		WriteAddrs64: []uint64{uint64(a)},
		WriteOrder:   []mem.Addr{a},
		NewVals:      []mem.Word{val},
		OldVals:      []mem.Word{old},
		ReadLines:    []uint64{lb},
		ReadVers:     []uint64{fh.lt.Version(lb) - 2}, // stale by one cycle
	})
	fh.lt.EndApply(la)
	fh.lt.Release(la)
	return err
}

// TestPublishFastIrrevocableGate: a pending irrevocable turn refuses fast
// publications with CodeFallback and restores the eager store.
func TestPublishFastIrrevocableGate(t *testing.T) {
	heap := mem.NewHeap(1 << 10)
	lt := mem.NewLineTable(heap.Cap())
	r := New(heap, Config{MaxThreads: 2, LineTable: lt})
	defer r.Close()
	base := heap.MustAlloc(16)
	a, b := base, base+8
	fh := &fastHarness{r: r, lt: lt, heap: heap}

	r.gate.Lock() // stand in for an irrevocable holder
	r.irrevPending.Add(1)
	if !r.IrrevocablePending() {
		t.Fatal("IrrevocablePending = false under a held gate")
	}
	err := fh.publish(t, a, b, 42)
	r.irrevPending.Add(-1)
	r.gate.Unlock()
	if code, ok := tm.CodeOf(err); !ok || code != tm.CodeFallback {
		t.Fatalf("gated publish err = %v, want CodeFallback", err)
	}
	if got := heap.Load(a); got != 0 {
		t.Fatalf("heap[a] = %d, want 0 (restored)", got)
	}
	if ts := r.GlobalTS(); ts != 0 {
		t.Fatalf("GlobalTS = %d, want 0 (no sequence consumed)", ts)
	}
}

// TestPublishFastDoom: a doomed thread's publication fails at the turn
// even when its reads validate.
func TestPublishFastDoom(t *testing.T) {
	heap := mem.NewHeap(1 << 10)
	lt := mem.NewLineTable(heap.Cap())
	r := New(heap, Config{MaxThreads: 2, LineTable: lt})
	defer r.Close()
	base := heap.MustAlloc(16)
	a, b := base, base+8
	fh := &fastHarness{r: r, lt: lt, heap: heap}

	attempt, ok := r.BeginFast(0)
	if !ok || !r.live[0].doom(attempt, tm.CodeConflict) {
		t.Fatal("could not begin and doom a fast attempt")
	}
	err := fh.publish(t, a, b, 42)
	if code, ok := tm.CodeOf(err); !ok || code != tm.CodeConflict {
		t.Fatalf("doomed publish err = %v, want CodeConflict", err)
	}
	if got := heap.Load(a); got != 0 {
		t.Fatalf("heap[a] = %d, want 0 (restored)", got)
	}
	if ts := r.GlobalTS(); ts != 1 {
		t.Fatalf("GlobalTS = %d, want 1 (sequence consumed by empty record)", ts)
	}
	r.EndFast(0)
	next, ok := r.BeginFast(0)
	if _, st := r.Poll(0, next); !ok || st != Live {
		t.Fatalf("the next fast attempt reads %d, want Live: the doom outlived its attempt", st)
	}
	r.EndFast(0)
}

// TestPublishFastWithoutLineTable pins the misuse panic.
func TestPublishFastWithoutLineTable(t *testing.T) {
	heap := mem.NewHeap(1 << 10)
	r := New(heap, Config{MaxThreads: 1})
	defer r.Close()
	defer func() {
		if recover() == nil {
			t.Error("PublishFast without LineTable did not panic")
		}
	}()
	_ = r.PublishFast(&FastFootprint{})
}
