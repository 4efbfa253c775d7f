package core

import (
	"math/bits"
	"math/rand"
	"testing"

	"rococotm/internal/bitmat"
)

func TestWindowSizeBounds(t *testing.T) {
	for _, w := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWindow(%d) did not panic", w)
				}
			}()
			NewWindow(w)
		}()
	}
	if NewWindow(1).W() != 1 || NewWindow(64).W() != 64 {
		t.Fatal("capacity not recorded")
	}
}

func TestEmptyWindowCommitsEverything(t *testing.T) {
	w := NewWindow(8)
	if _, _, ok := w.Validate(0, 0); !ok {
		t.Fatal("empty window rejected a transaction")
	}
	seq, ok := w.Insert(0, 0)
	if !ok || seq != 0 {
		t.Fatalf("Insert = (%d,%v), want (0,true)", seq, ok)
	}
	if w.Count() != 1 || w.NextSeq() != 1 || w.BaseSeq() != 0 {
		t.Fatalf("state = count %d base %d next %d", w.Count(), w.BaseSeq(), w.NextSeq())
	}
}

func TestDirectTwoCycleAborts(t *testing.T) {
	w := NewWindow(8)
	w.Insert(0, 0) // slot 0
	// A transaction that both precedes and succeeds slot 0 is a 2-cycle.
	if _, ok := w.Insert(1, 1); ok {
		t.Fatal("f∧b overlap committed")
	}
	if w.Count() != 1 {
		t.Fatal("aborted transaction mutated the window")
	}
}

func TestTransitiveCycleAborts(t *testing.T) {
	// t0 committed; t1 commits with b={t0} (t0 →rw t1). Now t2 with
	// f={t0} (t2 →rw t0) and b={t1} (t1 →rw t2) closes t2→t0→t1→t2? No:
	// edges are t0→t1, t2→t0, t1→t2 ⇒ cycle t0→t1→t2→t0.
	w := NewWindow(8)
	w.Insert(0, 0)                    // slot 0 = t0
	if _, ok := w.Insert(0, 1); !ok { // t1: b edge to t0
		t.Fatal("t1 should commit")
	}
	if _, ok := w.Insert(1, 2); ok { // t2: f to slot0, b to slot1
		t.Fatal("transitive 3-cycle not detected")
	}
}

func TestStaleReadReorderCommits(t *testing.T) {
	// The ROCoCo-beats-TOCC case: t read a version that t0 later
	// overwrote (f edge only). TOCC aborts; ROCoCo serializes t before t0.
	w := NewWindow(8)
	w.Insert(0, 0) // t0
	if _, ok := w.Insert(1, 0); !ok {
		t.Fatal("pure forward edge aborted — phantom ordering not removed")
	}
}

func TestPhantomOrderingScenario(t *testing.T) {
	// Figure 2(b): trace serializable as t2 →rw t3 →rw t1; TOCC aborts t3
	// (or t1) due to timestamp order, ROCoCo commits all three. At the
	// validator the commit arrival order is t2, t3, t1 with edges
	// t2→t3 (b), t3→t1 (b): all acyclic.
	w := NewWindow(8)
	if _, ok := w.Insert(0, 0); !ok { // t2
		t.Fatal("t2")
	}
	if _, ok := w.Insert(0, 1); !ok { // t3: b={t2}
		t.Fatal("t3")
	}
	if _, ok := w.Insert(0, 2); !ok { // t1: b={t3}
		t.Fatal("t1 aborted; ROCoCo should accept the reordering")
	}
	if got := w.Stats().Commits; got != 3 {
		t.Fatalf("commits = %d, want 3", got)
	}
}

func TestCoversAndSlot(t *testing.T) {
	w := NewWindow(4)
	for i := 0; i < 6; i++ {
		if _, ok := w.Insert(0, 0); !ok {
			t.Fatalf("insert %d failed", i)
		}
	}
	// 6 commits through a 4-window: seqs 2..5 tracked.
	if w.BaseSeq() != 2 || w.NextSeq() != 6 || w.Count() != 4 {
		t.Fatalf("base=%d next=%d count=%d", w.BaseSeq(), w.NextSeq(), w.Count())
	}
	if w.Covers(1) || !w.Covers(2) || !w.Covers(5) || w.Covers(6) {
		t.Fatal("Covers wrong")
	}
	if s, ok := w.Slot(3); !ok || s != 1 {
		t.Fatalf("Slot(3) = (%d,%v)", s, ok)
	}
	if got := w.Stats().Evictions; got != 2 {
		t.Fatalf("evictions = %d, want 2", got)
	}
}

func TestReset(t *testing.T) {
	w := NewWindow(8)
	w.Insert(0, 0)
	w.Insert(1, 0)
	w.Reset()
	if w.Count() != 0 {
		t.Fatal("Reset did not empty window")
	}
	if w.NextSeq() != 2 || w.BaseSeq() != 2 {
		t.Fatal("Reset should preserve sequence numbering")
	}
	if _, ok := w.Insert(^uint64(0), ^uint64(0)); !ok {
		t.Fatal("stale f/b bits not masked after Reset")
	}
}

// oracle maintains the full dependency graph of committed transactions and
// answers "would adding this vertex keep it acyclic" via DFS.
type oracle struct {
	n     int
	edges [][2]int // from, to
}

func (o *oracle) wouldBeAcyclic(f, b []int) bool {
	n := o.n + 1
	m := bitmat.NewMat(n)
	for _, e := range o.edges {
		m.Set(e[0], e[1], true)
	}
	v := n - 1
	for _, i := range f {
		m.Set(v, i, true)
	}
	for _, i := range b {
		m.Set(i, v, true)
	}
	return !m.HasCycle()
}

func (o *oracle) commit(f, b []int) {
	v := o.n
	o.n++
	for _, i := range f {
		o.edges = append(o.edges, [2]int{v, i})
	}
	for _, i := range b {
		o.edges = append(o.edges, [2]int{i, v})
	}
}

func TestWindowMatchesGraphOracle(t *testing.T) {
	// Random f/b streams, window large enough that nothing is evicted:
	// every ROCoCo decision must equal the acyclicity oracle, and the
	// maintained matrix must equal the Warshall closure.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		w := NewWindow(64)
		o := &oracle{}
		for step := 0; step < 64; step++ {
			n := w.Count()
			var f, b uint64
			var fs, bs []int
			for i := 0; i < n; i++ {
				switch rng.Intn(8) {
				case 0:
					f |= 1 << uint(i)
					fs = append(fs, i)
				case 1:
					b |= 1 << uint(i)
					bs = append(bs, i)
				}
			}
			want := o.wouldBeAcyclic(fs, bs)
			_, got := w.Insert(f, b)
			if got != want {
				t.Fatalf("trial %d step %d: rococo=%v oracle=%v f=%b b=%b",
					trial, step, got, want, f, b)
			}
			if got {
				o.commit(fs, bs)
				// Closure check: Window matrix == Warshall(edges)+diag.
				n2 := o.n
				full := bitmat.NewMat(n2)
				for _, e := range o.edges {
					full.Set(e[0], e[1], true)
				}
				full.Warshall()
				for i := 0; i < n2; i++ {
					full.Set(i, i, true)
				}
				if !w.Matrix().Equal(full) {
					t.Fatalf("trial %d step %d: closure mismatch\nwant:\n%s\ngot:\n%s",
						trial, step, full, w.Matrix())
				}
			}
		}
	}
}

func insertBig(w *BigWindow, f, b uint64) (Seq, bool) {
	fv := bitmat.NewVec(w.W())
	bv := bitmat.NewVec(w.W())
	for i := 0; i < w.W() && i < 64; i++ {
		if f&(1<<uint(i)) != 0 {
			fv.Set(i, true)
		}
		if b&(1<<uint(i)) != 0 {
			bv.Set(i, true)
		}
	}
	return w.Insert(fv, bv)
}

func TestBigWindowAgreesWithFastPath(t *testing.T) {
	// Same random stream through both implementations, including slides.
	rng := rand.New(rand.NewSource(17))
	for _, W := range []int{1, 2, 3, 8, 17, 64} {
		fast := NewWindow(W)
		big := NewBigWindow(W)
		for step := 0; step < 500; step++ {
			n := fast.Count()
			var f, b uint64
			for i := 0; i < n; i++ {
				switch rng.Intn(6) {
				case 0:
					f |= 1 << uint(i)
				case 1:
					b |= 1 << uint(i)
				}
			}
			s1, ok1 := fast.Insert(f, b)
			s2, ok2 := insertBig(big, f, b)
			if ok1 != ok2 || (ok1 && s1 != s2) {
				t.Fatalf("W=%d step %d: fast=(%d,%v) big=(%d,%v)", W, step, s1, ok1, s2, ok2)
			}
			if fast.Count() != big.Count() || fast.BaseSeq() != big.BaseSeq() {
				t.Fatalf("W=%d step %d: state diverged", W, step)
			}
			if ok1 && !fast.Matrix().Equal(big.Matrix()) {
				t.Fatalf("W=%d step %d: matrices diverged\nfast:\n%s\nbig:\n%s",
					W, step, fast.Matrix(), big.Matrix())
			}
		}
	}
}

// sparseEdges returns a random mask over the n live window slots with about
// two bits set at n = 64.
func sparseEdges(rng *rand.Rand, n int) uint64 {
	m := rng.Uint64() & rng.Uint64() & rng.Uint64() & rng.Uint64() & rng.Uint64()
	return m & (uint64(1)<<uint(n) - 1)
}

// TestRingWindowLongRunMatchesBigWindow runs the ring window far past slot
// reuse — at least 10 000 commits, with a ResetAt(37) midway so the rebased
// ring starts off slot 0 — at W ∈ {1, 7, 64}: every decision must agree
// with BigWindow and Matrix() (window order) must equal BigWindow's.
func TestRingWindowLongRunMatchesBigWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, W := range []int{1, 7, 64} {
		ring, big := NewWindow(W), NewBigWindow(W)
		commits, aborts, reset := 0, 0, false
		for step := 0; commits < 10000; step++ {
			if commits == 5000 && !reset {
				ring.ResetAt(37)
				big.ResetAt(37)
				reset = true
			}
			n := ring.Count()
			var f uint64
			if rng.Intn(2) == 0 {
				f = sparseEdges(rng, n)
			}
			b := sparseEdges(rng, n) &^ f
			s1, ok1 := ring.Insert(f, b)
			s2, ok2 := insertBig(big, f, b)
			if ok1 != ok2 || s1 != s2 || ring.BaseSeq() != big.BaseSeq() || ring.Count() != big.Count() {
				t.Fatalf("W=%d step %d: ring=(%d,%v) big=(%d,%v)", W, step, s1, ok1, s2, ok2)
			}
			if !ok1 {
				aborts++
				continue
			}
			commits++
			if !ring.Matrix().Equal(big.Matrix()) {
				t.Fatalf("W=%d step %d: matrices diverged\nring:\n%s\nbig:\n%s",
					W, step, ring.Matrix(), big.Matrix())
			}
		}
		if W > 1 && aborts == 0 {
			t.Fatalf("W=%d: the stream never closed a cycle", W)
		}
		if got, want := ring.NextSeq(), Seq(37+5000); got != want {
			t.Fatalf("W=%d: NextSeq = %d after the rebase, want %d", W, got, want)
		}
	}
}

// TestInsertRingMatchesInsert drives two windows with one stream, one in
// window coordinates and one in ring coordinates (rotated left by
// BaseSeq()&63): decisions, sequences and matrices must be identical, and
// ValidateRing's vectors must be Validate's, rotated.
func TestInsertRingMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, W := range []int{1, 7, 64} {
		win, ring := NewWindow(W), NewWindow(W)
		win.ResetAt(37)
		ring.ResetAt(37)
		for step := 0; step < 3000; step++ {
			n := win.Count()
			f := sparseEdges(rng, n)
			b := sparseEdges(rng, n) &^ f
			r := int(ring.BaseSeq() & 63)
			fr, br := bits.RotateLeft64(f, r), bits.RotateLeft64(b, r)
			p1, s1, ok1 := win.Validate(f, b)
			p2, s2, ok2 := ring.ValidateRing(fr, br)
			if ok1 != ok2 || bits.RotateLeft64(p1, r) != p2 || bits.RotateLeft64(s1, r) != s2 {
				t.Fatalf("W=%d step %d: Validate=(%x,%x,%v) ValidateRing=(%x,%x,%v)", W, step, p1, s1, ok1, p2, s2, ok2)
			}
			q1, k1 := win.Insert(f, b)
			q2, k2 := ring.InsertRing(fr, br)
			if q1 != q2 || k1 != k2 || !win.Matrix().Equal(ring.Matrix()) {
				t.Fatalf("W=%d step %d: Insert=(%d,%v) InsertRing=(%d,%v)", W, step, q1, k1, q2, k2)
			}
		}
	}
}

func TestBigWindowBeyond64(t *testing.T) {
	w := NewBigWindow(128)
	for i := 0; i < 200; i++ {
		f := bitmat.NewVec(128)
		b := bitmat.NewVec(128)
		if n := w.Count(); n > 1 {
			b.Set(n-1, true) // chain: each txn after the previous
		}
		if _, ok := w.Insert(f, b); !ok {
			t.Fatalf("chain insert %d aborted", i)
		}
	}
	if w.Count() != 128 || w.BaseSeq() != 72 {
		t.Fatalf("count=%d base=%d", w.Count(), w.BaseSeq())
	}
	// Reachability along the chain must survive the slides.
	m := w.Matrix()
	if !m.Get(0, 127) {
		t.Fatal("transitive chain reachability lost after sliding")
	}
}

func TestSlidePreservesDecisions(t *testing.T) {
	// After eviction, a transaction conflicting only with evicted entries
	// must be accepted (the caller enforces the overflow-abort rule).
	w := NewWindow(2)
	w.Insert(0, 0) // seq 0
	w.Insert(0, 1) // seq 1, b edge to seq 0
	w.Insert(0, 2) // seq 2 — evicts seq 0
	if w.BaseSeq() != 1 {
		t.Fatalf("base = %d, want 1", w.BaseSeq())
	}
	// Cycle with live slots still detected: f and b on slot 0 (seq 1).
	if _, ok := w.Insert(1, 1); ok {
		t.Fatal("cycle with live slot missed after slide")
	}
}

func TestStatsAccounting(t *testing.T) {
	w := NewWindow(4)
	w.Insert(0, 0)
	w.Insert(1, 1) // cycle
	w.Validate(0, 0)
	st := w.Stats()
	if st.Validated != 3 || st.Cycles != 1 || st.Commits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func BenchmarkValidate64Full(b *testing.B) {
	w := NewWindow(64)
	rng := rand.New(rand.NewSource(1))
	for w.Count() < 64 {
		var bb uint64
		if n := w.Count(); n > 0 {
			bb = rng.Uint64() & ((1 << uint(n)) - 1)
		}
		w.Insert(0, bb)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Validate(uint64(i)&0xf0f0, uint64(i)&0x0f0f)
	}
}

func BenchmarkInsert64Sliding(b *testing.B) {
	w := NewWindow(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var bb uint64
		if n := w.Count(); n > 0 {
			bb = 1 << uint(n-1)
		}
		if _, ok := w.Insert(0, bb); !ok {
			b.Fatal("chain aborted")
		}
	}
}

// BenchmarkInsert64Disjoint is the bank-engine shape: a full sliding window
// and transactions with no edges (f = b = 0), so every insert evicts.
func BenchmarkInsert64Disjoint(b *testing.B) {
	w := NewWindow(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := w.Insert(0, 0); !ok {
			b.Fatal("disjoint insert aborted")
		}
	}
}
