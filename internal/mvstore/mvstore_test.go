package mvstore

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rococotm/internal/mem"
)

func newStore(t *testing.T, heapWords int, cfg Config) (*Store, *mem.Heap) {
	t.Helper()
	h := mem.NewHeap(heapWords)
	s, err := New(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, h
}

func TestConfigValidation(t *testing.T) {
	h := mem.NewHeap(16)
	if _, err := New(h, Config{CompactEvery: -1}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotSeesExactlyPrefix(t *testing.T) {
	s, heap := newStore(t, 64, Config{})
	a := heap.MustAlloc(1)
	heap.Store(a, 7) // pre-history value

	snaps := []*Snapshot{s.RetrieveSnapshot()} // height 0
	for seq := uint64(0); seq < 5; seq++ {
		s.ApplyUpdates(seq, []mem.Addr{a}, []mem.Word{mem.Word(100 + seq)})
		heap.Store(a, mem.Word(100+seq)) // simulated write-back
		snaps = append(snaps, s.RetrieveSnapshot())
	}
	for h, sn := range snaps {
		want := mem.Word(7)
		if h > 0 {
			want = mem.Word(100 + h - 1)
		}
		if got := sn.Read(a); got != want {
			t.Fatalf("snapshot at height %d: Read=%d want %d", h, got, want)
		}
		s.ReleaseSnapshot(sn)
	}
	if s.Height() != 5 {
		t.Fatalf("Height=%d want 5", s.Height())
	}
}

func TestNeverWrittenFallsBackToHeap(t *testing.T) {
	s, heap := newStore(t, 64, Config{})
	a, b := heap.MustAlloc(1), heap.MustAlloc(1)
	heap.Store(a, 11)
	heap.Store(b, 22)
	s.ApplyUpdates(0, []mem.Addr{a}, []mem.Word{33})
	sn := s.RetrieveSnapshot()
	defer s.ReleaseSnapshot(sn)
	if got := sn.Read(b); got != 22 {
		t.Fatalf("never-written addr: Read=%d want 22", got)
	}
	if got := sn.Read(a); got != 33 {
		t.Fatalf("versioned addr: Read=%d want 33", got)
	}
}

func TestOutOfOrderApplyPanics(t *testing.T) {
	s, heap := newStore(t, 64, Config{})
	a := heap.MustAlloc(1)
	s.ApplyUpdates(0, []mem.Addr{a}, []mem.Word{1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on seq gap")
		}
	}()
	s.ApplyUpdates(2, []mem.Addr{a}, []mem.Word{2})
}

func TestDuplicateAddrLastWins(t *testing.T) {
	s, heap := newStore(t, 64, Config{})
	a := heap.MustAlloc(1)
	s.ApplyUpdates(0, []mem.Addr{a, a}, []mem.Word{1, 2})
	sn := s.RetrieveSnapshot()
	defer s.ReleaseSnapshot(sn)
	if got := sn.Read(a); got != 2 {
		t.Fatalf("Read=%d want 2 (last write wins)", got)
	}
	if st := s.Stats(); st.Versions != 1 {
		t.Fatalf("Versions=%d want 1", st.Versions)
	}
}

func TestCompactionPreservesPinnedViews(t *testing.T) {
	s, heap := newStore(t, 64, Config{CompactEvery: 8})
	a := heap.MustAlloc(1)
	heap.Store(a, 500)

	var pinned *Snapshot
	for seq := uint64(0); seq < 100; seq++ {
		if seq == 40 {
			pinned = s.RetrieveSnapshot() // pins height 40
		}
		s.ApplyUpdates(seq, []mem.Addr{a}, []mem.Word{mem.Word(seq)})
		heap.Store(a, mem.Word(seq))
	}
	st := s.Stats()
	if st.Compactions == 0 {
		t.Fatal("compaction never ran")
	}
	// Everything below the pin folded away; the pinned view must survive.
	if st.Versions >= 100 {
		t.Fatalf("Versions=%d: compaction retained full history", st.Versions)
	}
	if got := pinned.Read(a); got != 39 {
		t.Fatalf("pinned snapshot Read=%d want 39", got)
	}
	s.ReleaseSnapshot(pinned)

	// With the pin gone, further applies compact the tail too.
	for seq := uint64(100); seq < 120; seq++ {
		s.ApplyUpdates(seq, []mem.Addr{a}, []mem.Word{mem.Word(seq)})
	}
	if st := s.Stats(); st.Versions > 20 {
		t.Fatalf("Versions=%d after release: old history not folded", st.Versions)
	}
	sn := s.RetrieveSnapshot()
	defer s.ReleaseSnapshot(sn)
	if got := sn.Read(a); got != 119 {
		t.Fatalf("post-compaction Read=%d want 119", got)
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	s, _ := newStore(t, 64, Config{})
	sn := s.RetrieveSnapshot()
	s.ReleaseSnapshot(sn)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double release")
		}
	}()
	s.ReleaseSnapshot(sn)
}

// TestConcurrentSnapshotReads races snapshot readers against an
// apply+write-back producer. Each address pair is kept balanced (sum
// constant) by every commit; any snapshot that observes an unbalanced pair
// has seen a torn view.
func TestConcurrentSnapshotReads(t *testing.T) {
	const pairs = 8
	const total = 1000
	s, heap := newStore(t, 64, Config{CompactEvery: 64})
	base := heap.MustAlloc(2 * pairs)
	for i := 0; i < pairs; i++ {
		heap.Store(base+mem.Addr(2*i), total)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				sn := s.RetrieveSnapshot()
				for i := 0; i < pairs; i++ {
					x := sn.Read(base + mem.Addr(2*i))
					y := sn.Read(base + mem.Addr(2*i) + 1)
					if x+y != total {
						t.Errorf("height %d pair %d: %d+%d != %d", sn.Height(), i, x, y, total)
						stop.Store(true)
					}
				}
				s.ReleaseSnapshot(sn)
			}
		}()
	}

	addrs := make([]mem.Addr, 2)
	vals := make([]mem.Word, 2)
	for seq := uint64(0); seq < 5000 && !stop.Load(); seq++ {
		i := int(seq) % pairs
		x, y := base+mem.Addr(2*i), base+mem.Addr(2*i)+1
		// Move one unit from x to y, reading current values from the heap
		// (the producer is the only writer, so this is race-free).
		xv, yv := heap.Load(x), heap.Load(y)
		addrs[0], addrs[1] = x, y
		vals[0], vals[1] = xv-1, yv+1
		s.ApplyUpdates(seq, addrs, vals)
		heap.Store(x, xv-1)
		heap.Store(y, yv+1)
	}
	stop.Store(true)
	wg.Wait()
	if st := s.Stats(); st.Pins != 0 {
		t.Fatalf("Pins=%d after all readers released", st.Pins)
	}
}

// historyModel is the reference the fold is checked against: every
// version of every address ever written, never folded.
type historyModel struct {
	initial []mem.Word
	seqs    [][]uint64
	vals    [][]mem.Word
}

// at returns word i's value at snapshot height h.
func (m *historyModel) at(i int, h uint64) mem.Word {
	v := m.initial[i]
	for k, seq := range m.seqs[i] {
		if seq >= h {
			break
		}
		v = m.vals[i][k]
	}
	return v
}

// TestFoldMatchesFullHistoryModel drives a store that folds every four
// applies against a model that keeps the full history. Applies write one
// or several addresses, sometimes the same address twice in one seq; some
// addresses are written once and then stay idle; snapshots are pinned and
// released at random heights, and every open snapshot must read every
// address exactly as the model does at its height. Once all pins are
// gone and CompactEvery more applies have run, the store may hold no more
// versions than were written since the last fold.
func TestFoldMatchesFullHistoryModel(t *testing.T) {
	const (
		words        = 48 // 0..31 hot, 32..47 written once each
		hot          = 32
		compactEvery = 4
	)
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, heap := newStore(t, 64, Config{CompactEvery: compactEvery})
		base := heap.MustAlloc(words)
		m := &historyModel{initial: make([]mem.Word, words), seqs: make([][]uint64, words), vals: make([][]mem.Word, words)}
		for i := range m.initial {
			m.initial[i] = mem.Word(rng.Intn(1000))
			heap.Store(base+mem.Addr(i), m.initial[i])
		}
		idle := rng.Perm(words - hot)
		var open []*Snapshot
		var addrs []mem.Addr
		var vals []mem.Word
		var idx []int
		sinceFold := 0
		seq := uint64(0)
		apply := func() {
			addrs, vals, idx = addrs[:0], vals[:0], idx[:0]
			n := 1
			if rng.Intn(3) == 0 {
				n = 2 + rng.Intn(5)
			}
			for k := 0; k < n; k++ {
				i := rng.Intn(hot)
				if k > 0 && rng.Intn(4) == 0 {
					i = idx[rng.Intn(len(idx))] // a second write in this seq
				}
				idx = append(idx, i)
			}
			if len(idle) > 0 && rng.Intn(8) == 0 {
				idx = append(idx, hot+idle[0])
				idle = idle[1:]
			}
			distinct := map[int]bool{}
			for _, i := range idx {
				v := mem.Word(rng.Int63())
				addrs = append(addrs, base+mem.Addr(i))
				vals = append(vals, v)
				if n := len(m.seqs[i]); n > 0 && m.seqs[i][n-1] == seq {
					m.vals[i][n-1] = v
				} else {
					m.seqs[i] = append(m.seqs[i], seq)
					m.vals[i] = append(m.vals[i], v)
				}
				distinct[i] = true
			}
			folds := s.Stats().Compactions
			s.ApplyUpdates(seq, addrs, vals)
			for k, a := range addrs {
				heap.Store(a, vals[k]) // write-back, after apply
			}
			seq++
			sinceFold += len(distinct)
			if s.Stats().Compactions != folds {
				sinceFold = 0
			}
		}
		check := func() {
			for _, sn := range open {
				for i := 0; i < words; i++ {
					if got, want := sn.Read(base+mem.Addr(i)), m.at(i, sn.Height()); got != want {
						t.Fatalf("seed %d seq %d: snapshot at %d reads word %d = %d, model %d",
							seed, seq, sn.Height(), i, got, want)
					}
				}
			}
		}
		for step := 0; step < 600; step++ {
			apply()
			if rng.Intn(5) == 0 {
				open = append(open, s.RetrieveSnapshot())
			}
			if len(open) > 0 && rng.Intn(5) == 0 {
				k := rng.Intn(len(open))
				s.ReleaseSnapshot(open[k])
				open = append(open[:k], open[k+1:]...)
			}
			check()
		}
		for _, sn := range open {
			s.ReleaseSnapshot(sn)
		}
		open = open[:0]
		for k := 0; k < compactEvery; k++ {
			apply()
		}
		if st := s.Stats(); st.Versions > sinceFold {
			t.Fatalf("seed %d: %d versions live with no pins, but only %d written since the last fold",
				seed, st.Versions, sinceFold)
		}
		open = append(open, s.RetrieveSnapshot())
		check()
		s.ReleaseSnapshot(open[0])
	}
}

// TestSnapshotReadsDuringFirstWritesAndFolds races snapshot readers
// against a producer whose commits keep creating chains (first writes to
// fresh addresses) while the store folds every four applies, so the
// readers' miss → load → re-check path and the fold's recycling run at
// once. Each pair's sum is constant in every commit; under -race the test
// also checks that the head store publishes every record a reader reaches
// and that no reachable record is rewritten.
func TestSnapshotReadsDuringFirstWritesAndFolds(t *testing.T) {
	const pairs = 512
	const total = 1000
	s, heap := newStore(t, 4*pairs, Config{CompactEvery: 4})
	base := heap.MustAlloc(2 * pairs)
	for i := 0; i < pairs; i++ {
		heap.Store(base+mem.Addr(2*i), total)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				sn := s.RetrieveSnapshot()
				for i := 0; i < pairs; i++ {
					x := sn.Read(base + mem.Addr(2*i))
					y := sn.Read(base + mem.Addr(2*i) + 1)
					if x+y != total {
						t.Errorf("height %d pair %d: %d+%d != %d", sn.Height(), i, x, y, total)
						stop.Store(true)
					}
				}
				s.ReleaseSnapshot(sn)
			}
		}()
	}
	addrs := make([]mem.Addr, 2)
	vals := make([]mem.Word, 2)
	for seq := uint64(0); seq < 3*pairs && !stop.Load(); seq++ {
		i := int(seq) % pairs
		x, y := base+mem.Addr(2*i), base+mem.Addr(2*i)+1
		xv, yv := heap.Load(x), heap.Load(y)
		addrs[0], addrs[1] = x, y
		vals[0], vals[1] = xv-1, yv+1
		s.ApplyUpdates(seq, addrs, vals)
		heap.Store(x, xv-1)
		heap.Store(y, yv+1)
	}
	stop.Store(true)
	wg.Wait()
}

// TestPinnedSnapshotSurvivesRecycling keeps one snapshot pinned across
// thousands of folds while the producer goes on: hot words take new
// versions and fresh words their first writes, and every record they take
// is one the folds freed from the history below the pin. The pinned view
// must read every word exactly as the full-history model does at its
// height. Meanwhile a reader goroutine keeps reading the fresh word whose
// first write and write-back land next: the window the miss path's head
// re-check guards.
func TestPinnedSnapshotSurvivesRecycling(t *testing.T) {
	const (
		hot   = 64
		fresh = 1 << 14
		words = hot + fresh
		every = 4
	)
	rng := rand.New(rand.NewSource(35))
	s, heap := newStore(t, 2*words, Config{CompactEvery: every})
	base := heap.MustAlloc(words)
	m := &historyModel{initial: make([]mem.Word, words), seqs: make([][]uint64, words), vals: make([][]mem.Word, words)}
	for i := range m.initial {
		m.initial[i] = mem.Word(rng.Int63())
		heap.Store(base+mem.Addr(i), m.initial[i])
	}
	seq := uint64(0)
	addrs := make([]mem.Addr, 2)
	vals := make([]mem.Word, 2)
	apply := func(i, j int) {
		for k, w := range [2]int{i, j} {
			addrs[k], vals[k] = base+mem.Addr(w), mem.Word(rng.Int63())
			m.seqs[w] = append(m.seqs[w], seq)
			m.vals[w] = append(m.vals[w], vals[k])
		}
		s.ApplyUpdates(seq, addrs, vals)
		heap.Store(addrs[1], vals[1]) // write-back, after apply
		heap.Store(addrs[0], vals[0])
		seq++
	}

	// History below the pin, held by an older snapshot so that the folds
	// free it only once the pin is the oldest.
	old := s.RetrieveSnapshot()
	for k := 0; k < 2*fresh; k++ {
		apply(rng.Intn(hot/2), hot/2+rng.Intn(hot/2))
	}
	sn := s.RetrieveSnapshot()
	s.ReleaseSnapshot(old)
	h := sn.Height()
	check := func() {
		t.Helper()
		for i := 0; i < words; i++ {
			if got, want := sn.Read(base+mem.Addr(i)), m.at(i, h); got != want {
				t.Fatalf("seq %d: snapshot at %d reads word %d = %d, model %d", seq, h, i, got, want)
			}
		}
	}
	check()
	// The first fold after the release frees the history below the pin.
	for folds := s.Stats().Compactions; s.Stats().Compactions == folds; {
		apply(rng.Intn(hot), rng.Intn(hot))
	}
	used, folds := s.used, s.Stats().Compactions

	var next atomic.Int64 // the fresh word written next
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := next.Load(); j < fresh; j = next.Load() {
			if v := sn.Read(base + mem.Addr(hot+j)); v != m.initial[hot+j] {
				t.Errorf("fresh word %d: pinned snapshot read %d during its first write, want %d", hot+j, v, m.initial[hot+j])
				return
			}
		}
	}()
	for j := 0; j < fresh; j++ {
		apply(rng.Intn(hot), hot+j) // the fresh word's head is stored last
		next.Store(int64(j + 1))
		if j%1024 == 0 {
			check()
			runtime.Gosched()
		}
	}
	wg.Wait()
	check()
	if got := s.Stats().Compactions - folds; got < 50 {
		t.Fatalf("%d folds while pinned, want at least 50", got)
	}
	if s.used != used {
		t.Fatalf("slab grew from %d to %d records while pinned: the applies did not recycle", used, s.used)
	}
	s.ReleaseSnapshot(sn)
}

func TestStatsShape(t *testing.T) {
	s, heap := newStore(t, 64, Config{})
	a, b := heap.MustAlloc(1), heap.MustAlloc(1)
	s.ApplyUpdates(0, []mem.Addr{a, b}, []mem.Word{1, 2})
	s.ApplyUpdates(1, []mem.Addr{a}, []mem.Word{3})
	st := s.Stats()
	if st.Chains != 2 || st.Versions != 3 || st.Height != 2 || st.Applies != 2 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func BenchmarkSnapshotRead(b *testing.B) {
	heap := mem.NewHeap(1 << 16)
	s, err := New(heap, Config{})
	if err != nil {
		b.Fatal(err)
	}
	base := heap.MustAlloc(1024)
	addrs := make([]mem.Addr, 1)
	vals := make([]mem.Word, 1)
	for seq := uint64(0); seq < 4096; seq++ {
		addrs[0] = base + mem.Addr(seq%1024)
		vals[0] = mem.Word(seq)
		s.ApplyUpdates(seq, addrs, vals)
	}
	sn := s.RetrieveSnapshot()
	defer s.ReleaseSnapshot(sn)
	b.ReportAllocs()
	b.ResetTimer()
	var sink mem.Word
	for i := 0; i < b.N; i++ {
		sink += sn.Read(base + mem.Addr(i&1023))
	}
	_ = sink
}

// BenchmarkApplyUpdates is the publish stage's store layer: 2-write applies
// at random addresses of a 65 536-word heap, every address already holding
// a chain, so most writes find a cold head; folds (every 4 096 applies)
// included.
func BenchmarkApplyUpdates(b *testing.B) {
	heap := mem.NewHeap(1 << 16)
	s, err := New(heap, Config{})
	if err != nil {
		b.Fatal(err)
	}
	base := heap.MustAlloc(1<<16 - 1)
	addrs := make([]mem.Addr, 2)
	vals := []mem.Word{1, 2}
	seq := uint64(0)
	for a := 0; a < 1<<16-1; a += 2 {
		addrs[0], addrs[1] = base+mem.Addr(a), base+mem.Addr((a+1)%(1<<16-1))
		s.ApplyUpdates(seq, addrs, vals)
		seq++
	}
	rng := uint64(88172645463325252)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range addrs {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			addrs[k] = base + mem.Addr(rng%(1<<16-1))
		}
		s.ApplyUpdates(seq, addrs, vals)
		seq++
	}
}

func TestSnapshotReadZeroAllocs(t *testing.T) {
	heap := mem.NewHeap(1 << 10)
	s, err := New(heap, Config{})
	if err != nil {
		t.Fatal(err)
	}
	a := heap.MustAlloc(1)
	s.ApplyUpdates(0, []mem.Addr{a}, []mem.Word{9})
	sn := s.RetrieveSnapshot()
	defer s.ReleaseSnapshot(sn)
	n := testing.AllocsPerRun(1000, func() {
		if sn.Read(a) != 9 {
			t.Fatal("bad read")
		}
	})
	if n != 0 {
		t.Fatalf("Snapshot.Read allocates %v per call", n)
	}
}
