package rococotm

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rococotm/internal/mem"
	"rococotm/internal/mvstore"
	"rococotm/internal/tm"
	"rococotm/internal/tmds"
	"rococotm/internal/wal"
)

// newDurableTM builds a runtime over a fresh MemDevice-backed WAL.
func newDurableTM(t testing.TB, heapWords int, syncCommit bool) (*TM, *wal.MemDevice) {
	t.Helper()
	heap := mem.NewHeap(heapWords)
	dev := wal.NewMemDevice(nil)
	d, _, err := RecoverDurable(dev, heap, wal.Options{FlushInterval: 100 * time.Microsecond},
		mvstore.Config{}, syncCommit)
	if err != nil {
		t.Fatal(err)
	}
	return New(heap, Config{Durable: d}), dev
}

func TestDurableCommitsLandInLog(t *testing.T) {
	m, dev := newDurableTM(t, 1<<12, true)
	a := m.Heap().MustAlloc(4)
	const n = 25
	for i := 0; i < n; i++ {
		if err := tm.Run(m, 0, func(x tm.Txn) error {
			v, err := x.Read(a)
			if err != nil {
				return err
			}
			return x.Write(a, v+1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := m.DurableStats()
	if !ok {
		t.Fatal("DurableStats not available")
	}
	if st.WAL.Appends != n || st.WAL.DurableSeq != n {
		t.Fatalf("WAL stats %+v, want %d appends all durable", st.WAL, n)
	}
	if st.Store.Height != n {
		t.Fatalf("store height %d, want %d", st.Store.Height, n)
	}
	m.Close()
	res, err := wal.Recover(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != n {
		t.Fatalf("recovered %d records, want %d", len(res.Records), n)
	}
	for i, rec := range res.Records {
		if rec.Seq != uint64(i) || len(rec.WriteAddrs) != 1 ||
			rec.WriteAddrs[0] != uint64(a) || rec.WriteVals[0] != uint64(i+1) {
			t.Fatalf("record %d wrong: %+v", i, rec)
		}
		if len(rec.Reads) != 1 || rec.Reads[0] != uint64(a) {
			t.Fatalf("record %d read footprint wrong: %+v", i, rec)
		}
	}
}

func TestDurableCrashRecoverResumes(t *testing.T) {
	heap := mem.NewHeap(1 << 12)
	dev := wal.NewMemDevice(nil)
	d, _, err := RecoverDurable(dev, heap, wal.Options{}, mvstore.Config{}, true)
	if err != nil {
		t.Fatal(err)
	}
	m := New(heap, Config{Durable: d})
	a := m.Heap().MustAlloc(1)
	for i := 0; i < 10; i++ {
		if err := tm.Run(m, 0, func(x tm.Txn) error {
			return x.Write(a, mem.Word(100+i))
		}); err != nil {
			t.Fatal(err)
		}
	}
	m.Close() // "crash": the device retains everything durable

	// Process restart: fresh heap, recover from the device.
	heap2 := mem.NewHeap(1 << 12)
	a2 := heap2.MustAlloc(1) // same bump-allocation order → same address
	if a2 != a {
		t.Fatalf("allocation order diverged: %d vs %d", a2, a)
	}
	d2, res, err := RecoverDurable(dev, heap2, wal.Options{}, mvstore.Config{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 10 {
		t.Fatalf("replayed %d records, want 10", len(res.Records))
	}
	if got := heap2.Load(a2); got != 109 {
		t.Fatalf("recovered heap value %d, want 109", got)
	}
	m2 := New(heap2, Config{Durable: d2})
	defer m2.Close()
	if m2.GlobalTS() != 10 {
		t.Fatalf("GlobalTS reseeded to %d, want 10", m2.GlobalTS())
	}
	// The runtime must keep committing, with contiguous sequences.
	if err := tm.Run(m2, 0, func(x tm.Txn) error {
		v, err := x.Read(a2)
		if err != nil {
			return err
		}
		return x.Write(a2, v+1)
	}); err != nil {
		t.Fatal(err)
	}
	if m2.GlobalTS() != 11 {
		t.Fatalf("GlobalTS after post-recovery commit = %d, want 11", m2.GlobalTS())
	}
	if got := heap2.Load(a2); got != 110 {
		t.Fatalf("post-recovery commit value %d, want 110", got)
	}
}

func TestMismatchedDurableHeightPanics(t *testing.T) {
	heap := mem.NewHeap(1 << 10)
	store, err := mvstore.New(heap, mvstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	log := wal.Open(wal.NewMemDevice(nil), 7, wal.Options{}) // log ahead of store
	defer log.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on log/store height mismatch")
		}
	}()
	New(heap, Config{Durable: &Durable{Log: log, Store: store}})
}

func TestSnapshotReadsNeverAbort(t *testing.T) {
	m, _ := newDurableTM(t, 1<<14, false)
	defer m.Close()
	const accounts = 16
	const total = 1000 * accounts
	base := m.Heap().MustAlloc(accounts)
	for i := 0; i < accounts; i++ {
		m.Heap().Store(base+mem.Addr(i), 1000)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	var roRuns, writerCommits atomic.Uint64
	// Writers shuffle money between accounts; the balance is invariant.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(thread int) {
			defer wg.Done()
			rng := uint64(thread*2654435761 + 1)
			for !stop.Load() {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				from := mem.Addr(rng % accounts)
				to := mem.Addr((rng >> 8) % accounts)
				if from == to {
					continue
				}
				err := tm.Run(m, thread, func(x tm.Txn) error {
					fv, err := x.Read(base + from)
					if err != nil {
						return err
					}
					tv, err := x.Read(base + to)
					if err != nil {
						return err
					}
					if fv == 0 {
						return nil
					}
					if err := x.Write(base+from, fv-1); err != nil {
						return err
					}
					return x.Write(base+to, tv+1)
				})
				if err != nil {
					t.Errorf("writer: %v", err)
					stop.Store(true)
					return
				}
				writerCommits.Add(1)
			}
		}(w)
	}
	// Snapshot readers sum all accounts; any snapshot must see the exact
	// invariant total, and no run may ever abort or retry.
	for rdr := 0; rdr < 3; rdr++ {
		wg.Add(1)
		go func(thread int) {
			defer wg.Done()
			for !stop.Load() {
				err := tm.RunReadOnly(m, thread, func(x tm.Txn) error {
					var sum mem.Word
					for i := 0; i < accounts; i++ {
						v, err := x.Read(base + mem.Addr(i))
						if err != nil {
							return err
						}
						sum += v
					}
					if sum != total {
						t.Errorf("snapshot sum %d != %d (torn view)", sum, total)
						stop.Store(true)
					}
					return nil
				})
				if err != nil {
					t.Errorf("read-only run failed: %v", err)
					stop.Store(true)
					return
				}
				roRuns.Add(1)
			}
		}(4 + rdr)
	}
	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if roRuns.Load() == 0 || writerCommits.Load() == 0 {
		t.Fatalf("no overlap: %d read-only runs, %d writer commits", roRuns.Load(), writerCommits.Load())
	}
	// The snapshot path must not have touched the transactional counters:
	// zero aborts attributable to read-only runs, and in fact zero starts.
	st := m.Stats()
	if st.Starts != st.Commits+st.Aborts {
		t.Fatalf("counter imbalance: %+v", st)
	}
	if dst, _ := m.DurableStats(); dst.Store.Pins != 0 {
		t.Fatalf("leaked snapshot pins: %d", dst.Store.Pins)
	}
}

func TestRunReadOnlyRejectsWrites(t *testing.T) {
	m, _ := newDurableTM(t, 1<<10, false)
	defer m.Close()
	a := m.Heap().MustAlloc(1)
	err := tm.RunReadOnly(m, 0, func(x tm.Txn) error {
		return x.Write(a, 1)
	})
	if !errors.Is(err, tm.ErrReadOnlyWrite) {
		t.Fatalf("got %v, want ErrReadOnlyWrite", err)
	}
	if dst, _ := m.DurableStats(); dst.Store.Pins != 0 {
		t.Fatalf("snapshot pin leaked on error path: %d", dst.Store.Pins)
	}
}

func TestRunReadOnlyFallbackWithoutSnapshots(t *testing.T) {
	// A runtime without Durable has no snapshots; RunReadOnly must fall
	// back to a plain transaction and still reject writes.
	m := New(mem.NewHeap(1<<10), Config{})
	defer m.Close()
	a := m.Heap().MustAlloc(1)
	m.Heap().Store(a, 42)
	var got mem.Word
	if err := tm.RunReadOnly(m, 0, func(x tm.Txn) error {
		v, err := x.Read(a)
		got = v
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("fallback read %d, want 42", got)
	}
	if err := tm.RunReadOnly(m, 0, func(x tm.Txn) error {
		return x.Write(a, 1)
	}); !errors.Is(err, tm.ErrReadOnlyWrite) {
		t.Fatal("fallback path accepted a write")
	}
	// Refusing the snapshot allocates nothing, and neither does the
	// read-only attempt BeginReadOnly hands the closure: no wrapper.
	if avg := testing.AllocsPerRun(200, func() {
		if err := tm.RunReadOnly(m, 0, twoReads(a, a)); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("RunReadOnly without a store allocates %.1f objects per call, want 0", avg)
	}
}

// TestRunReadOnlySnapshotAllocs pins what a read-only transaction served
// from a durable store's snapshot allocates: the snapshot handle and the
// Txn wrapping it.
func TestRunReadOnlySnapshotAllocs(t *testing.T) {
	m, _ := newDurableTM(t, 1<<10, false)
	defer m.Close()
	a := m.Heap().MustAlloc(16)
	read := twoReads(a, a+8)
	if avg := testing.AllocsPerRun(200, func() {
		if err := tm.RunReadOnly(m, 0, read); err != nil {
			t.Fatal(err)
		}
	}); avg != 2 {
		t.Errorf("RunReadOnly from a snapshot allocates %.1f objects per call, want 2", avg)
	}
}

// twoReads is a read-only transaction body reading a and b.
func twoReads(a, b mem.Addr) func(tm.Txn) error {
	return func(x tm.Txn) error {
		if _, err := x.Read(a); err != nil {
			return err
		}
		_, err := x.Read(b)
		return err
	}
}

// transfers returns a 2-read/2-write transfer between neighbouring
// accounts of n at base, committed on thread 0; each call moves one
// account along.
func transfers(t testing.TB, m *TM, base mem.Addr, n int) func() {
	i := 0
	return func() {
		from, to := base+mem.Addr(i%n), base+mem.Addr((i+1)%n)
		i++
		x, err := m.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		a, err := x.Read(from)
		if err != nil {
			t.Fatal(err)
		}
		b, err := x.Read(to)
		if err != nil {
			t.Fatal(err)
		}
		if err := x.Write(from, a-1); err != nil {
			t.Fatal(err)
		}
		if err := x.Write(to, b+1); err != nil {
			t.Fatal(err)
		}
		if err := m.Commit(x); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkDurableCommit is one thread's 2r/2w commit on a durable
// runtime: the commit path plus the log append and the multi-version
// store's apply, with the group-commit flusher beside it.
func BenchmarkDurableCommit(b *testing.B) {
	m, _ := newDurableTM(b, 1<<12, false)
	defer m.Close()
	commit := transfers(b, m, m.Heap().MustAlloc(64), 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commit()
	}
}

// BenchmarkRunReadOnly is the read-only entry on a runtime without a
// durable store: the snapshot is refused and two reads run as a read-only
// attempt (BeginReadOnly) whose empty write set commits on the CPU.
func BenchmarkRunReadOnly(b *testing.B) {
	m := New(mem.NewHeap(1<<12), Config{MaxThreads: 2})
	defer m.Close()
	a := m.Heap().MustAlloc(16)
	read := twoReads(a, a+8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tm.RunReadOnly(m, 0, read); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunReadOnlyFind is index-engine's read-only operation one
// layer down: a red-black-tree Find through tm.RunReadOnly on a tree of
// 2^14 keys (the even ones below 2^15; half the lookups hit), on a runtime
// without a durable store, so each Find is a read-only attempt of about 30
// reads.
func BenchmarkRunReadOnlyFind(b *testing.B) {
	const keys = 1 << 14
	m := New(mem.NewHeap(1<<17), Config{MaxThreads: 1})
	defer m.Close()
	tree, err := tmds.NewRBTree(m.Heap())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(14))
	for _, i := range rng.Perm(keys) {
		k := mem.Word(2 * i)
		if err := tm.Run(m, 0, func(x tm.Txn) error {
			_, err := tree.Insert(x, k, k+1)
			return err
		}); err != nil {
			b.Fatal(err)
		}
	}
	var k mem.Word
	find := func(x tm.Txn) error {
		v, hit, err := tree.Find(x, k)
		if err == nil && hit && v != k+1 {
			b.Fatalf("Find(%d) = %d, want %d", k, v, k+1)
		}
		return err
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k = mem.Word(rng.Intn(2 * keys))
		if err := tm.RunReadOnly(m, 0, find); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDurableConcurrentCommits(t *testing.T) {
	m, dev := newDurableTM(t, 1<<14, true)
	const threads = 4
	const perThread = 50
	base := m.Heap().MustAlloc(threads)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(thread int) {
			defer wg.Done()
			a := base + mem.Addr(thread)
			for i := 0; i < perThread; i++ {
				if err := tm.Run(m, thread, func(x tm.Txn) error {
					v, err := x.Read(a)
					if err != nil {
						return err
					}
					return x.Write(a, v+1)
				}); err != nil {
					t.Errorf("thread %d: %v", thread, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	m.Close()
	res, err := wal.Recover(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != threads*perThread {
		t.Fatalf("recovered %d records, want %d", len(res.Records), threads*perThread)
	}
	// Sequences must be contiguous from 0 (Replay enforces it; double-check
	// the final count) and per-address values must each reach perThread.
	heap2 := mem.NewHeap(1 << 14)
	base2 := heap2.MustAlloc(threads)
	if _, _, err := RecoverDurable(wal.NewMemDevice(mustContents(t, dev)), heap2,
		wal.Options{}, mvstore.Config{}, false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < threads; i++ {
		if got := heap2.Load(base2 + mem.Addr(i)); got != perThread {
			t.Fatalf("recovered counter %d = %d, want %d", i, got, perThread)
		}
	}
}

func mustContents(t *testing.T, dev wal.Device) []byte {
	t.Helper()
	b, err := dev.Contents()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
