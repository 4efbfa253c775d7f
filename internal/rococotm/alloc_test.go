//go:build !race

// Steady-state allocation tests for the commit hot path. Excluded from
// race builds: the race runtime instruments allocations and makes
// AllocsPerRun meaningless there (the CI race lane still runs every
// functional test in this package).
package rococotm

import (
	"testing"

	"rococotm/internal/mem"
	"rococotm/internal/tm"
)

// treeReads is a tree descent's read shape: 40 reads over 24 addresses,
// revisiting the top of the path the way a red-black tree operation
// re-reads its root and parents.
func treeReads(x tm.Txn, base mem.Addr) (mem.Word, error) {
	var sum mem.Word
	for i := 0; i < 40; i++ {
		v, err := x.Read(base + mem.Addr(i%24))
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// rewrites is a 12-write shape over 8 addresses: four rewrites and, after
// every third write, a read-your-writes read.
func rewrites(x tm.Txn, base mem.Addr) error {
	for i := 0; i < 12; i++ {
		if err := x.Write(base+mem.Addr(i%8), mem.Word(i)); err != nil {
			return err
		}
		if i%3 == 2 {
			if _, err := x.Read(base + mem.Addr(i%8)); err != nil {
				return err
			}
		}
	}
	return nil
}

// runAllocProbe measures three warmed Begin/access/Commit cycles on the
// given runtime — a read-modify-write of one word, a 40-read descent with
// repeats and one write, and the 12-write shape with rewrites and
// read-your-writes — and fails if any allocates.
func runAllocProbe(t *testing.T, m *TM) {
	t.Helper()
	a := m.Heap().MustAlloc(4)
	b := m.Heap().MustAlloc(4)
	tree := m.Heap().MustAlloc(24)
	w := m.Heap().MustAlloc(8)
	for _, c := range []struct {
		name string
		body func(x tm.Txn) error
	}{
		{"read-modify-write", func(x tm.Txn) error {
			v, err := x.Read(a)
			if err != nil {
				return err
			}
			return x.Write(b, v+1)
		}},
		{"40 reads with repeats", func(x tm.Txn) error {
			v, err := treeReads(x, tree)
			if err != nil {
				return err
			}
			return x.Write(b, v)
		}},
		{"12 writes with rewrites", func(x tm.Txn) error { return rewrites(x, w) }},
	} {
		cycle := func() {
			x, err := m.Begin(0)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.body(x); err != nil {
				t.Fatal(err)
			}
			if err := m.Commit(x); err != nil {
				t.Fatal(err)
			}
		}
		// Warm: first iterations grow the address sets, their indexes and
		// sub-signature spares, the redo log and the engine's batch buffers.
		for i := 0; i < 128; i++ {
			cycle()
		}
		if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
			t.Fatalf("%s commit cycle allocates %.2f objects/op, want 0", c.name, avg)
		}
	}
}

// TestCommitPathZeroAllocs pins the headline CPU-side guarantee of the
// batched transport: a warmed single-thread read-modify-write transaction
// commits through the engine with zero heap allocations.
func TestCommitPathZeroAllocs(t *testing.T) {
	m := New(mem.NewHeap(1<<10), Config{MaxThreads: 2})
	defer m.Close()
	runAllocProbe(t, m)
}

// TestDurableCommitZeroAllocs: on a durable runtime a warmed 2r/2w commit
// also appends its log record and applies its versions to the
// multi-version store, and still allocates nothing.
func TestDurableCommitZeroAllocs(t *testing.T) {
	m, _ := newDurableTM(t, 1<<12, false)
	defer m.Close()
	commit := transfers(t, m, m.Heap().MustAlloc(64), 64)
	for i := 0; i < 1024; i++ {
		commit()
	}
	if avg := testing.AllocsPerRun(2000, commit); avg != 0 {
		t.Fatalf("durable commit allocates %.2f objects/op, want 0", avg)
	}
}

// TestAbortingCommitZeroAllocs: an engine-path abort hands back a preallocated
// error and counts itself in an array slot, so a commit the engine rejects —
// here one half of a write skew, a cycle — allocates nothing either.
func TestAbortingCommitZeroAllocs(t *testing.T) {
	m := New(mem.NewHeap(1<<10), Config{MaxThreads: 2})
	defer m.Close()
	a := m.Heap().MustAlloc(4)
	b := m.Heap().MustAlloc(4)
	begin := func(thread int, read, write mem.Addr) tm.Txn {
		x, err := m.Begin(thread)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.Read(read); err != nil {
			t.Fatal(err)
		}
		if err := x.Write(write, 1); err != nil {
			t.Fatal(err)
		}
		return x
	}
	cycle := func() {
		x0, x1 := begin(0, a, b), begin(1, b, a)
		if err := m.Commit(x1); err != nil {
			t.Fatal(err)
		}
		if code, ok := tm.CodeOf(m.Commit(x0)); !ok || code != tm.CodeCycle {
			t.Fatalf("the skewed commit ended with %v/%v, want a cycle abort", code, ok)
		}
	}
	for i := 0; i < 128; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("aborting commit cycle allocates %.2f objects/op, want 0", avg)
	}
}

// TestReadOnlyPathZeroAllocs: read-only transactions never touch the
// engine; their whole lifecycle must be allocation-free once warm, for one
// read and for a 40-read descent with repeats.
func TestReadOnlyPathZeroAllocs(t *testing.T) {
	m := New(mem.NewHeap(1<<10), Config{MaxThreads: 2})
	defer m.Close()
	a := m.Heap().MustAlloc(1)
	tree := m.Heap().MustAlloc(24)
	for _, c := range []struct {
		name string
		body func(x tm.Txn) error
	}{
		{"one read", func(x tm.Txn) error {
			_, err := x.Read(a)
			return err
		}},
		{"40 reads with repeats", func(x tm.Txn) error {
			_, err := treeReads(x, tree)
			return err
		}},
	} {
		cycle := func() {
			if err := tm.Run(m, 0, c.body); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ {
			cycle()
		}
		if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
			t.Fatalf("%s read-only cycle allocates %.2f objects/op, want 0", c.name, avg)
		}
	}
}

// TestLaggedReadZeroAllocs: a read that finds a commit landed since the
// previous one extends the snapshot, which signs the reads recorded since
// the last extension and intersects them with the commit's write signature
// (addrSet.sign, addrSet.overlaps). Once warm that allocates nothing:
// sub-signatures are grown by insert, on the access, never by sign. Here
// another thread's commit lands before every eighth of 40 reads.
func TestLaggedReadZeroAllocs(t *testing.T) {
	m := New(mem.NewHeap(1<<10), Config{MaxThreads: 2})
	defer m.Close()
	reads := m.Heap().MustAlloc(40)
	w := m.Heap().MustAlloc(1)
	cycle := func() {
		x, err := m.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if i%8 == 7 {
				if err := tm.Run(m, 1, func(y tm.Txn) error { return y.Write(w, mem.Word(i)) }); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := x.Read(reads + mem.Addr(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Commit(x); err != nil {
			t.Fatal(err)
		}
		// The last extension, at read 39, signed the 39 reads before it.
		if n := x.(*txn).reads.signed; n != 39 {
			t.Fatalf("extensions signed %d reads, want 39", n)
		}
	}
	for i := 0; i < 128; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("lagged read-only cycle allocates %.2f objects/op, want 0", avg)
	}
}

// TestGroupReleaseZeroAllocs: the no-sink publication stage — a turn-holder
// publishing itself and a pre-published successor, then releasing both —
// must not allocate.
func TestGroupReleaseZeroAllocs(t *testing.T) {
	m := New(mem.NewHeap(1<<10), Config{MaxThreads: 2})
	defer m.Close()
	base := m.Heap().MustAlloc(4)
	p0 := stagePub(m, 0, base, base+1, 10)
	p1 := stagePub(m, 0, base+2, base+3, 11)
	cycle := func() {
		s := m.GlobalTS()
		m.arm(1, s+1, p1.ws)
		m.publishSlot(s+1, p1.ws, p1) // what await does before it waits
		m.arm(0, s, p0.ws)
		if !m.await(s, p0) {
			t.Fatal("holder did not get its turn")
		}
		m.publish(s, p0)
		m.release(s)
		m.disarm(0)
		m.disarm(1)
		if m.GlobalTS() != s+2 {
			t.Fatal("group was not released")
		}
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("group release allocates %.2f objects/op, want 0", avg)
	}
}
