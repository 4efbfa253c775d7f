//go:build !race

// Steady-state allocation test for the apply path. Excluded from race
// builds: the race runtime instruments allocations and makes AllocsPerRun
// meaningless there.
package mvstore

import (
	"testing"

	"rococotm/internal/mem"
)

// TestApplyUpdatesZeroAllocs: once the free list holds recycled records,
// applying allocates nothing — onto existing chains and as the first write
// to a fresh address alike — across three folds per measured run, each of
// which refills the free list and empties the dirty list in place. Every
// record the measured runs take comes off the free list: the slab's
// high-water mark does not move.
func TestApplyUpdatesZeroAllocs(t *testing.T) {
	const every = 8
	s, heap := newStore(t, 4096, Config{CompactEvery: every})
	base := heap.MustAlloc(16)
	fresh := heap.MustAlloc(2048)
	addrs := make([]mem.Addr, 4)
	vals := make([]mem.Word, 4)
	seq := uint64(0)
	run := func() {
		for k := 0; k < 3*every; k++ {
			for j := 0; j < 3; j++ {
				addrs[j] = base + mem.Addr((int(seq)+5*j)%16)
			}
			addrs[3] = fresh // a first write
			fresh++
			for j := range vals {
				vals[j] = mem.Word(seq)
			}
			s.ApplyUpdates(seq, addrs, vals)
			seq++
		}
	}
	// Grow the slab and the lists under a pin, then let the folds free it.
	sn := s.RetrieveSnapshot()
	for k := 0; k < 16; k++ {
		run()
	}
	s.ReleaseSnapshot(sn)
	run()
	folds, used := s.Stats().Compactions, s.used
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("ApplyUpdates allocates %v per %d applies", n, 3*every)
	}
	if got := s.Stats().Compactions - folds; got < 2*21 {
		t.Fatalf("%d folds during the measured runs, want at least %d", got, 2*21)
	}
	if s.used != used {
		t.Fatalf("slab grew from %d to %d records: the measured runs did not recycle", used, s.used)
	}
}
