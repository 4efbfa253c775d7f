//go:build !race

// Steady-state allocation test for the apply path. Excluded from race
// builds: the race runtime instruments allocations and makes AllocsPerRun
// meaningless there.
package mvstore

import (
	"testing"

	"rococotm/internal/mem"
)

// TestApplyUpdatesZeroAllocs: once every chain exists and its version
// arrays have grown to a fold interval's worth, applying onto those chains
// allocates nothing — across three folds per measured run, each of which
// empties the chains and the dirty list in place.
func TestApplyUpdatesZeroAllocs(t *testing.T) {
	const every = 8
	s, heap := newStore(t, 64, Config{Shards: 4, CompactEvery: every})
	base := heap.MustAlloc(16)
	addrs := make([]mem.Addr, 3)
	vals := make([]mem.Word, 3)
	seq := uint64(0)
	run := func() {
		for k := 0; k < 3*every; k++ {
			for j := range addrs {
				addrs[j] = base + mem.Addr((int(seq)+5*j)%16)
				vals[j] = mem.Word(seq)
			}
			s.ApplyUpdates(seq, addrs, vals)
			seq++
		}
	}
	run() // create the chains and grow their arrays
	folds := s.Stats().Compactions
	if n := testing.AllocsPerRun(20, run); n != 0 {
		t.Fatalf("ApplyUpdates allocates %v per %d applies", n, 3*every)
	}
	if got := s.Stats().Compactions - folds; got < 2*21 {
		t.Fatalf("%d folds during the measured runs, want at least %d", got, 2*21)
	}
}
