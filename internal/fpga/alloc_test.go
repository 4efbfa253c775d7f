//go:build !race

// Steady-state allocation test for the engine's round trip. It is excluded
// from race builds: the race runtime instruments allocations and makes
// AllocsPerRun meaningless there (the CI race lane still runs every
// functional test in this package).
package fpga

import "testing"

// TestValidateZeroAllocs pins the engine's core guarantee: a warmed commit
// round trip through Validate performs no heap allocation.
func TestValidateZeroAllocs(t *testing.T) {
	e := startTest(t, Config{})
	reads := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	writes := []uint64{11, 12, 13, 14}
	roundTrip := func() {
		if _, err := e.Validate(req(uint64(e.pl.NextSeq()), reads, writes)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		roundTrip()
	}
	if avg := testing.AllocsPerRun(200, roundTrip); avg != 0 {
		t.Fatalf("Validate round trip allocates %.2f objects/op, want 0", avg)
	}
}
