//go:build !race

// Steady-state allocation tests for the batched transport. They are
// excluded from race builds: the race runtime instruments allocations and
// makes AllocsPerRun meaningless there (the CI race lane still runs every
// functional test in this package).
package fpga

import "testing"

// TestValidateSlotPathZeroAllocs pins the transport's core guarantee: a
// warmed commit round trip on the committer's own slot — arm it, enqueue,
// run the pipeline in the caller (the combining path) — performs no heap
// allocation.
func TestValidateSlotPathZeroAllocs(t *testing.T) {
	t.Run("combine", func(t *testing.T) {
		e := startTest(t, Config{})
		var slot VerdictSlot
		reads := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
		writes := []uint64{11, 12, 13, 14}
		ts := uint64(0)
		roundTrip := func() {
			r := req(ts, reads, writes)
			r.Slot = &slot
			r.Gen = slot.Prepare()
			if _, err := e.Validate(r); err != nil {
				t.Fatal(err)
			}
			ts++
		}
		// Warm: the first Prepare lazily builds the wake channel.
		for i := 0; i < 200; i++ {
			roundTrip()
		}
		if avg := testing.AllocsPerRun(200, roundTrip); avg != 0 {
			t.Fatalf("slot round trip allocates %.2f objects/op, want 0", avg)
		}
	})
}

// TestValidatePooledPathZeroAllocs covers the convenience path (no slot):
// pooled slots make it allocation-free too once warm.
func TestValidatePooledPathZeroAllocs(t *testing.T) {
	e := startTest(t, Config{})
	reads := []uint64{21, 22, 23}
	writes := []uint64{31, 32}
	ts := uint64(0)
	roundTrip := func() {
		if _, err := e.Validate(req(ts, reads, writes)); err != nil {
			t.Fatal(err)
		}
		ts++
	}
	for i := 0; i < 64; i++ {
		roundTrip()
	}
	if avg := testing.AllocsPerRun(200, roundTrip); avg != 0 {
		t.Fatalf("pooled round trip allocates %.2f objects/op, want 0", avg)
	}
}
