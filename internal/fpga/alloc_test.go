//go:build !race

// Steady-state allocation tests for the batched transport. They are
// excluded from race builds: the race runtime instruments allocations and
// makes AllocsPerRun meaningless there (the CI race lane still runs every
// functional test in this package).
package fpga

import "testing"

// validatePaths runs roundTrip — one Validate of a request built by mk —
// warmed, on both of Validate's paths: "direct", a lone caller that runs
// the pipeline in place, and "combine", where a request already sits in the
// ring so the call arms a slot, enqueues and combines. Each path must take
// the route it names (counted by ring pushes) and allocate nothing.
func validatePaths(t *testing.T, mk func(ts uint64) Request) {
	for _, name := range []string{"direct", "combine"} {
		queued := name == "combine"
		t.Run(name, func(t *testing.T) {
			e := startTest(t, Config{})
			var other VerdictSlot
			roundTrip := func() {
				if queued {
					r := req(^uint64(0), nil, nil)
					r.Slot, r.Gen = &other, other.Prepare()
					if !e.port.Load().ring.tryPush(r) {
						t.Fatal("ring full")
					}
				}
				if _, err := e.Validate(mk(uint64(e.pl.NextSeq()))); err != nil {
					t.Fatal(err)
				}
			}
			// Warm: the first Prepare lazily builds the wake channel.
			for i := 0; i < 200; i++ {
				roundTrip()
			}
			ring := e.port.Load().ring
			pushed := ring.enq.Load()
			if avg := testing.AllocsPerRun(200, roundTrip); avg != 0 {
				t.Fatalf("%s round trip allocates %.2f objects/op, want 0", name, avg)
			}
			want := uint64(0)
			if queued {
				want = 2 * 201 // the filler and the call, per run plus AllocsPerRun's warm-up
			}
			if got := ring.enq.Load() - pushed; got != want {
				t.Fatalf("%s path pushed %d requests, want %d", name, got, want)
			}
		})
	}
}

// TestValidateSlotPathZeroAllocs pins the transport's core guarantee: a
// warmed commit round trip on the committer's own slot performs no heap
// allocation, run in place or armed, enqueued and combined.
func TestValidateSlotPathZeroAllocs(t *testing.T) {
	var slot VerdictSlot
	reads := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	writes := []uint64{11, 12, 13, 14}
	validatePaths(t, func(ts uint64) Request {
		r := req(ts, reads, writes)
		r.Slot = &slot
		return r
	})
}

// TestValidatePooledPathZeroAllocs covers the convenience path (no slot):
// pooled slots make it allocation-free too once warm.
func TestValidatePooledPathZeroAllocs(t *testing.T) {
	reads := []uint64{21, 22, 23}
	writes := []uint64{31, 32}
	validatePaths(t, func(ts uint64) Request { return req(ts, reads, writes) })
}
