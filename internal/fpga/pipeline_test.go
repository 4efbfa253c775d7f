package fpga

import (
	"math/rand"
	"testing"
)

// TestRingPathMatchesEntryProbes runs one random request stream — overlapping
// footprints over a few dozen addresses, snapshots from current to past the
// window, snapshots ahead of the window, and a ResetAt at a base that is not
// a multiple of 64 — through the columnar ring path and through the
// per-entry probe path (the W > 64 backend, forced at the same W). The
// verdicts must be identical request for request.
func TestRingPathMatchesEntryProbes(t *testing.T) {
	for _, w := range []int{1, 7, 64} {
		ring, err := NewPipeline(Config{W: w})
		if err != nil {
			t.Fatal(err)
		}
		probe, _ := NewPipeline(Config{W: w})
		probe.useProbes()

		rng := rand.New(rand.NewSource(int64(w)))
		addrs := func(n int) []uint64 {
			out := make([]uint64, n)
			for i := range out {
				out[i] = uint64(rng.Intn(40))
			}
			return out
		}
		reasons := map[string]int{}
		for i := 0; i < 6000; i++ {
			if i == 3000 {
				ring.ResetAt(1000037)
				probe.ResetAt(1000037)
			}
			ts := uint64(ring.NextSeq())
			switch lag := uint64(rng.Intn(w + 6)); {
			case rng.Intn(50) == 0:
				ts += 3 // a snapshot ahead of every commit
			case lag <= ts:
				ts -= lag
			}
			r := Request{Token: uint64(i), ValidTS: ts,
				ReadAddrs: addrs(rng.Intn(5)), WriteAddrs: addrs(rng.Intn(4))}
			got, want := ring.Process(r), probe.Process(r)
			if got != want {
				t.Fatalf("W=%d request %d (%+v): ring %+v, probes %+v", w, i, r, got, want)
			}
			reasons[got.Reason]++
		}
		if reasons[""] == 0 || reasons[ReasonWindow] == 0 || (w > 1 && reasons[ReasonCycle] == 0) {
			t.Fatalf("W=%d: stream did not exercise every verdict: %v", w, reasons)
		}
	}
}
