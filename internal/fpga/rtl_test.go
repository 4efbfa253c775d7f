package fpga

import (
	"math/rand"
	"testing"
)

// randRequests builds a deterministic stream of requests with varying
// footprints and snapshot ages.
func randRequests(n int, seed int64) []Request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]Request, n)
	committed := 0
	for i := range reqs {
		var reads, writes []uint64
		for j := 0; j < 1+rng.Intn(10); j++ {
			reads = append(reads, uint64(rng.Intn(300)))
		}
		for j := 0; j < rng.Intn(6); j++ {
			writes = append(writes, uint64(rng.Intn(300)))
		}
		// ValidTS somewhere between "stale by a few commits" and current.
		lag := rng.Intn(8)
		ts := committed - lag
		if ts < 0 {
			ts = 0
		}
		reqs[i] = Request{Token: uint64(i), ValidTS: uint64(ts),
			ReadAddrs: reads, WriteAddrs: writes}
		// Track a rough upper bound of commits for ValidTS realism; the
		// exact count does not matter for the equivalence check.
		committed++
	}
	return reqs
}

// TestRTLEquivalentToBehavioralEngine: the pipelined cycle-level model and
// the serial behavioral engine must return identical verdicts for the same
// request stream — the paper's claim that pipelining does not change the
// validation semantics ("each transaction commits atomically, while a
// non-blocking pipeline is maintained", §4.2).
func TestRTLEquivalentToBehavioralEngine(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		cfg := Config{w: 16}
		eng, err := Start(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rtl := NewRTL(cfg)

		reqs := randRequests(400, seed)
		replies := make([]chan Verdict, len(reqs))
		for i, req := range reqs {
			replies[i] = make(chan Verdict, 1)
			req.Reply = replies[i]
			if err := rtl.Offer(req); err != nil {
				t.Fatal(err)
			}
		}
		rtl.Drain()

		for i, req := range reqs {
			want := eng.Process(Request{Token: req.Token, ValidTS: req.ValidTS,
				ReadAddrs: req.ReadAddrs, WriteAddrs: req.WriteAddrs})
			got := <-replies[i]
			if got.OK != want.OK || got.Reason != want.Reason ||
				(got.OK && got.Seq != want.Seq) {
				t.Fatalf("seed %d req %d: rtl %+v, behavioral %+v", seed, i, got, want)
			}
		}
		if rtl.Retired() != uint64(len(reqs)) {
			t.Fatalf("retired %d of %d", rtl.Retired(), len(reqs))
		}
		eng.Close()
	}
}

// TestRTLPipelines: with requests fed back-to-back, total cycles approach
// max(total beats, one retirement per cycle) rather than the serial
// sum of per-request latencies — initiation interval ≈ 1.
func TestRTLPipelines(t *testing.T) {
	cfg := Config{w: 64}
	rtl := NewRTL(cfg)
	const n = 200
	totalBeats := 0
	for i := 0; i < n; i++ {
		// 8 reads + 8 writes = 2 beats per request, disjoint addresses.
		var reads, writes []uint64
		for j := 0; j < 8; j++ {
			reads = append(reads, uint64(i*100+j))
			writes = append(writes, uint64(i*100+50+j))
		}
		req := Request{Token: uint64(i), ValidTS: uint64(i),
			ReadAddrs: reads, WriteAddrs: writes,
			Reply: make(chan Verdict, 1)}
		if err := rtl.Offer(req); err != nil {
			t.Fatal(err)
		}
		totalBeats += 2
	}
	cycles := rtl.Drain()
	// Serial execution would cost ≈ n × (beats + depth) ≈ n×10; the
	// pipeline should be within a small factor of the beat total.
	if cycles > uint64(2*totalBeats+16) {
		t.Fatalf("cycles = %d for %d beats: not pipelined", cycles, totalBeats)
	}
	if cycles < uint64(n) {
		t.Fatalf("cycles = %d below one retirement per request", cycles)
	}
}

func TestRTLRequiresBufferedReply(t *testing.T) {
	rtl := NewRTL(Config{})
	if err := rtl.Offer(Request{}); err == nil {
		t.Fatal("nil reply accepted")
	}
	if err := rtl.Offer(Request{Reply: make(chan Verdict)}); err == nil {
		t.Fatal("unbuffered reply accepted")
	}
}

func TestRTLEmptyFootprint(t *testing.T) {
	rtl := NewRTL(Config{})
	reply := make(chan Verdict, 1)
	if err := rtl.Offer(Request{ValidTS: 0, Reply: reply}); err != nil {
		t.Fatal(err)
	}
	rtl.Drain()
	v := <-reply
	if !v.OK || v.Seq != 0 {
		t.Fatalf("empty request verdict %+v", v)
	}
}

func TestRTLWindowOverflow(t *testing.T) {
	cfg := Config{w: 2}
	rtl := NewRTL(cfg)
	var replies []chan Verdict
	for i := 0; i < 4; i++ {
		c := make(chan Verdict, 1)
		replies = append(replies, c)
		if err := rtl.Offer(Request{ValidTS: uint64(i),
			WriteAddrs: []uint64{uint64(10 * i)}, Reply: c}); err != nil {
			t.Fatal(err)
		}
	}
	// A straggler whose snapshot predates the window base.
	c := make(chan Verdict, 1)
	if err := rtl.Offer(Request{ValidTS: 0, ReadAddrs: []uint64{999}, Reply: c}); err != nil {
		t.Fatal(err)
	}
	rtl.Drain()
	for _, rc := range replies {
		if v := <-rc; !v.OK {
			t.Fatalf("filler rejected: %+v", v)
		}
	}
	if v := <-c; v.OK || v.Reason != "window" {
		t.Fatalf("straggler verdict %+v, want window abort", v)
	}
}

func BenchmarkRTLTick(b *testing.B) {
	rtl := NewRTL(Config{})
	for i := 0; i < 32; i++ {
		rtl.Offer(Request{Token: uint64(i), ValidTS: uint64(i),
			ReadAddrs: []uint64{1, 2, 3, 4}, WriteAddrs: []uint64{5, 6},
			Reply: make(chan Verdict, 1)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rtl.InFlight() == 0 {
			b.StopTimer()
			for j := 0; j < 32; j++ {
				rtl.Offer(Request{Token: uint64(j), ValidTS: rtlBenchTS(rtl),
					ReadAddrs: []uint64{1, 2, 3, 4}, WriteAddrs: []uint64{5, 6},
					Reply: make(chan Verdict, 1)})
			}
			b.StartTimer()
		}
		rtl.Tick()
	}
}

func rtlBenchTS(r *RTL) uint64 { return r.Retired() }
