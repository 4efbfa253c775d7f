//go:build !race

// Allocation probe for the admitted request path. Excluded from race
// builds: the race runtime instruments allocations and makes AllocsPerRun
// meaningless there.
package serve_test

import (
	"testing"
	"time"

	"rococotm/internal/mem"
	"rococotm/internal/rococotm"
	"rococotm/internal/serve"
	"rococotm/internal/tm"
)

// noopDoAllocs is what one admitted no-op Do allocates: nothing. The
// request runs on the caller's goroutine under a thread id from the
// server's pool, so there is no record or channel to hand it off with,
// and tm.RunUntil checks the deadline against the clock, with no context
// or timer.
const noopDoAllocs = 0

func TestNoopDoAllocs(t *testing.T) {
	h := mem.NewHeap(1 << 10)
	m := rococotm.New(h, rococotm.Config{MaxThreads: 4})
	defer m.Close()
	s := serve.NewTuned(m, serve.Config{Workers: 1}, serve.Tuning{AdaptEvery: time.Hour})
	defer s.Close()
	req := serve.Request{Class: serve.High, Budget: time.Second, Fn: func(tm.Txn) error { return nil }}
	do := func() {
		if out, err := s.Do(req); out != serve.Committed {
			t.Fatalf("outcome %v err %v", out, err)
		}
	}
	do()
	if n := testing.AllocsPerRun(1000, do); n != noopDoAllocs {
		t.Fatalf("admitted no-op Do allocates %v, want %d", n, noopDoAllocs)
	}
}
