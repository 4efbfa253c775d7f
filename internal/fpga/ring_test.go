package fpga

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRingConcurrentPushPop drives the MPMC ring with many producers and
// consumers at once (the engine's real topology during Close: a combiner's
// final drain, the close sweep and late committers all touch the ring
// concurrently) and checks that every accepted request is consumed exactly
// once.
func TestRingConcurrentPushPop(t *testing.T) {
	const (
		producers = 4
		consumers = 3
		perProd   = 2000
	)
	r := newRing(8) // tiny: force wraparound and full/empty races
	var accepted, popped atomic.Uint64
	var consumed sync.Map
	stop := make(chan struct{})

	pop := func() bool {
		req, ok := r.tryPop()
		if !ok {
			return false
		}
		if _, dup := consumed.LoadOrStore(req.Token, true); dup {
			t.Errorf("token %d consumed twice", req.Token)
		}
		popped.Add(1)
		return true
	}

	var prodWG, consWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			for i := 0; i < perProd; i++ {
				if r.tryPush(Request{Token: uint64(p*perProd + i)}) {
					accepted.Add(1)
				}
			}
		}(p)
	}
	for c := 0; c < consumers; c++ {
		consWG.Add(1)
		go func() {
			defer consWG.Done()
			for {
				if pop() {
					continue
				}
				select {
				case <-stop:
					// Final drain: take whatever is still in the ring.
					for pop() {
					}
					return
				default:
				}
			}
		}()
	}
	prodWG.Wait()
	close(stop)
	consWG.Wait()
	if popped.Load() != accepted.Load() {
		t.Fatalf("accepted %d, consumed %d", accepted.Load(), popped.Load())
	}
}

// TestRingSubmitDrainCrashStress hammers the submission ring with its roles
// split apart — submitters that only push, drainers that only run the
// pipeline, and a Close/Restart loop — so the terminal-verdict guarantee is
// checked without a committer draining its own request: every accepted
// request resolves (a real verdict or ReasonClosed), none hangs, and none
// is answered twice.
func TestRingSubmitDrainCrashStress(t *testing.T) {
	e := startTest(t, Config{W: 8}).withDepth(8)
	const (
		submitters = 4
		drainers   = 2
		iters      = 500
	)
	var stop atomic.Bool
	var drainWG sync.WaitGroup
	for d := 0; d < drainers; d++ {
		drainWG.Add(1)
		go func() {
			defer drainWG.Done()
			for !stop.Load() {
				if e.mu.TryLock() {
					e.drain(e.port.Load())
					e.unlock()
				}
				runtime.Gosched()
			}
		}()
	}
	var resolved atomic.Uint64
	answered := make([][]chan Verdict, submitters)
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			reads := []uint64{uint64(w) << 32}
			for i := 0; i < iters; i++ {
				reply := make(chan Verdict, 2) // room for a duplicate to show
				r := Request{
					Token:     uint64(w)<<32 | uint64(i),
					ValidTS:   ^uint64(0), // always inside any window
					ReadAddrs: reads,
					Reply:     reply,
				}
				if err := e.enqueue(e.port.Load(), r); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("submitter %d: %v", w, err)
						return
					}
					runtime.Gosched() // down: wait for the restart
					continue
				}
				// Accepted: the engine owes it a terminal verdict even across
				// crashes. Bound the wait so a broken transport fails the
				// test instead of hanging it.
				select {
				case v := <-reply:
					if v.Token != r.Token {
						t.Errorf("submitter %d: verdict token %#x for request %#x", w, v.Token, r.Token)
						return
					}
				case <-time.After(10 * time.Second):
					t.Errorf("submitter %d: accepted request %d never resolved", w, i)
					return
				}
				answered[w] = append(answered[w], reply)
				resolved.Add(1)
			}
		}(w)
	}
	for i := 0; i < 40; i++ {
		time.Sleep(500 * time.Microsecond)
		e.Close()
		e.Restart(0)
	}
	wg.Wait()
	stop.Store(true)
	drainWG.Wait()
	e.Close() // a late duplicate would land by now
	for w, replies := range answered {
		for _, c := range replies {
			if len(c) != 0 {
				t.Fatalf("submitter %d: an accepted request was answered twice (%+v)", w, <-c)
			}
		}
	}
	if resolved.Load() == 0 {
		t.Fatal("no request ever resolved")
	}
}
