package fpga

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCombineMatchesSerialProcess feeds one seeded request stream — stale
// and fresh snapshots over a small address space, so cycle and window
// verdicts occur — through Validate on one engine and through bare Process
// on another: the verdict streams must be identical, sequence for sequence.
// Validate must also do it without starting a goroutine.
func TestCombineMatchesSerialProcess(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := Config{W: 8}
	combined := startTest(t, cfg)
	serial := startTest(t, cfg)

	rng := rand.New(rand.NewSource(17))
	addrs := func(n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(rng.Intn(24))
		}
		return out
	}
	reasons := map[string]int{}
	for i := 0; i < 4000; i++ {
		next := uint64(serial.NextSeq())
		lag := uint64(rng.Intn(12))
		if lag > next {
			lag = next
		}
		r := Request{
			Token:      uint64(i),
			ValidTS:    next - lag,
			ReadAddrs:  addrs(rng.Intn(4)),
			WriteAddrs: addrs(rng.Intn(3)),
		}
		want := serial.Process(r)
		got, err := combined.Validate(r)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("request %d: Validate = %+v, Process = %+v", i, got, want)
		}
		reasons[got.Reason]++
	}
	if reasons[""] == 0 || reasons[ReasonCycle] == 0 || reasons[ReasonWindow] == 0 {
		t.Fatalf("stream did not exercise every verdict: %v", reasons)
	}
	if cs, ss := combined.Stats(), serial.Stats(); cs.Commits != ss.Commits || cs.ModelCycles != ss.ModelCycles {
		t.Fatalf("stats diverged: combined %+v, serial %+v", cs, ss)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("Validate started a goroutine: %d running, baseline %d", n, baseline)
	}
}

// TestCombineNoStrandingHammer runs far more committers than processors
// against one engine: combiners (Validate, on their own slot or a pooled
// one) and holders that take the pipeline lock without combining (Process,
// RecordFast, Stats, NextSeq). Every request must get exactly one verdict —
// a stranded waiter hangs the test — and the sequences handed out must be
// gap-free. The batch counters must describe the run.
func TestCombineNoStrandingHammer(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const (
				workers = 48
				iters   = 150
				depth   = 16 // shallower than the worker count: exercises backpressure
			)
			e := startTest(t, Config{W: 8}).withDepth(depth)
			seqs := make([][]uint64, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var slot VerdictSlot
					reads := []uint64{uint64(w)<<32 | 1}
					writes := []uint64{uint64(w)<<32 | 2}
					for i := 0; i < iters; i++ {
						r := Request{
							Token:      uint64(w)<<32 | uint64(i),
							ValidTS:    ^uint64(0), // current: no forward edges, always commits
							ReadAddrs:  reads,
							WriteAddrs: writes,
						}
						var v Verdict
						var err error
						switch w % 4 {
						case 0: // the bare pipeline, under the same lock
							v = e.Process(r)
						case 1: // claim outside the ring, under the same lock
							v, err = e.RecordFast(r.Token, reads, writes)
							e.Stats()
							e.NextSeq()
						case 2: // combine on the caller's own slot
							r.Slot, r.Gen = &slot, slot.Prepare()
							v, err = e.Validate(r)
						default: // combine on a pooled slot
							v, err = e.Validate(r)
						}
						if err != nil || !v.OK || v.Token != r.Token {
							t.Errorf("worker %d request %d: verdict %+v, err %v", w, i, v, err)
							return
						}
						seqs[w] = append(seqs[w], uint64(v.Seq))
					}
				}(w)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				buf := make([]byte, 1<<20)
				t.Fatalf("hammer hung: a request was stranded\n%s", buf[:runtime.Stack(buf, true)])
			}
			if t.Failed() {
				return
			}

			var all []uint64
			for _, s := range seqs {
				all = append(all, s...)
			}
			sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
			if len(all) != workers*iters {
				t.Fatalf("%d verdicts for %d requests", len(all), workers*iters)
			}
			for i, s := range all {
				if s != uint64(i) {
					t.Fatalf("sequence %d at rank %d: gap or duplicate", s, i)
				}
			}
			st := e.Stats()
			if st.Requests != workers*iters || st.Commits != workers*iters {
				t.Fatalf("engine counted %d requests, %d commits, want %d: %+v", st.Requests, st.Commits, workers*iters, st)
			}
			queued := uint64(workers * iters / 2) // Process and RecordFast bypass the ring
			if st.Batches == 0 || st.Batches > queued {
				t.Fatalf("Batches = %d for %d queued requests", st.Batches, queued)
			}
			if st.MaxBatch == 0 || st.MaxBatch > depth || st.MaxBatch*st.Batches < queued {
				t.Fatalf("MaxBatch = %d inconsistent with %d batches of ≤ %d over %d requests", st.MaxBatch, st.Batches, depth, queued)
			}
			if st.QueuePeak < st.MaxBatch || st.QueuePeak > workers {
				t.Fatalf("QueuePeak = %d, want within [MaxBatch %d, workers %d]", st.QueuePeak, st.MaxBatch, workers)
			}
		})
	}
}

// TestCombineParkedWaiterIsServed pins the no-stranding handshake where a
// hammer only finds it by luck: a committer enqueues while the pipeline
// lock is held by a holder that is not combining for it, spins out and
// parks. Releasing the lock must re-check the ring, validate the request
// and wake the waiter — a holder that merely unlocked would leave it
// parked forever.
func TestCombineParkedWaiterIsServed(t *testing.T) {
	e := startTest(t, Config{})
	e.mu.Lock()
	var slot VerdictSlot
	done := make(chan Verdict, 1)
	go func() {
		r := req(0, nil, []uint64{1})
		r.Slot, r.Gen = &slot, slot.Prepare()
		v, err := e.Validate(r)
		if err != nil {
			t.Error(err)
		}
		done <- v
	}()
	for slot.parked.Load() == 0 {
		runtime.Gosched()
	}
	e.unlock()
	select {
	case v := <-done:
		if !v.OK || v.Seq != 0 {
			t.Fatalf("parked waiter's verdict = %+v", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked waiter stranded: the holder's release did not serve the ring")
	}
}

// TestCombineYieldsToRequestHolder pins the corner at GOMAXPROCS=1 where a
// sweeper (Close, or a committer racing it) pops requests without the
// pipeline lock, so a combiner can find the lock free and the ring empty
// while its own request sits, unanswered, with a consumer that needs the
// processor to deliver it. The test plays that consumer. A waiter that kept
// re-taking the free lock would never yield, and every hand-back below would
// cost an asynchronous preemption (~10 ms); a waiter that yields and then
// parks makes them free.
func TestCombineYieldsToRequestHolder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := startTest(t, Config{})
	p := e.port.Load()

	e.mu.Lock() // the waiter loses TryLock and yields, so we can take its request
	var slot VerdictSlot
	done := make(chan Verdict, 1)
	go func() {
		r := req(0, nil, []uint64{1})
		r.Slot, r.Gen = &slot, slot.Prepare()
		v, err := e.Validate(r)
		if err != nil {
			t.Error(err)
		}
		done <- v
	}()
	for p.ring.size() == 0 {
		runtime.Gosched()
	}
	r, ok := p.ring.tryPop()
	if !ok {
		t.Fatal("queued request vanished under the held lock")
	}
	e.mu.Unlock()

	const yields = 2 * slotSpin // enough for the waiter to spin out and park
	start := time.Now()
	for i := 0; i < yields && time.Since(start) < 5*time.Second; i++ {
		runtime.Gosched()
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("%d hand-backs from the waiter took %v: it spins on the free lock instead of yielding", yields, d)
	}
	if slot.parked.Load() == 0 {
		t.Error("waiter did not park with its request held elsewhere")
	}
	r.Deliver(e.Process(r))
	select {
	case v := <-done:
		if !v.OK || v.Seq != 0 {
			t.Fatalf("verdict = %+v", v)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter not woken by the holder's delivery")
	}
}

// TestCombineCrashAnswersQueued stops the engine under a full queue of
// parked combiners: with the pipeline lock held, every Validate caller
// enqueues, loses the lock and waits; Close must answer each accepted
// request with ReasonClosed, commit nothing, and a Restart must serve the
// next Validate from the rebased window.
func TestCombineCrashAnswersQueued(t *testing.T) {
	const waiters = 12
	e := startTest(t, Config{W: 8}).withDepth(16)
	if v, err := e.Validate(req(0, nil, []uint64{1})); err != nil || !v.OK {
		t.Fatalf("warm-up = %+v, %v", v, err)
	}
	p := e.port.Load()

	e.mu.Lock()
	verdicts := make(chan Verdict, waiters)
	for i := 0; i < waiters; i++ {
		go func(i int) {
			v, err := e.Validate(Request{Token: uint64(i), ValidTS: 1, WriteAddrs: []uint64{uint64(10 + i)}})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			verdicts <- v
		}(i)
	}
	for p.ring.size() < waiters {
		runtime.Gosched()
	}
	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	for !p.stopped.Load() {
		runtime.Gosched()
	}
	e.mu.Unlock() // Close waits out lock holders before its final sweep
	<-closed

	seen := map[uint64]bool{}
	for i := 0; i < waiters; i++ {
		select {
		case v := <-verdicts:
			if v.OK || v.Reason != ReasonClosed || seen[v.Token] {
				t.Fatalf("verdict %+v, want one ReasonClosed per waiter", v)
			}
			seen[v.Token] = true
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d queued requests answered after Close", i, waiters)
		}
	}
	if got := e.NextSeq(); got != 1 {
		t.Fatalf("NextSeq = %d after Close: a queued request was validated", got)
	}
	if _, err := e.Validate(req(1, nil, nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Validate on a closed engine: err = %v, want ErrClosed", err)
	}
	e.Restart(5)
	if v, err := e.Validate(req(5, nil, []uint64{1})); err != nil || !v.OK || v.Seq != 5 {
		t.Fatalf("Validate after Restart(5) = %+v, %v", v, err)
	}
}

// TestCombineCrashRestartStress cycles Close/Restart under running
// committers, direct and combining alike (half of them pass their own
// unarmed slot, half borrow pooled ones): every Validate call resolves — a
// real verdict, a terminal ReasonClosed one, or ErrClosed for a request that
// was never accepted — none hangs, some take the direct path (fewer ring
// pushes than accepted requests), Close leaves nothing behind, and Validate
// on the closed engine fails with ErrClosed.
func TestCombineCrashRestartStress(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e, err := Start(Config{W: 8})
	if err != nil {
		t.Fatal(err)
	}
	e.withDepth(8)
	ports := []*port{e.port.Load()}
	var stop atomic.Bool
	var real, closed atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var slot *VerdictSlot
			if w%2 == 0 {
				slot = new(VerdictSlot)
			}
			reads := []uint64{uint64(w) << 32}
			for i := 0; !stop.Load(); i++ {
				tok := uint64(w)<<32 | uint64(i)
				v, err := e.Validate(Request{Token: tok, ValidTS: ^uint64(0), ReadAddrs: reads, Slot: slot})
				switch {
				case errors.Is(err, ErrClosed):
					runtime.Gosched() // down: wait for the restart
				case err != nil || v.Token != tok:
					t.Errorf("worker %d: verdict %+v, err %v", w, v, err)
					return
				case v.Reason == ReasonClosed:
					closed.Add(1)
				default:
					real.Add(1)
				}
			}
		}(w)
	}
	for i := 0; i < 40; i++ {
		time.Sleep(300 * time.Microsecond)
		e.Close()
		e.Restart(0)
		ports = append(ports, e.port.Load())
	}
	for real.Load() == 0 {
		runtime.Gosched()
	}
	stop.Store(true)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a Validate call hung across Close/Restart")
	}
	e.Close()
	for _, r := range []Request{req(0, nil, nil), {Slot: new(VerdictSlot)}} {
		if _, err := e.Validate(r); !errors.Is(err, ErrClosed) {
			t.Fatalf("Validate after Close: err = %v, want ErrClosed", err)
		}
	}
	settleGoroutines(t, baseline)
	var pushed uint64
	for _, p := range ports {
		pushed += p.ring.enq.Load()
	}
	accepted := real.Load() + closed.Load()
	if pushed >= accepted {
		t.Fatalf("%d requests accepted, %d pushed: no call took the direct path", accepted, pushed)
	}
	t.Logf("%d validated (%d in place), %d answered closed", real.Load(), accepted-pushed, closed.Load())
}
