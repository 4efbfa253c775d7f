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

// TestValidateMatchesSerialProcess feeds one seeded request stream — stale
// and fresh snapshots over a small address space, so cycle and window
// verdicts occur — through Validate on one engine and through bare Process
// on another: the verdict streams must be identical, sequence for sequence.
// Validate must also do it without starting a goroutine.
func TestValidateMatchesSerialProcess(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := Config{w: 8}
	validated := startTest(t, cfg)
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
		got, err := validated.Validate(r)
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
	if vs, ss := validated.Stats(), serial.Stats(); vs.Commits != ss.Commits || vs.ModelCycles != ss.ModelCycles {
		t.Fatalf("stats diverged: Validate %+v, Process %+v", vs, ss)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("Validate started a goroutine: %d running, baseline %d", n, baseline)
	}
}

// TestValidateHammer runs far more committers than processors against one
// engine, every entry that takes the engine lock mixed together: Validate,
// Process, RecordFast, Stats and NextSeq. Every request must get exactly one
// verdict — a lost wake-up hangs the test — and the sequences handed out
// must be gap-free.
func TestValidateHammer(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const (
				workers = 48
				iters   = 150
			)
			e := startTest(t, Config{w: 8})
			seqs := make([][]uint64, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
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
						case 0: // the bare pipeline
							v = e.Process(r)
						case 1: // a fast-path claim, and the read-only entries
							v, err = e.RecordFast(r.Token, reads, writes)
							e.Stats()
							e.NextSeq()
						default:
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
				t.Fatalf("hammer hung: a request never got its verdict\n%s", buf[:runtime.Stack(buf, true)])
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
		})
	}
}

// TestValidateCloseRestartStress cycles Close/Restart under running
// committers: every Validate call resolves — a real verdict, or ErrClosed
// while the engine is down; the engine never answers ReasonClosed — none
// hangs, no goroutine is left behind, and Validate on the closed engine
// fails with ErrClosed.
func TestValidateCloseRestartStress(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e, err := Start(Config{w: 8})
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var real, refused atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			reads := []uint64{uint64(w) << 32}
			for i := 0; !stop.Load(); i++ {
				tok := uint64(w)<<32 | uint64(i)
				v, err := e.Validate(Request{Token: tok, ValidTS: ^uint64(0), ReadAddrs: reads})
				switch {
				case errors.Is(err, ErrClosed):
					refused.Add(1)
					runtime.Gosched() // down: wait for the restart
				case err != nil || !v.OK || v.Token != tok:
					t.Errorf("worker %d: verdict %+v, err %v", w, v, err)
					return
				default:
					real.Add(1)
				}
			}
		}(w)
	}
	for i := 0; i < 40; i++ {
		time.Sleep(300 * time.Microsecond)
		e.Close()
		time.Sleep(50 * time.Microsecond)
		e.Restart(0)
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
	if _, err := e.Validate(req(0, nil, nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Validate after Close: err = %v, want ErrClosed", err)
	}
	settleGoroutines(t, baseline)
	t.Logf("%d validated, %d refused while closed", real.Load(), refused.Load())
}
