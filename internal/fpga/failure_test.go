package fpga

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // substring; empty means valid
	}{
		{"zero value", Config{}, ""},
		{"paper deployment", Config{W: 64}, ""},
		{"small window", Config{W: 4}, ""},
		{"negative W", Config{W: -1}, "out of range"},
		{"wide window", Config{W: 65}, "out of range"},
		{"oversized W", Config{W: MaxW + 1}, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestStartRejectsInvalidConfig(t *testing.T) {
	if _, err := Start(Config{W: MaxW + 1}); err == nil {
		t.Fatalf("Start accepted W=%d", MaxW+1)
	}
}

// settleGoroutines waits for the goroutine count to drop back to the
// baseline (background runtime goroutines may fluctuate, so poll with a
// deadline rather than comparing once).
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestShutdownMidValidation stops validation while many requests are in
// flight: every outstanding request must resolve — a verdict (terminal
// ReasonClosed counts) or a definite error — exactly once, and no goroutine
// may be left behind. It runs on the behavioral engine (Close under
// concurrent Validate callers) and on the standalone cycle-level model
// (Flush with requests part-way through the pipeline).
func TestShutdownMidValidation(t *testing.T) {
	t.Run("behavioral", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		e, err := Start(Config{W: 4})
		if err != nil {
			t.Fatal(err)
		}
		e.withDepth(4)
		const n = 24
		results := make(chan error, n)
		var started sync.WaitGroup
		started.Add(n)
		for i := 0; i < n; i++ {
			go func(i int) {
				started.Done()
				for {
					v, err := e.Validate(Request{
						Token:     uint64(i),
						ValidTS:   uint64(e.NextSeq()),
						ReadAddrs: []uint64{uint64(i)}, WriteAddrs: []uint64{uint64(100 + i)},
					})
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							results <- err
							return
						}
						results <- nil // definite error: resolved
						return
					}
					if v.Reason == ReasonClosed {
						results <- nil // terminal verdict: resolved
						return
					}
					// Normal verdict; keep the engine busy until the close
					// lands.
				}
			}(i)
		}
		started.Wait()
		time.Sleep(time.Millisecond) // let validations pile into the queue
		e.Close()
		for i := 0; i < n; i++ {
			select {
			case err := <-results:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("request %d never resolved after Close", i)
			}
		}
		settleGoroutines(t, baseline)
	})
	t.Run("cycle-level", func(t *testing.T) {
		rtl := NewRTL(Config{W: 8})
		const n = 24
		replies := make([]chan Verdict, n)
		for i := range replies {
			// Room for a second verdict, so a duplicate would show.
			replies[i] = make(chan Verdict, 2)
			r := Request{Token: uint64(i), ValidTS: uint64(i),
				ReadAddrs:  []uint64{uint64(i), uint64(i + 1000)},
				WriteAddrs: []uint64{uint64(100 + i), uint64(2000 + i)},
				Reply:      replies[i]}
			if err := rtl.Offer(r); err != nil {
				t.Fatal(err)
			}
		}
		for rtl.Retired() < n/3 {
			rtl.Tick()
		}
		inFlight := rtl.InFlight()
		rtl.Flush()
		if rtl.InFlight() != 0 {
			t.Fatalf("%d requests still in the pipeline after Flush", rtl.InFlight())
		}
		var real, closed int
		for i, c := range replies {
			if len(c) != 1 {
				t.Fatalf("request %d received %d verdicts, want exactly 1", i, len(c))
			}
			v := <-c
			switch {
			case v.Token != uint64(i):
				t.Fatalf("request %d got verdict for token %d", i, v.Token)
			case v.Reason == ReasonClosed:
				closed++
			default:
				real++
			}
		}
		if closed != inFlight || real != n-inFlight || closed == 0 {
			t.Fatalf("%d real and %d closed verdicts; %d were in flight at Flush", real, closed, inFlight)
		}
	})
}

// TestCrashDeliversTerminalVerdicts parks requests in the pull queue of an
// engine nobody is draining — on both sink kinds, an armed slot and a
// buffered reply channel — and crashes it with Close: each request gets
// exactly one ReasonClosed verdict, none is validated, and submissions
// after the crash fail definitively.
func TestCrashDeliversTerminalVerdicts(t *testing.T) {
	e := startTest(t, Config{W: 4}).withDepth(8)
	p := e.port.Load()
	const pairs = 3
	var slots [pairs]VerdictSlot
	var gens [pairs]uint64
	var replies [pairs]chan Verdict
	for i := 0; i < pairs; i++ {
		gens[i] = slots[i].Prepare()
		if err := e.enqueue(p, Request{Token: uint64(i), WriteAddrs: []uint64{uint64(i)},
			Slot: &slots[i], Gen: gens[i]}); err != nil {
			t.Fatal(err)
		}
		replies[i] = make(chan Verdict, 2) // room for a duplicate to show
		if err := e.enqueue(p, Request{Token: uint64(pairs + i), WriteAddrs: []uint64{uint64(pairs + i)},
			Reply: replies[i]}); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()
	for i := 0; i < pairs; i++ {
		v, ok := slots[i].TryTake(gens[i])
		if !ok || v.OK || v.Reason != ReasonClosed || v.Token != uint64(i) {
			t.Fatalf("slot request %d: verdict %+v (delivered %v), want ReasonClosed", i, v, ok)
		}
		if n := len(replies[i]); n != 1 {
			t.Fatalf("reply request %d received %d verdicts, want exactly 1", pairs+i, n)
		}
		if v := <-replies[i]; v.OK || v.Reason != ReasonClosed || v.Token != uint64(pairs+i) {
			t.Fatalf("reply request %d: verdict %+v, want ReasonClosed", pairs+i, v)
		}
	}
	if got := e.NextSeq(); got != 0 {
		t.Fatalf("NextSeq = %d after the crash: a parked request was validated", got)
	}
	if _, err := e.Validate(req(0, nil, []uint64{1})); !errors.Is(err, ErrClosed) {
		t.Fatalf("Validate on a crashed engine: err = %v, want ErrClosed", err)
	}
}

// TestRestartRebasesWindow drives the crash/recover protocol: a restarted
// engine — closed first, or restarted while running — starts with an empty
// window rebased at the host's commit count, aborts stale snapshots with a
// window verdict, and accepts fresh ones at the rebased sequence.
func TestRestartRebasesWindow(t *testing.T) {
	e, err := Start(Config{W: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 5; i++ {
		v, err := e.Validate(req(uint64(i), nil, []uint64{uint64(10 * i)}))
		if err != nil || !v.OK {
			t.Fatalf("seed commit %d: %+v, %v", i, v, err)
		}
	}
	e.Close()
	e.Restart(5)
	if got := e.BaseSeq(); got != 5 {
		t.Fatalf("BaseSeq after Restart(5) = %d", got)
	}
	// A snapshot that predates the rebase depends on lost history: even
	// though the window is empty, the engine must abort it.
	v, err := e.Validate(req(2, []uint64{1}, []uint64{2}))
	if err != nil {
		t.Fatal(err)
	}
	if v.OK || v.Reason != ReasonWindow {
		t.Fatalf("stale snapshot after restart: %+v", v)
	}
	// A current snapshot commits at the rebased sequence.
	v, err = e.Validate(req(5, []uint64{1}, []uint64{2}))
	if err != nil {
		t.Fatal(err)
	}
	if !v.OK || v.Seq != 5 {
		t.Fatalf("fresh snapshot after restart: %+v", v)
	}
	if st := e.Stats(); st.Restarts != 1 {
		t.Fatalf("Restarts = %d, want 1", st.Restarts)
	}
	// Restarting the running engine flushes the window it accumulated, even
	// at the same next sequence.
	e.Restart(6)
	if v, err := e.Validate(req(5, []uint64{1}, []uint64{2})); err != nil || v.OK || v.Reason != ReasonWindow {
		t.Fatalf("snapshot 5 after Restart(6): %+v, %v", v, err)
	}
	if st := e.Stats(); st.Restarts != 2 {
		t.Fatalf("Restarts = %d, want 2", st.Restarts)
	}
}
