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
		{"paper deployment", Config{w: 64}, ""},
		{"small window", Config{w: 4}, ""},
		{"negative W", Config{w: -1}, "out of range"},
		{"wide window", Config{w: 65}, "out of range"},
		{"oversized W", Config{w: MaxW + 1}, "out of range"},
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
	if _, err := Start(Config{w: MaxW + 1}); err == nil {
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
// flight: every outstanding request must resolve — a verdict or a definite
// error — exactly once, and no goroutine may be left behind. It runs on the
// behavioral engine (Close under concurrent Validate callers, which end on
// ErrClosed) and on the standalone cycle-level model (Flush with requests
// part-way through the pipeline, which end on a terminal ReasonClosed
// verdict).
func TestShutdownMidValidation(t *testing.T) {
	t.Run("behavioral", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		e, err := Start(Config{w: 4})
		if err != nil {
			t.Fatal(err)
		}
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
						results <- errors.New("engine issued a ReasonClosed verdict")
						return
					}
					// Normal verdict; keep the engine busy until the close
					// lands.
				}
			}(i)
		}
		started.Wait()
		time.Sleep(time.Millisecond) // let validations contend for the lock
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
		rtl := NewRTL(Config{w: 8})
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

// TestRestartRebasesWindow drives the crash/recover protocol: a restarted
// engine — closed first, or restarted while running — starts with an empty
// window rebased at the host's commit count, aborts stale snapshots with a
// window verdict, and accepts fresh ones at the rebased sequence.
func TestRestartRebasesWindow(t *testing.T) {
	e, err := Start(Config{w: 8})
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
