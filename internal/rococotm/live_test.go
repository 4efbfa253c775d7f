package rococotm

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rococotm/internal/mem"
	"rococotm/internal/tm"
)

// word packs a liveness word the way live.go lays it out.
func word(stamp uint64, p phase, c tm.Code) uint64 {
	return stamp<<stampShift | uint64(p)<<codeBits | uint64(c)
}

// TestLiveWordTransitions drives every (phase, event) pair of the transition
// table through begin/end/doom and checks the resulting word; a refused event
// must leave the word unchanged and report so.
func TestLiveWordTransitions(t *testing.T) {
	const s = 5 // the stamp every starting word carries
	start := map[string]uint64{
		"idle":   word(s, phaseIdle, 0),
		"slow":   word(s, phaseSlow, 0),
		"fast":   word(s, phaseFast, 0),
		"doomed": word(s, phaseDoomed, tm.CodeCycle),
	}
	events := []struct {
		name string
		do   func(l *liveWord, w uint64) bool // reports whether the event was accepted
		want map[string]uint64                // accepted starting phases → resulting word
	}{
		{"begin slow", func(l *liveWord, _ uint64) bool { _, ok := l.begin(phaseSlow); return ok },
			map[string]uint64{"idle": word(s+1, phaseSlow, 0)}},
		{"begin fast", func(l *liveWord, _ uint64) bool { _, ok := l.begin(phaseFast); return ok },
			map[string]uint64{"idle": word(s+1, phaseFast, 0)}},
		{"end", func(l *liveWord, _ uint64) bool { l.end(); return true },
			map[string]uint64{"idle": word(s, phaseIdle, 0), "slow": word(s, phaseIdle, 0),
				"fast": word(s, phaseIdle, 0), "doomed": word(s, phaseIdle, 0)}},
		{"doom as seen", func(l *liveWord, w uint64) bool { return l.doom(w, tm.CodeWatchdog) },
			map[string]uint64{"slow": word(s, phaseDoomed, tm.CodeWatchdog), "fast": word(s, phaseDoomed, tm.CodeWatchdog)}},
		{"doom the predecessor", func(l *liveWord, w uint64) bool { return l.doom(w-1<<stampShift, tm.CodeWatchdog) },
			map[string]uint64{}},
		{"doom the other phase", func(l *liveWord, w uint64) bool {
			return l.doom(w^uint64(phaseSlow^phaseFast)<<codeBits, tm.CodeWatchdog)
		},
			map[string]uint64{}},
	}
	for _, ev := range events {
		for name, w := range start {
			t.Run(ev.name+"/"+name, func(t *testing.T) {
				var l liveWord
				l.w.Store(w)
				want, legal := ev.want[name]
				if !legal {
					want = w
				}
				if ok := ev.do(&l, w); ok != legal {
					t.Errorf("accepted = %v, want %v", ok, legal)
				}
				if got := l.w.Load(); got != want {
					t.Errorf("word = %#x, want %#x", got, want)
				}
			})
		}
	}

	// What a safe point of the attempt (s, slow) reads from each word.
	attempt := word(s, phaseSlow, 0)
	for _, tc := range []struct {
		w    uint64
		st   Liveness
		code tm.Code
	}{
		{attempt, Live, 0},
		{word(s, phaseDoomed, tm.CodeWatchdog), Doomed, tm.CodeWatchdog},
		{word(s, phaseIdle, 0), Over, tm.CodeConflict},
		{word(s+1, phaseSlow, 0), Over, tm.CodeConflict},
		{word(s+1, phaseDoomed, tm.CodeWatchdog), Over, tm.CodeConflict},
	} {
		r := &TM{live: make([]liveWord, 1)}
		r.live[0].w.Store(tc.w)
		if c, st := r.Poll(0, attempt); st != tc.st || c != tc.code {
			t.Errorf("poll over %#x = (%d, %d), want (%d, %d)", tc.w, c, st, tc.code, tc.st)
		}
	}
}

// TestLiveWordHammer races a doomer against owners that begin and finish
// attempts in a loop — slow ones through the runtime's API, fast ones through
// BeginFast/Poll/EndFast — while the doomer CASes every running word it
// observes to doomed with a random code the slow path never aborts with by
// itself. A doom must never land on a successor of the attempt it was aimed
// at, and every landed doom surfaces as an abort with its code unless its
// attempt had already passed its last safe point (then end drops it). The
// accounting identity holds and nothing is left live.
func TestLiveWordHammer(t *testing.T) {
	codes := []tm.Code{tm.CodeCapacity, tm.CodeSpurious, tm.CodeFallback}
	const notDoomed = tm.Code(0xff) // outcome of an attempt a doom did not end
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			const owners, attempts = 3, 1500
			r := New(mem.NewHeap(1<<10), Config{MaxThreads: owners})
			defer r.Close()
			base := r.Heap().MustAlloc(owners * 8)

			// outcome[th][stamp] is how the owner saw the attempt end;
			// landed[th][stamp] the code of the doom that landed on it.
			outcome := make([]map[uint64]tm.Code, owners)
			landed := make([]map[uint64]tm.Code, owners)
			for th := range landed {
				outcome[th], landed[th] = map[uint64]tm.Code{}, map[uint64]tm.Code{}
			}
			var done atomic.Bool
			doomer := make(chan struct{})
			go func() {
				defer close(doomer)
				for !done.Load() {
					for th := range r.live {
						w := r.live[th].w.Load()
						if rand.IntN(8) != 0 {
							continue // spare most sightings, so attempts also commit
						}
						c := codes[rand.IntN(len(codes))]
						if r.live[th].doom(w, c) {
							landed[th][w>>stampShift] = c
						}
					}
					runtime.Gosched()
				}
			}()

			var wg sync.WaitGroup
			for th := 0; th < owners; th++ {
				wg.Add(1)
				go func(th int) {
					defer wg.Done()
					a := base + mem.Addr(th*8)
					for i := 0; i < attempts; i++ {
						if i%3 == 2 {
							attempt, ok := r.BeginFast(th)
							if !ok {
								t.Error("BeginFast on an idle thread refused")
								return
							}
							got := notDoomed
							for k := 0; k < 4 && got == notDoomed; k++ {
								if c, st := r.Poll(th, attempt); st == Doomed {
									got = c
								}
								runtime.Gosched()
							}
							r.EndFast(th)
							outcome[th][attempt>>stampShift] = got
							continue
						}
						x, err := r.Begin(th)
						if err != nil {
							t.Error(err)
							return
						}
						stamp := x.(*txn).attempt >> stampShift
						for k := 0; k < 4 && err == nil; k++ {
							_, err = x.Read(a)
							runtime.Gosched()
						}
						if err == nil && i%2 == 0 {
							err = x.Write(a, mem.Word(i))
						}
						if err == nil {
							err = r.Commit(x)
						}
						outcome[th][stamp] = notDoomed
						if c, ok := tm.CodeOf(err); ok && slices.Contains(codes, c) {
							outcome[th][stamp] = c
						} else if err != nil && !ok {
							t.Errorf("thread %d: %v", th, err)
						}
					}
				}(th)
			}
			wg.Wait()
			done.Store(true)
			<-doomer

			surfaced, dropped := 0, 0
			for th := range outcome {
				for stamp, c := range outcome[th] {
					if c == notDoomed {
						continue
					}
					if d, ok := landed[th][stamp]; !ok || d != c {
						t.Fatalf("thread %d attempt %d aborted with doom code %d, but the doom that landed on it was %d (landed %v)",
							th, stamp, c, d, ok)
					}
					surfaced++
				}
				for stamp := range landed[th] {
					c, ok := outcome[th][stamp]
					if !ok {
						t.Fatalf("thread %d: a doom landed on attempt %d, which never ran", th, stamp)
					}
					if c == notDoomed {
						dropped++
					}
				}
			}
			t.Logf("%d dooms surfaced, %d landed after their attempt's last safe point", surfaced, dropped)
			if surfaced == 0 {
				t.Error("no doom surfaced: the hammer never raced")
			}
			if st := r.Stats(); st.Starts != st.Commits+st.Aborts {
				t.Errorf("Starts %d != Commits %d + Aborts %d", st.Starts, st.Commits, st.Aborts)
			}
			if live, _ := r.PoolCheck(); live != 0 {
				t.Errorf("PoolCheck live = %d after the join, want 0", live)
			}
		})
	}
}

// TestWatchdogCountersAgree: an attempt stuck past WatchdogAge fires the
// watchdog, and the kill count is the watchdog abort count.
func TestWatchdogCountersAgree(t *testing.T) {
	cfg := Config{MaxThreads: 2, WatchdogAge: 2 * time.Millisecond, Logf: func(string, ...any) {}}
	t.Run("TM", func(t *testing.T) {
		m := New(mem.NewHeap(1<<10), cfg)
		defer m.Close()
		a := m.Heap().MustAlloc(1)
		x, err := m.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.Read(a); err != nil {
			t.Fatal(err)
		}
		awaitWatchdogFire(t, m)
		_, err = x.Read(a)
		if code, ok := tm.CodeOf(err); !ok || code != tm.CodeWatchdog {
			t.Fatalf("stuck read returned %v, want a watchdog abort", err)
		}
		st := m.Stats()
		if st.WatchdogKills != 1 || st.Reasons[tm.ReasonWatchdog] != 1 {
			t.Errorf("WatchdogKills/Reasons[watchdog] = %d/%d, want 1/1", st.WatchdogKills, st.Reasons[tm.ReasonWatchdog])
		}
	})
}
