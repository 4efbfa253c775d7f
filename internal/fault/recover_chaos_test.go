package fault_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rococotm/internal/audit"
	"rococotm/internal/fault"
	"rococotm/internal/mem"
	"rococotm/internal/mvstore"
	"rococotm/internal/rococotm"
	"rococotm/internal/tm"
	"rococotm/internal/wal"
)

// The chaos lane (scripts/check.sh runs `go test -race -run Chaos`) is the
// disk-fault crash-recovery soak below plus the engine-crash scenarios of
// chaos_test.go. Each scenario runs under a fixed seed matrix so failures
// replay.
var chaosSeeds = []int64{1, 7, 42}

// certifyRecovered runs the serializability auditor over a recovered WAL
// stream — the post-crash counterpart of the live Observer hookup.
func certifyRecovered(t *testing.T, recs []wal.Record) {
	t.Helper()
	ars := make([]audit.Record, len(recs))
	for i, rec := range recs {
		ars[i] = audit.Record{
			Seq:     rec.Seq,
			ValidTS: rec.ValidTS,
			Reads:   rec.Reads,
			Writes:  rec.WriteAddrs,
		}
	}
	if err := audit.Certify(ars, audit.Config{}); err != nil {
		t.Errorf("recovered stream failed certification: %v", err)
	}
}

// TestChaosRecoverDurable is the crash-recovery soak: repeated process-style
// crash/restart cycles where each incarnation recovers from the previous
// one's crash image — a disk that tears tail writes, drops in-flight
// appends, flips bits in the unsynced region, and fails or stalls fsyncs.
// The runtime trusts its engine; the disk is the only faulty component.
// With SyncCommit on, every commit acknowledged before the crash point is
// in the oracle, and the recovered heap must be at least that far along
// (and no further than the attempts): zero lost committed writes, zero
// double-applies. Every recovered commit stream is certified by the
// serializability auditor, and a snapshot reader runs abort-free
// throughout.
func TestChaosRecoverDurable(t *testing.T) {
	cycles := 10
	if testing.Short() {
		cycles = 4
	}
	// Each cycle runs until this many commits are confirmed durable (so a
	// slow cycle can't degenerate into a no-op crash), with a generous cap.
	const confirmTarget = 8
	const writers = 4

	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			var image []byte              // the disk content surviving the previous crash
			var confirmed [writers]uint64 // increments acknowledged before each crash
			var attempts [writers]uint64  // increments ever submitted
			var notDurable uint64         // commits acknowledged without durability

			for cycle := 0; cycle < cycles; cycle++ {
				disk := fault.NewDisk(image, fault.DiskSchedule{
					Seed:          seed*1000 + int64(cycle),
					TornProb:      0.25,
					DropProb:      0.15,
					FlipProb:      0.01,
					SyncErrProb:   0.2,
					SyncStallProb: 0.1,
					SyncStallFor:  100 * time.Microsecond,
				})
				heap := mem.NewHeap(1 << 12)
				base := heap.MustAlloc(writers) // deterministic layout across incarnations
				d, res, err := rococotm.RecoverDurable(disk, heap,
					wal.Options{FlushInterval: 200 * time.Microsecond},
					mvstore.Config{}, true)
				if err != nil {
					t.Fatalf("cycle %d: recover: %v", cycle, err)
				}
				certifyRecovered(t, res.Records)

				// The durability contract: everything acknowledged before the
				// previous crash survived; nothing applied twice.
				for th := 0; th < writers; th++ {
					got := uint64(heap.Load(base + mem.Addr(th)))
					if got < confirmed[th] {
						t.Fatalf("cycle %d: thread %d lost committed writes: recovered %d < confirmed %d",
							cycle, th, got, confirmed[th])
					}
					if got > attempts[th] {
						t.Fatalf("cycle %d: thread %d over-applied: recovered %d > attempts %d",
							cycle, th, got, attempts[th])
					}
					// Recovery may legitimately be ahead of the oracle (commits
					// in flight at crash time); resume counting from reality.
					confirmed[th] = got
					attempts[th] = got
				}

				m := rococotm.New(heap, rococotm.Config{
					MaxThreads: 8,
					Durable:    d,
					Logf:       func(string, ...any) {},
				})

				var crashing atomic.Bool
				var stop atomic.Bool
				var wg sync.WaitGroup
				for th := 0; th < writers; th++ {
					wg.Add(1)
					go func(th int) {
						defer wg.Done()
						a := base + mem.Addr(th)
						for !stop.Load() {
							err := tm.Run(m, th, func(x tm.Txn) error {
								v, err := x.Read(a)
								if err != nil {
									return err
								}
								return x.Write(a, v+1)
							})
							if errors.Is(err, rococotm.ErrNotDurable) {
								// Committed in memory, durability unconfirmed:
								// may or may not survive — count the attempt
								// but not the confirmation.
								atomic.AddUint64(&attempts[th], 1)
								atomic.AddUint64(&notDurable, 1)
								continue
							}
							if err != nil {
								t.Errorf("cycle %d thread %d: %v", cycle, th, err)
								stop.Store(true)
								return
							}
							atomic.AddUint64(&attempts[th], 1)
							if !crashing.Load() {
								// Run returned (durable, SyncCommit) before the
								// crash point — this increment must survive.
								atomic.AddUint64(&confirmed[th], 1)
							}
						}
					}(th)
				}
				// Snapshot reader: must never error, never abort, and its
				// successive snapshots must see monotonically non-decreasing
				// counters (commit height only moves forward).
				wg.Add(1)
				go func() {
					defer wg.Done()
					var lastSeen [writers]mem.Word
					for !stop.Load() {
						err := tm.RunReadOnly(m, writers, func(x tm.Txn) error {
							for th := 0; th < writers; th++ {
								v := mustRead(x, base+mem.Addr(th))
								if v < lastSeen[th] {
									return fmt.Errorf("snapshot went backwards: thread %d saw %d after %d",
										th, v, lastSeen[th])
								}
								lastSeen[th] = v
							}
							return nil
						})
						if err != nil {
							t.Errorf("cycle %d: read-only run: %v", cycle, err)
							stop.Store(true)
							return
						}
					}
				}()

				startConfirmed := uint64(0)
				for th := 0; th < writers; th++ {
					startConfirmed += atomic.LoadUint64(&confirmed[th])
				}
				for waitStart := time.Now(); ; {
					sum := uint64(0)
					for th := 0; th < writers; th++ {
						sum += atomic.LoadUint64(&confirmed[th])
					}
					if sum-startConfirmed >= confirmTarget || time.Since(waitStart) > 2*time.Second {
						break
					}
					time.Sleep(time.Millisecond)
				}
				crashing.Store(true)
				image = disk.CrashImage() // power loss: everything after this is moot
				stop.Store(true)
				wg.Wait()

				if ds, ok := m.DurableStats(); ok {
					t.Logf("cycle %d: disk %+v wal %+v store %+v attempts %v confirmed %v",
						cycle, disk.Stats(), ds.WAL, ds.Store, attempts, confirmed)
				}
				if live, _ := m.PoolCheck(); live != 0 {
					t.Fatalf("cycle %d: live descriptors before Close = %d", cycle, live)
				}
				m.Close()
			}

			if notDurable > 0 {
				t.Logf("seed %d: %d commits acknowledged without durability", seed, notDurable)
			}
			var total uint64
			for th := 0; th < writers; th++ {
				total += confirmed[th]
			}
			if total == 0 {
				t.Fatal("soak confirmed no durable commits")
			}
			t.Logf("seed %d: %d cycles, %d confirmed durable increments", seed, cycles, total)
			settleGoroutines(t, baseline)
		})
	}
}

// mustRead reads through a snapshot txn, which is infallible by contract.
func mustRead(x tm.Txn, a mem.Addr) mem.Word {
	v, err := x.Read(a)
	if err != nil {
		panic(err)
	}
	return v
}

// settleGoroutines polls until the goroutine count returns to baseline —
// the leak check for WAL flushers and the watchdog.
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
		time.Sleep(time.Millisecond)
	}
}
