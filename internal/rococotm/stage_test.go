package rococotm

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"rococotm/internal/mem"
	"rococotm/internal/mvstore"
	"rococotm/internal/sig"
	"rococotm/internal/stamp"
	"rococotm/internal/tm"
	"rococotm/internal/wal"
)

// White-box tests of the ordered section (pipeline.go) and of the sinks it
// feeds.

// obsCall is one ObserveCommit call, with the footprint copied.
type obsCall struct {
	seq, validTS  uint64
	reads, writes []uint64
}

type recObserver struct{ calls []obsCall }

func (o *recObserver) ObserveCommit(seq, validTS uint64, reads, writes []uint64) {
	o.calls = append(o.calls, obsCall{seq, validTS,
		append([]uint64(nil), reads...), append([]uint64(nil), writes...)})
}

// seqObserver checks the ordered section from inside each sink call: the
// sequence is the one after the previous call's, and the caller holds it —
// GlobalTS == seq. The ordered section serializes the calls.
type seqObserver struct {
	r    *TM
	seqs []uint64
	bad  string // the first violation
}

func (o *seqObserver) ObserveCommit(seq, validTS uint64, reads, writes []uint64) {
	if o.bad == "" {
		if want := uint64(len(o.seqs)); seq != want {
			o.bad = fmt.Sprintf("call %d carries seq %d", want, seq)
		} else if ts := o.r.GlobalTS(); ts != seq {
			o.bad = fmt.Sprintf("seq %d observed at GlobalTS %d", seq, ts)
		}
	}
	o.seqs = append(o.seqs, seq)
}

// check reports a violation, and a call count that is not GlobalTS.
func (o *seqObserver) check(t *testing.T) {
	t.Helper()
	if o.bad != "" {
		t.Fatal(o.bad)
	}
	if n, ts := uint64(len(o.seqs)), o.r.GlobalTS(); n != ts || n == 0 {
		t.Fatalf("observer saw %d commits, GlobalTS %d", n, ts)
	}
}

// fastPublish is one hand-driven fast commit on thread th, the hybrid fast
// path's steps: own a's line, store val eagerly, publish with b read,
// release. A refused publication (its drain scan met an armed write-back)
// still fills its sequence.
func fastPublish(t *testing.T, r *TM, th int, a, b mem.Addr, val mem.Word) {
	lt := r.LineTable()
	la, lb := mem.LineOf(a), mem.LineOf(b)
	vb := lt.Version(lb)
	own := lt.Own(la)
	for s := own.Load(); mem.LineWriterOf(s) != -1 || !own.CompareAndSwap(s, mem.LineWithWriter(s, th)); s = own.Load() {
		runtime.Gosched() // a slow write-back's sentinel, briefly
	}
	lt.BeginApply(la)
	old := r.heap.Load(a)
	r.heap.Store(a, val)
	err := r.PublishFast(&FastFootprint{Thread: th,
		ReadAddrs: []uint64{uint64(b)}, WriteAddrs64: []uint64{uint64(a)},
		WriteOrder: []mem.Addr{a}, NewVals: []mem.Word{val}, OldVals: []mem.Word{old},
		ReadLines: []uint64{lb}, ReadVers: []uint64{vb}})
	lt.EndApply(la)
	lt.Release(la)
	if _, abort := tm.IsAbort(err); err != nil && !abort {
		t.Error(err)
	}
}

// TestOrderedSectionFeedsSinks: concurrent committers reach the sinks one at
// a time, in gapless sequence order, each while it holds its turn — through
// Commit on a durable runtime, whose WAL must hold the same order, and
// through Commit and PublishFast side by side on a LineTable runtime.
func TestOrderedSectionFeedsSinks(t *testing.T) {
	const workers, commits = 4, 300
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			t.Run("Commit+WAL", func(t *testing.T) {
				heap := mem.NewHeap(1 << 10)
				dev := wal.NewMemDevice(nil)
				d, _, err := RecoverDurable(dev, heap, wal.Options{}, mvstore.Config{}, false)
				if err != nil {
					t.Fatal(err)
				}
				obs := &seqObserver{}
				r := New(heap, Config{MaxThreads: workers, Observer: obs, Durable: d})
				obs.r = r
				base := heap.MustAlloc(workers + 1)
				var wg sync.WaitGroup
				for th := 0; th < workers; th++ {
					wg.Add(1)
					go func(th int) {
						defer wg.Done()
						for i := 0; i < commits; i++ {
							// Own word and a shared counter: disjoint
							// commits and conflicting ones.
							err := tm.Run(r, th, func(x tm.Txn) error {
								v, err := x.Read(base + workers)
								if err != nil {
									return err
								}
								if err := x.Write(base+mem.Addr(th), mem.Word(i)); err != nil {
									return err
								}
								return x.Write(base+workers, v+1)
							})
							if err != nil {
								t.Error(err)
								return
							}
						}
					}(th)
				}
				wg.Wait()
				obs.check(t)
				r.Close()
				res, err := wal.Recover(dev)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Records) != len(obs.seqs) {
					t.Fatalf("WAL holds %d records, observer saw %d", len(res.Records), len(obs.seqs))
				}
				for i, rec := range res.Records {
					if rec.Seq != obs.seqs[i] {
						t.Fatalf("WAL record %d has seq %d, observer saw %d", i, rec.Seq, obs.seqs[i])
					}
				}
			})
			t.Run("Commit+PublishFast", func(t *testing.T) {
				heap := mem.NewHeap(1 << 12)
				obs := &seqObserver{}
				r := New(heap, Config{MaxThreads: workers, Observer: obs,
					LineTable: mem.NewLineTable(heap.Cap())})
				defer r.Close()
				obs.r = r
				// One line per thread to write, one more every fast commit
				// reads.
				base := heap.MustAlloc((workers + 1) << mem.LineShift)
				line := func(i int) mem.Addr { return base + mem.Addr(i<<mem.LineShift) }
				var wg sync.WaitGroup
				for th := 0; th < workers; th++ {
					wg.Add(1)
					go func(th int) {
						defer wg.Done()
						for i := 0; i < commits; i++ {
							if th%2 == 1 {
								fastPublish(t, r, th, line(th), line(workers), mem.Word(i))
								continue
							}
							if err := tm.Run(r, th, func(x tm.Txn) error { return x.Write(line(th), mem.Word(i)) }); err != nil {
								t.Error(err)
								return
							}
						}
					}(th)
				}
				wg.Wait()
				obs.check(t)
			})
		})
	}
}

// runSeeded drives a seeded interleaving of four threads' transactions from
// one goroutine — deterministic: every commit holds its turn at once — and
// returns what the run left behind.
func runSeeded(t *testing.T, cfg Config, heap *mem.Heap) (words []mem.Word, st tm.Stats, ts uint64) {
	t.Helper()
	const threads, addrs, steps = 4, 8, 4000
	cfg.MaxThreads = threads
	r := New(heap, cfg)
	defer r.Close()
	base := heap.MustAlloc(addrs)
	rng := stamp.NewRNG(7)
	live := make([]*txn, threads)
	ops := make([]int, threads)
	for i := 0; i < steps; i++ {
		th := rng.Intn(threads)
		if live[th] == nil {
			x, err := r.Begin(th)
			if err != nil {
				t.Fatal(err)
			}
			live[th], ops[th] = x.(*txn), 0
		}
		x := live[th]
		a := base + mem.Addr(rng.Intn(addrs))
		var err error
		switch ops[th]++; {
		case ops[th] > 4:
			err = r.Commit(x)
			live[th] = nil
		case rng.Intn(2) == 0:
			_, err = x.Read(a)
		default:
			err = x.Write(a, mem.Word(i))
		}
		if err != nil {
			if _, ok := tm.IsAbort(err); !ok {
				t.Fatal(err)
			}
			live[th] = nil
		}
	}
	for _, x := range live {
		if x != nil {
			r.Abort(x)
		}
	}
	for i := 0; i < addrs; i++ {
		words = append(words, heap.Load(base+mem.Addr(i)))
	}
	return words, r.Stats(), r.GlobalTS()
}

// TestSinkInvariance: attaching the observer and the WAL changes nothing the
// stage does — the same seeded workload ends with the same heap, the same
// commit/abort counts and the same GlobalTS with and without them.
func TestSinkInvariance(t *testing.T) {
	bareWords, bareSt, bareTS := runSeeded(t, Config{}, mem.NewHeap(1<<10))

	heap := mem.NewHeap(1 << 10)
	d, _, err := RecoverDurable(wal.NewMemDevice(nil), heap, wal.Options{}, mvstore.Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	obs := &recObserver{}
	words, st, ts := runSeeded(t, Config{Observer: obs, Durable: d}, heap)

	if !reflect.DeepEqual(words, bareWords) {
		t.Errorf("heap with sinks %v, without %v", words, bareWords)
	}
	if st.Commits != bareSt.Commits || st.Aborts != bareSt.Aborts || st.ReadOnly != bareSt.ReadOnly {
		t.Errorf("with sinks commits/aborts/read-only = %d/%d/%d, without %d/%d/%d",
			st.Commits, st.Aborts, st.ReadOnly, bareSt.Commits, bareSt.Aborts, bareSt.ReadOnly)
	}
	if ts != bareTS {
		t.Errorf("GlobalTS with sinks %d, without %d", ts, bareTS)
	}
	if bareTS == 0 || bareSt.Aborts == 0 {
		t.Fatalf("workload too tame to compare: GlobalTS %d, %d aborts", bareTS, bareSt.Aborts)
	}
	if uint64(len(obs.calls)) != ts {
		t.Errorf("observer saw %d commits, GlobalTS %d", len(obs.calls), ts)
	}
}

// TestCommitPathsDisarm: every path that arms an update-set entry releases
// it — the slow commit after its write-back, and a fast publication after
// its release, refused ones (which fill their sequence with a no-op)
// included. A leaked entry locks its write set: readers probing it spin
// and abort.
func TestCommitPathsDisarm(t *testing.T) {
	disarmed := func(t *testing.T, r *TM) {
		t.Helper()
		for i := range r.updates {
			if r.armed.Load()&(1<<uint(i)) != 0 {
				t.Errorf("thread %d's update-set entry is still armed", i)
			}
		}
	}
	t.Run("Commit", func(t *testing.T) {
		r := New(mem.NewHeap(1<<10), Config{MaxThreads: 1})
		defer r.Close()
		a := r.Heap().MustAlloc(1)
		if err := tm.Run(r, 0, func(x tm.Txn) error { return x.Write(a, 1) }); err != nil {
			t.Fatal(err)
		}
		disarmed(t, r)
	})
	t.Run("PublishFast", func(t *testing.T) {
		heap := mem.NewHeap(1 << 10)
		lt := mem.NewLineTable(heap.Cap())
		r := New(heap, Config{MaxThreads: 1, LineTable: lt})
		defer r.Close()
		base := heap.MustAlloc(16)
		fh := &fastHarness{r: r, lt: lt, heap: heap}
		if err := fh.publish(t, base, base+8, 1); err != nil {
			t.Fatal(err)
		}
		disarmed(t, r)
	})
	t.Run("PublishFast refused", func(t *testing.T) {
		heap := mem.NewHeap(1 << 10)
		lt := mem.NewLineTable(heap.Cap())
		r := New(heap, Config{MaxThreads: 1, LineTable: lt})
		defer r.Close()
		base := heap.MustAlloc(16)
		fh := &fastHarness{r: r, lt: lt, heap: heap}
		if err := fh.publishStale(t, base, base+8, 1); err == nil {
			t.Fatal("a stale fast publication committed")
		}
		if ts := r.GlobalTS(); ts != 1 {
			t.Fatalf("GlobalTS = %d, want 1 (the refused publication fills its sequence)", ts)
		}
		disarmed(t, r)
	})
}

// TestHotSlotsFillCacheLines: the per-thread entries other threads poll —
// update-set slots and liveness words — are whole multiples of a 64-byte
// line, so neighbouring threads' entries never share one.
func TestHotSlotsFillCacheLines(t *testing.T) {
	for name, size := range map[string]uintptr{
		"updateSlot": unsafe.Sizeof(updateSlot{}),
		"liveWord":   unsafe.Sizeof(liveWord{}),
	} {
		if size%64 != 0 {
			t.Errorf("%s is %d B, not a multiple of 64", name, size)
		}
	}
}

// TestSignatureRingsSeqlock: a slot of the commit queue or of the aggregate
// ring read while its writer laps the ring yields a whole signature or a
// refusal, never a mix of two commits' words — the writers' odd/even version
// bracket (publishSlot, publishAggregates) and the readers' re-check
// (loadCommitSig, loadAggSig). Over a four-slot queue, and so a two-slot
// level-1 ring, the signatures written into one slot alternate between all
// zeros and all ones, so any torn copy shows. Writer and reader get a
// processor each whatever GOMAXPROCS says: on one, they interleave only at
// preemptions.
func TestSignatureRingsSeqlock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	r := newTM(mem.NewHeap(1<<10), Config{MaxThreads: 1}, 4)
	defer r.Close()
	cfg := r.eng.Config().Sig
	ones := make([]uint64, cfg.Words())
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	pattern := [2]sig.Sig{sig.New(cfg), sig.FromWords(cfg, ones)}
	// Commits seq and seq+4 share a queue slot; blocks b and b+2 (commits
	// 2b, 2b+1 and 2b+4, 2b+5) share an aggregate slot.
	of := func(seq uint64) sig.Sig { return pattern[(seq>>2)&1] }

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for seq := uint64(0); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			r.publishSlot(seq, of(seq))
			r.publishAggregates(seq)
		}
	}()
	defer func() { close(stop); <-done }()

	dst := sig.New(cfg)
	check := func(ring string, seq uint64) {
		want := of(seq).Words()
		for i, w := range dst.Words() {
			if w != want[i] {
				t.Fatalf("%s slot of commit %d: signature word %d = %#x, want %#x (torn copy)",
					ring, seq, i, w, want[i])
			}
		}
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		if v := r.commitQ[0].ver.Load(); v != 0 && v%2 == 0 {
			if ts := v/2 - 1; r.loadCommitSig(ts, dst) {
				check("queue", ts)
			}
		}
		if v := r.agg[1][0].ver.Load(); v != 0 && v%2 == 0 {
			if lo := 2 * (v/2 - 1); r.loadAggSig(1, lo, dst) {
				check("aggregate", lo)
			}
		}
	}
}
