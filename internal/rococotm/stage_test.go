package rococotm

import (
	"reflect"
	"runtime"
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

// White-box tests of the ordered-publication stage (pipeline.go): they
// drive arm/await/publish/release directly, the way Commit and PublishFast
// do.

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

// stagePub builds the publication of a transaction that read `read` and
// wrote val to `write`.
func stagePub(r *TM, validTS uint64, read, write mem.Addr, val mem.Word) *publication {
	ws := sig.New(r.eng.Config().Sig)
	ws.Insert(r.hasher, uint64(write))
	return &publication{validTS: validTS, ws: ws,
		reads: []uint64{uint64(read)}, writes: []uint64{uint64(write)}, vals: []mem.Word{val}}
}

// TestGroupReleaseFeedsSinks: a pre-published successor is published — slot,
// observer, WAL, store — by the turn-holder, in sequence order, before the
// one GlobalTS store that releases both.
func TestGroupReleaseFeedsSinks(t *testing.T) {
	heap := mem.NewHeap(1 << 10)
	dev := wal.NewMemDevice(nil)
	d, _, err := RecoverDurable(dev, heap, wal.Options{}, mvstore.Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	obs := &recObserver{}
	r := New(heap, Config{MaxThreads: 2, Observer: obs, Durable: d})
	base := heap.MustAlloc(4)
	s := r.GlobalTS()
	p0 := stagePub(r, s, base, base+1, 10)
	p1 := stagePub(r, s+1, base+2, base+3, 11)

	// Thread 1 holds seq s+1: it arms, pre-publishes and waits.
	waiter := make(chan bool, 1)
	go func() {
		r.arm(1, s+1, p1.ws)
		waiter <- r.await(s+1, p1)
	}()
	for !r.slotPublished(s + 1) {
		runtime.Gosched()
	}
	if got := r.GlobalTS(); got != s {
		t.Fatalf("GlobalTS = %d before the holder of %d released", got, s)
	}

	// Thread 0 takes the turn at s and releases once.
	r.arm(0, s, p0.ws)
	if !r.await(s, p0) {
		t.Fatalf("await(%d) did not hold the turn", s)
	}
	r.publish(s, p0)
	r.release(s)
	if got := r.GlobalTS(); got != s+2 {
		t.Fatalf("GlobalTS = %d after one release, want %d", got, s+2)
	}
	if <-waiter {
		t.Fatal("successor's await held the turn; want released by the group")
	}
	r.disarm(0)
	r.disarm(1)

	want := []obsCall{
		{s, p0.validTS, p0.reads, p0.writes},
		{s + 1, p1.validTS, p1.reads, p1.writes},
	}
	if !reflect.DeepEqual(obs.calls, want) {
		t.Fatalf("observer saw %+v, want %+v", obs.calls, want)
	}
	if h := d.Store.Height(); h != s+2 {
		t.Fatalf("store height %d, want %d", h, s+2)
	}
	r.Close()
	res, err := wal.Recover(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 2 {
		t.Fatalf("WAL holds %d records, want 2", len(res.Records))
	}
	for i, p := range []*publication{p0, p1} {
		rec := res.Records[i]
		if rec.Seq != s+uint64(i) || rec.ValidTS != p.validTS ||
			!reflect.DeepEqual(rec.Reads, p.reads) || !reflect.DeepEqual(rec.WriteAddrs, p.writes) ||
			rec.WriteVals[0] != uint64(p.vals[0]) {
			t.Fatalf("WAL record %d = %+v, want publication %+v", i, rec, p)
		}
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
			r.publishSlot(seq, of(seq), nil)
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
