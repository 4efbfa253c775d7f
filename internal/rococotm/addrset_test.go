package rococotm

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"rococotm/internal/fpga"
	"rococotm/internal/mem"
	"rococotm/internal/mvstore"
	"rococotm/internal/sig"
	"rococotm/internal/stamp"
	"rococotm/internal/tm"
	"rococotm/internal/wal"
)

// walWrites is one commit's write footprint as the WAL should record it.
type walWrites struct{ addrs, vals []uint64 }

// TestAccessSetsMatchMapModel drives seeded random transactions of reads,
// writes, rewrites and read-your-writes through a runtime whose signatures
// are 256 bits in four 64-bit partitions, so the signature prefilter
// saturates after a few dozen addresses and nearly every access reaches the
// address-set index. A map-based model held here predicts every value Read
// returns, the footprint the Observer receives (distinct reads, distinct
// writes, each in first-access order), the final heap and each WAL record's
// writes. One transaction touches well over 1 000 distinct addresses, which
// grows the index several times; later ones reuse the grown index, one of
// them across a generation wrap-around.
func TestAccessSetsMatchMapModel(t *testing.T) {
	const span = 4096
	heap := mem.NewHeap(1 << 13)
	dev := wal.NewMemDevice(nil)
	d, _, err := RecoverDurable(dev, heap, wal.Options{}, mvstore.Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	obs := &recObserver{}
	r := New(heap, Config{MaxThreads: 1, Observer: obs, Durable: d,
		Engine: fpga.Config{Sig: sig.Config{M: 256, K: 4}}})
	base := heap.MustAlloc(span)
	committed := map[mem.Addr]mem.Word{}
	var wantWAL []walWrites
	rng := stamp.NewRNG(27)
	big := 0
	for n := 0; n < 48; n++ {
		ops, width := 2+rng.Intn(60), 2+rng.Intn(40)
		switch x := r.scratch[0]; n {
		case 5:
			ops, width = 6000, span // ~3 500 distinct addresses
		case 29: // this attempt's index entries are generation 1 ...
			ops, width = 600, 400
			x.reads.gen, x.writes.gen = 0, 0
		case 30: // ... and this small one's reset wraps the stamp back to 1
			ops, width = 40, 8
			x.reads.gen, x.writes.gen = math.MaxUint32, math.MaxUint32
		}
		t0, err := r.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		x := t0.(*txn)
		redo := map[mem.Addr]mem.Word{}
		readSeen := map[mem.Addr]bool{}
		var reads, writes []uint64
		for i := 0; i < ops; i++ {
			a := base + mem.Addr(rng.Intn(width))
			if rng.Intn(3) == 0 {
				v := mem.Word(rng.Next())
				if err := x.Write(a, v); err != nil {
					t.Fatal(err)
				}
				if _, seen := redo[a]; !seen {
					writes = append(writes, uint64(a))
				}
				redo[a] = v
				continue
			}
			got, err := x.Read(a)
			if err != nil {
				t.Fatal(err)
			}
			want, own := redo[a]
			if !own {
				want = committed[a]
				if !readSeen[a] {
					readSeen[a] = true
					reads = append(reads, uint64(a))
				}
			}
			if got != want {
				t.Fatalf("txn %d op %d: Read(%d) = %d, model %d", n, i, a, got, want)
			}
		}
		if n == 5 {
			big = len(reads) + len(writes)
		}
		calls := len(obs.calls)
		if err := r.Commit(x); err != nil {
			t.Fatal(err)
		}
		if len(writes) == 0 {
			continue
		}
		if len(obs.calls) != calls+1 {
			t.Fatalf("txn %d: observer saw %d calls for one commit", n, len(obs.calls)-calls)
		}
		if c := obs.calls[calls]; !reflect.DeepEqual(c.reads, reads) || !reflect.DeepEqual(c.writes, writes) {
			t.Fatalf("txn %d: observer footprint\n reads %v\nwrites %v\nmodel\n reads %v\nwrites %v",
				n, c.reads, c.writes, reads, writes)
		}
		w := walWrites{addrs: writes}
		for _, a := range writes {
			v := redo[mem.Addr(a)]
			committed[mem.Addr(a)] = v
			w.vals = append(w.vals, uint64(v))
		}
		wantWAL = append(wantWAL, w)
	}
	if big < 1000 {
		t.Fatalf("the large transaction touched %d distinct addresses, want > 1000", big)
	}
	for i := 0; i < span; i++ {
		if a := base + mem.Addr(i); heap.Load(a) != committed[a] {
			t.Fatalf("heap[%d] = %d, model %d", a, heap.Load(a), committed[a])
		}
	}
	r.Close()
	res, err := wal.Recover(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(wantWAL) {
		t.Fatalf("WAL holds %d records, model %d", len(res.Records), len(wantWAL))
	}
	for i, rec := range res.Records {
		if w := wantWAL[i]; !reflect.DeepEqual(rec.WriteAddrs, w.addrs) || !reflect.DeepEqual(rec.WriteVals, w.vals) {
			t.Fatalf("WAL record %d writes %v = %v, model %v = %v", i, rec.WriteAddrs, rec.WriteVals, w.addrs, w.vals)
		}
	}
}

// pubRecord is one publication as the observer and WAL should see it.
type pubRecord struct{ reads, writes, vals []uint64 }

// eagerSig is the signature of addrs built one Insert per address, the way
// every access used to build it.
func eagerSig(h *sig.Hasher, cfg sig.Config, addrs []uint64) sig.Sig {
	s := sig.New(cfg)
	for _, a := range addrs {
		s.Insert(h, a)
	}
	return s
}

// checkSigned fails unless s has signed exactly want and its signature and
// sub-signatures equal the eager ones over want.
func checkSigned(t *testing.T, what string, s *addrSet, h *sig.Hasher, want []uint64) {
	t.Helper()
	if s.signed != len(want) {
		t.Fatalf("%s: %d addresses signed, model %d", what, s.signed, len(want))
	}
	if !s.sig.Equal(eagerSig(h, s.cfg, want)) {
		t.Fatalf("%s: signature differs from the eager one over %d addresses", what, len(want))
	}
	for lo := 0; lo < len(want); lo += subSigAddrs {
		if !s.subs[lo/subSigAddrs].Equal(eagerSig(h, s.cfg, want[lo:min(lo+subSigAddrs, len(want))])) {
			t.Fatalf("%s: sub-signature %d differs from the eager one", what, lo/subSigAddrs)
		}
	}
}

// lagHarness drives TestLazySigningMatchesEagerModel on one runtime: thread
// 0 runs seeded random transactions over [base, base+span), thread 1 commits
// single writes into the disjoint [lag, lag+span) between thread 0's
// accesses in every lagged transaction, and a map model predicts every
// value, the signatures, and the publications.
type lagHarness struct {
	t     *testing.T
	rt    *TM
	pubs  []pubRecord           // in publication order
	vals  map[mem.Addr]mem.Word // committed values
	stats struct{ extends, quietRO int }
}

// lagCommit commits thread 1's write of a random value to a.
func (h *lagHarness) lagCommit(a mem.Addr, rng *stamp.RNG) {
	v := mem.Word(rng.Next())
	x, err := h.rt.Begin(1)
	if err == nil {
		if err = x.Write(a, v); err == nil {
			err = h.rt.Commit(x)
		}
	}
	if err != nil {
		h.t.Fatalf("lagging commit: %v", err)
	}
	h.vals[a] = v
	h.pubs = append(h.pubs, pubRecord{writes: []uint64{uint64(a)}, vals: []uint64{uint64(v)}})
}

// run drives txns transactions. Transaction n is lagged when n is odd and
// read-only when n%4 < 2.
func (h *lagHarness) run(txns int, base, lag mem.Addr, span int, rng *stamp.RNG) {
	t := h.t
	for n := 0; n < txns; n++ {
		lagged, update := n%2 == 1, n%4 >= 2
		tx, err := h.rt.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		x := tx.(*txn)
		var reads, writes []uint64
		readSeen := map[mem.Addr]bool{}
		redo := map[mem.Addr]mem.Word{}
		ops, width := 2+rng.Intn(60), 2+rng.Intn(span-2)
		for i := 0; i < ops; i++ {
			if lagged && rng.Intn(4) == 0 {
				h.lagCommit(lag+mem.Addr(rng.Intn(span)), rng)
			}
			a := base + mem.Addr(rng.Intn(width))
			if update && rng.Intn(3) == 0 {
				v := mem.Word(rng.Next())
				if err := x.Write(a, v); err != nil {
					t.Fatal(err)
				}
				if _, seen := redo[a]; !seen {
					writes = append(writes, uint64(a))
				}
				redo[a] = v
				continue
			}
			localTS := x.localTS
			got, err := x.Read(a)
			if err != nil {
				t.Fatalf("txn %d op %d: Read: %v", n, i, err)
			}
			want, own := redo[a]
			if !own {
				want = h.vals[a]
			}
			if got != want {
				t.Fatalf("txn %d op %d: Read(%d) = %d, model %d", n, i, a, got, want)
			}
			if x.localTS != localTS && len(reads) > 0 {
				// This read extended the snapshot before recording a: the
				// extension signed exactly the distinct reads before it.
				h.stats.extends++
				checkSigned(t, "read set after an extension", &x.reads, h.rt.hasher, reads)
			}
			if !own && !readSeen[a] {
				readSeen[a] = true
				reads = append(reads, uint64(a))
			}
		}
		if err := h.rt.Commit(x); err != nil {
			t.Fatalf("txn %d: Commit: %v", n, err)
		}
		if !lagged && !update {
			// Nothing landed during the attempt, so no extension had
			// anything to fold and no read was hashed.
			if x.reads.signed != 0 {
				t.Fatalf("txn %d: quiet read-only attempt signed %d reads", n, x.reads.signed)
			}
			h.stats.quietRO++
		}
		if len(writes) == 0 {
			continue // a read-only commit claims nothing
		}
		checkSigned(t, "write set after claim", &x.writes, h.rt.hasher, writes)
		rec := pubRecord{reads: reads, writes: writes}
		for _, a := range writes {
			v := redo[mem.Addr(a)]
			h.vals[mem.Addr(a)] = v
			rec.vals = append(rec.vals, uint64(v))
		}
		h.pubs = append(h.pubs, rec)
	}
}

// check compares the observer calls and WAL records with the model.
func (h *lagHarness) check(obs *recObserver, dev *wal.MemDevice) {
	t := h.t
	want := h.pubs
	if len(obs.calls) != len(want) {
		t.Fatalf("observer saw %d commits, model %d", len(obs.calls), len(want))
	}
	res, err := wal.Recover(dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(want) {
		t.Fatalf("WAL holds %d records, model %d", len(res.Records), len(want))
	}
	for i, w := range want {
		if c := obs.calls[i]; !slices.Equal(c.reads, w.reads) || !slices.Equal(c.writes, w.writes) {
			t.Fatalf("commit %d: observer footprint %v / %v, model %v / %v", i, c.reads, c.writes, w.reads, w.writes)
		}
		rec := res.Records[i]
		if !slices.Equal(rec.Reads, w.reads) || !slices.Equal(rec.WriteAddrs, w.writes) || !slices.Equal(rec.WriteVals, w.vals) {
			t.Fatalf("WAL record %d: %v, %v = %v, model %v, %v = %v",
				i, rec.Reads, rec.WriteAddrs, rec.WriteVals, w.reads, w.writes, w.vals)
		}
	}
}

// TestLazySigningMatchesEagerModel is the lag mode of
// TestAccessSetsMatchMapModel: a second thread commits between accesses, so
// snapshot extensions sign partly built read sets mid-transaction, each
// signing only the reads recorded since the last. After every extension the
// read set's signature and sub-signatures equal the ones built eagerly from
// the model's distinct reads; after every claim the write set's equal the
// eager ones; values, observer footprints, WAL records and the final heap
// match the model. A read-only attempt that saw no commit land ends with
// nothing signed.
func TestLazySigningMatchesEagerModel(t *testing.T) {
	const span = 256
	scfg := sig.Config{M: 256, K: 4}
	t.Run("TM", func(t *testing.T) {
		heap := mem.NewHeap(1 << 12)
		dev := wal.NewMemDevice(nil)
		d, _, err := RecoverDurable(dev, heap, wal.Options{}, mvstore.Config{}, false)
		if err != nil {
			t.Fatal(err)
		}
		obs := &recObserver{}
		r := New(heap, Config{MaxThreads: 2, Observer: obs, Durable: d, Engine: fpga.Config{Sig: scfg}})
		h := &lagHarness{t: t, rt: r, vals: map[mem.Addr]mem.Word{}}
		base, lag := heap.MustAlloc(span), heap.MustAlloc(span)
		h.run(48, base, lag, span, stamp.NewRNG(40))
		r.Close()
		h.check(obs, dev)
		h.checkHeap(heap, base, lag, span)
	})
}

// checkHeap compares both regions of the heap with the committed model and
// that the run exercised what it is for.
func (h *lagHarness) checkHeap(heap *mem.Heap, base, lag mem.Addr, span int) {
	t := h.t
	for i := 0; i < span; i++ {
		for _, a := range []mem.Addr{base + mem.Addr(i), lag + mem.Addr(i)} {
			if heap.Load(a) != h.vals[a] {
				t.Fatalf("heap[%d] = %d, model %d", a, heap.Load(a), h.vals[a])
			}
		}
	}
	if h.stats.extends == 0 || h.stats.quietRO == 0 {
		t.Fatalf("%d mid-transaction extensions checked and %d quiet read-only attempts, want both > 0",
			h.stats.extends, h.stats.quietRO)
	}
	t.Logf("%d mid-transaction extensions checked, %d quiet read-only attempts unsigned",
		h.stats.extends, h.stats.quietRO)
}

// BenchmarkReadPath measures the instrumented access path one layer below
// the repo benchmark: whole transactions (Begin, accesses, Commit) on one
// thread, reported as ns per Read call. The shapes are a 32-read read-only
// transaction, the red-black-tree update (a descent reading two words of
// each of ten nodes, a re-read of the bottom three nodes, and a fix-up of
// four writes with a rewrite and two read-your-writes; about the 32 reads
// and 3 writes index-engine averages), a 4 096-read / 512-write
// transaction with rewrites, the STAMP-sized case, and the 32-read shape
// with another thread's commit landing before every eighth read, so every
// fourth read extends the snapshot and signs the reads recorded since the
// last extension. The lagging commits run on the same goroutine and their
// time is taken out of the measurement.
func BenchmarkReadPath(b *testing.B) {
	type access struct {
		off   int
		write bool
	}
	var ro32, tree, large []access
	for i := 0; i < 32; i++ {
		ro32 = append(ro32, access{off: 7 * i})
	}
	const node = 4 // key, left, right, colour
	for lvl := 0; lvl < 10; lvl++ {
		tree = append(tree, access{off: 64 * lvl}, access{off: 64*lvl + 1 + lvl%2}) // key, then a child
	}
	for lvl := 7; lvl < 10; lvl++ {
		for f := 0; f < node; f++ {
			tree = append(tree, access{off: 64*lvl + f})
		}
	}
	tree = append(tree, access{off: 64*9 + 1, write: true}, access{off: 64*8 + 3, write: true},
		access{off: 64*9 + 1}, access{off: 64*7 + 3, write: true}, access{off: 64*8 + 3, write: true},
		access{off: 64*8 + 3})
	for i := 0; i < 4096; i++ {
		large = append(large, access{off: i})
		if i%8 == 7 {
			large = append(large, access{off: i / 8 * 5 % 384, write: true}) // 384 distinct
		}
	}
	for _, bc := range []struct {
		name string
		ops  []access
		lag  int // another thread commits before every lag-th access; 0: never
	}{{"ro32", ro32, 0}, {"rbtree-update", tree, 0}, {"large-4096r-512w", large, 0}, {"ro32-lagged", ro32, 8}} {
		b.Run(bc.name, func(b *testing.B) {
			threads := 1
			if bc.lag > 0 {
				threads = 2 // the lagging commits run as thread 1
			}
			r := New(mem.NewHeap(1<<14), Config{MaxThreads: threads})
			defer r.Close()
			base := r.Heap().MustAlloc(4096)
			other := r.Heap().MustAlloc(1)
			reads := 0
			for _, op := range bc.ops {
				if !op.write {
					reads++
				}
			}
			var lagging time.Duration // spent in the lagging commits
			run := func() {
				x, err := r.Begin(0)
				if err != nil {
					b.Fatal(err)
				}
				for i, op := range bc.ops {
					if bc.lag > 0 && i%bc.lag == bc.lag-1 {
						t0 := time.Now()
						if err := tm.Run(r, 1, func(y tm.Txn) error { return y.Write(other, mem.Word(i)) }); err != nil {
							b.Fatal(err)
						}
						lagging += time.Since(t0)
					}
					a := base + mem.Addr(op.off)
					if op.write {
						err = x.Write(a, mem.Word(op.off))
					} else {
						_, err = x.Read(a)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				if err := r.Commit(x); err != nil {
					b.Fatal(err)
				}
			}
			run() // warm: grows the sets and the engine's buffers
			lagging = 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64((b.Elapsed()-lagging).Nanoseconds())/float64(b.N*reads), "ns/read")
		})
	}
}

// FuzzAddrSetAgainstMap interleaves insert, find, sign, overlaps and reset
// on one addrSet, generation wrap-arounds included, and checks each against
// a map model: positions, distinctness and first-access order; after a
// sign, the signature and sub-signatures equal the eager ones; and the
// overlaps verdict equals "some member passes the commit signature's
// membership query", which holds whenever the commit wrote a member. The
// 256-bit signature saturates early, so the layered filter reaches its
// per-address step often.
func FuzzAddrSetAgainstMap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 1, 1, 2, 2, 0, 3, 2, 7, 4, 0})
	f.Add([]byte{0, 9, 0, 9, 2, 0, 5, 0, 8, 1, 5, 3, 1, 9, 4, 0, 0, 3})
	f.Add(bytes.Repeat([]byte{0, 17, 0, 33, 1, 17, 2, 0, 3, 1, 33}, 24))
	cfg := sig.Config{M: 256, K: 4}
	h := sig.NewHasher(cfg, 7)
	f.Fuzz(func(t *testing.T, data []byte) {
		s := newAddrSet(cfg)
		pos := map[uint64]int{}
		var order []uint64
		next := func() uint64 { // an address from the next byte; 0 past the end
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return 0x1000 + uint64(b)*8
		}
		for len(data) > 0 {
			op := data[0] % 6
			data = data[1:]
			switch op {
			case 0: // insert
				a := next()
				p, fresh := s.insert(a)
				want, seen := pos[a]
				if !seen {
					want = len(order)
					pos[a] = want
					order = append(order, a)
				}
				if p != want || fresh == seen {
					t.Fatalf("insert(%#x) = %d, %v; model %d, %v", a, p, fresh, want, !seen)
				}
			case 1: // find
				a := next()
				want, seen := pos[a]
				if !seen {
					want = -1
				}
				if p := s.find(a); p != want {
					t.Fatalf("find(%#x) = %d, model %d", a, p, want)
				}
			case 2: // sign
				s.sign(h)
				checkSigned(t, "after sign", &s, h, order)
			case 3: // overlaps against a commit of up to four addresses
				commit := sig.New(cfg)
				wrote := false
				for i := int(next() % 5); i > 0; i-- {
					a := next()
					commit.Insert(h, a)
					_, in := pos[a]
					wrote = wrote || in
				}
				query := false
				for _, a := range order {
					query = query || commit.Query(h, a)
				}
				got := s.overlaps(h, commit)
				if got != query || wrote && !got {
					t.Fatalf("overlaps = %v, model query %v, wrote a member %v", got, query, wrote)
				}
				if len(order) > 0 {
					checkSigned(t, "after overlaps", &s, h, order)
				}
			case 4: // reset
				s.reset()
				clear(pos)
				order = order[:0]
			case 5: // reset into the last generations before the stamp wraps
				if s.gen < math.MaxUint32-1 {
					s.gen = math.MaxUint32 - 1
				}
				s.reset()
				clear(pos)
				order = order[:0]
			}
			if !slices.Equal(s.addrs, order) {
				t.Fatalf("addrs %v, model %v", s.addrs, order)
			}
		}
	})
}
