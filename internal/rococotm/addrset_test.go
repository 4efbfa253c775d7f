package rococotm

import (
	"math"
	"reflect"
	"testing"

	"rococotm/internal/fpga"
	"rococotm/internal/mem"
	"rococotm/internal/mvstore"
	"rococotm/internal/sig"
	"rococotm/internal/stamp"
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

// BenchmarkReadPath measures the instrumented access path one layer below
// the repo benchmark: whole transactions (Begin, accesses, Commit) on one
// thread, reported as ns per Read call. The shapes are a 32-read read-only
// transaction, the red-black-tree update (a descent reading two words of
// each of ten nodes, a re-read of the bottom three nodes, and a fix-up of
// four writes with a rewrite and two read-your-writes; about the 32 reads
// and 3 writes index-engine averages), and a 4 096-read / 512-write
// transaction with rewrites, the STAMP-sized case.
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
	}{{"ro32", ro32}, {"rbtree-update", tree}, {"large-4096r-512w", large}} {
		b.Run(bc.name, func(b *testing.B) {
			r := New(mem.NewHeap(1<<14), Config{MaxThreads: 1})
			defer r.Close()
			base := r.Heap().MustAlloc(4096)
			reads := 0
			for _, op := range bc.ops {
				if !op.write {
					reads++
				}
			}
			run := func() {
				x, err := r.Begin(0)
				if err != nil {
					b.Fatal(err)
				}
				for _, op := range bc.ops {
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
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*reads), "ns/read")
		})
	}
}
