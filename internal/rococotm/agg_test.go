package rococotm

import (
	"fmt"
	"testing"
	"time"

	"rococotm/internal/mem"
	"rococotm/internal/sig"
	"rococotm/internal/tm"
)

// ringOff drops r's aggregate signature ring before anything publishes into
// it, so snapshot extension folds per commit: the control arm of the ring's
// equivalence test and benchmark.
func ringOff(r *TM) *TM {
	r.aggMax, r.agg = 0, nil
	return r
}

// TestAggregateBlocksMatchUnions is the white-box correctness check of the
// aggregate signature ring: after a run of commits, every readable block at
// every level must equal the bitwise union of the per-commit write
// signatures it summarizes.
func TestAggregateBlocksMatchUnions(t *testing.T) {
	m := newTM(mem.NewHeap(1<<14), Config{}, 64)
	defer m.Close()
	base := m.Heap().MustAlloc(256)
	for i := 0; i < 200; i++ {
		if err := tm.Run(m, i%4, func(x tm.Txn) error {
			return x.Write(base+mem.Addr(i%256), mem.Word(i))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if m.aggMax < 2 {
		t.Fatalf("aggMax = %d; test needs at least two aggregate levels", m.aggMax)
	}
	scfg := m.hasher.Config()
	got, want, one := sig.New(scfg), sig.New(scfg), sig.New(scfg)
	g := m.GlobalTS()
	for lvl := 1; lvl <= m.aggMax; lvl++ {
		size := uint64(1) << uint(lvl)
		checked := 0
		for lo := uint64(0); lo+size <= g; lo += size {
			if !m.loadAggSig(lvl, lo, got) {
				continue // lapped or never built at this level
			}
			want.Reset()
			members := true
			for ts := lo; ts < lo+size; ts++ {
				if !m.loadCommitSig(ts, one) {
					members = false // commit queue lapped under this block
					break
				}
				want.Union(one)
			}
			if !members {
				continue
			}
			gw, ww := got.Words(), want.Words()
			for i := range gw {
				if gw[i] != ww[i] {
					t.Fatalf("level %d block at %d: aggregate word %d = %#x, union of members = %#x",
						lvl, lo, i, gw[i], ww[i])
				}
			}
			checked++
		}
		if checked == 0 {
			t.Fatalf("level %d: no block was comparable", lvl)
		}
	}
}

// TestExtendFoldEquivalence runs the same deterministic serial workload —
// including a reader that lags hundreds of commits and must extend through
// the backlog — with the aggregate ring enabled and disabled. Outcomes
// (commit/abort verdicts, final heap state, stats) must be identical: the
// ring is an accelerator, not a semantic change.
func TestExtendFoldEquivalence(t *testing.T) {
	run := func(ring bool) (vals []mem.Word, commits, aborts uint64) {
		m := New(mem.NewHeap(1<<14), Config{})
		if !ring {
			ringOff(m)
		}
		defer m.Close()
		base := m.Heap().MustAlloc(64)

		// A snapshot taken at ts 0 lags all subsequent commits.
		lag, err := m.Begin(7)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lag.Read(base); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300; i++ {
			if err := tm.Run(m, i%4, func(x tm.Txn) error {
				return x.Write(base+mem.Addr(1+i%63), mem.Word(i))
			}); err != nil {
				t.Fatal(err)
			}
		}
		// The lagging reader now touches a fresh word: its extension folds
		// the 300-commit backlog (through aggregates when enabled). Its
		// read of base is never overwritten, so it must commit.
		if _, err := lag.Read(base + 1); err != nil {
			t.Fatalf("lagging read: %v", err)
		}
		if err := lag.Write(base, 999); err != nil {
			t.Fatal(err)
		}
		if err := m.Commit(lag); err != nil {
			t.Fatalf("lagging commit: %v", err)
		}
		for i := 0; i < 64; i++ {
			vals = append(vals, m.Heap().Load(base+mem.Addr(i)))
		}
		st := m.Stats()
		return vals, st.Commits, st.Aborts
	}

	withAgg, c1, a1 := run(true)
	without, c2, a2 := run(false)
	if c1 != c2 || a1 != a2 {
		t.Fatalf("stats diverge: agg commits=%d aborts=%d, no-agg commits=%d aborts=%d", c1, a1, c2, a2)
	}
	for i := range withAgg {
		if withAgg[i] != without[i] {
			t.Fatalf("heap word %d: agg=%d no-agg=%d", i, withAgg[i], without[i])
		}
	}
}

// TestExtendFoldOverlapVerdictThroughAggregates checks the precision rule:
// when a true conflict hides inside an aggregate block, the fold must
// surface it (miss-set accumulation, then abort on touching the missed
// word) — and words outside the miss set must stay readable. The backlog is
// sized to a full level-3 block so the fold provably goes through the ring.
func TestExtendFoldOverlapVerdictThroughAggregates(t *testing.T) {
	m := New(mem.NewHeap(1<<14), Config{})
	defer m.Close()
	base := m.Heap().MustAlloc(64)

	// Reader snapshots ts 0 and reads word 0.
	lag, err := m.Begin(7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lag.Read(base); err != nil {
		t.Fatal(err)
	}
	// 8 commits land, one of them overwriting word 0: a true overlap
	// buried in an aligned aggregate block.
	for i := 0; i < 8; i++ {
		w := base + mem.Addr(1+i)
		if i == 4 {
			w = base
		}
		if err := tm.Run(m, i%4, func(x tm.Txn) error {
			return x.Write(w, 123)
		}); err != nil {
			t.Fatal(err)
		}
	}
	// A word no commit touched: readable, and the extension it triggers
	// must report the overlap (miss-set), not silently extend past it.
	v, err := lag.Read(base + 40)
	if err != nil {
		t.Fatalf("lagged read: %v", err)
	}
	if v != 0 {
		t.Fatalf("untouched word = %d, want 0", v)
	}
	if !lag.(*txn).missAny {
		t.Fatal("conflict inside an aggregate block was not accumulated into the MissSet")
	}
	// Re-reading the overwritten word would tear the snapshot: must abort.
	if _, err := lag.Read(base); err == nil {
		t.Fatal("re-read of a MissSet word succeeded; snapshot would be torn")
	} else if reason, ok := tm.IsAbort(err); !ok || reason != tm.ReasonConflict {
		t.Fatalf("re-read aborted with %v, want %s", err, tm.ReasonConflict)
	}
}

// BenchmarkExtendLag measures one snapshot extension over a backlog of lag
// disjoint commits, with the aggregate ring (O(log K) segment folds) and
// without it (O(K) per-commit folds). Each iteration pins a reader's
// snapshot, lands lag commits on another thread, and times only the
// reader's next read — the one that folds the whole backlog — reported as
// ns/extend; ns/op includes the untimed commits.
func BenchmarkExtendLag(b *testing.B) {
	for _, lag := range []int{4, 16, 64} {
		for _, ring := range []bool{true, false} {
			arm := "ring"
			if !ring {
				arm = "per-commit"
			}
			b.Run(fmt.Sprintf("lag=%d/%s", lag, arm), func(b *testing.B) {
				m := New(mem.NewHeap(1<<14), Config{MaxThreads: 2})
				if !ring {
					ringOff(m)
				}
				defer m.Close()
				base := m.Heap().MustAlloc(lag + 2)
				var folds time.Duration
				for i := 0; i < b.N; i++ {
					rd, err := m.Begin(0)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := rd.Read(base); err != nil {
						b.Fatal(err)
					}
					for j := 0; j < lag; j++ {
						if err := tm.Run(m, 1, func(x tm.Txn) error {
							return x.Write(base+mem.Addr(1+j), 1)
						}); err != nil {
							b.Fatal(err)
						}
					}
					start := time.Now()
					_, err = rd.Read(base + mem.Addr(lag+1))
					folds += time.Since(start)
					if err != nil {
						b.Fatal(err)
					}
					m.Abort(rd)
				}
				b.ReportMetric(float64(folds.Nanoseconds())/float64(b.N), "ns/extend")
			})
		}
	}
}
