package rococotm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rococotm/internal/audit"
	"rococotm/internal/fpga"
	"rococotm/internal/mem"
	"rococotm/internal/mvstore"
	"rococotm/internal/tm"
	"rococotm/internal/wal"
)

// newShardedDurable builds a Sharded runtime with per-shard auditors and
// MemDevice-backed WALs.
func newShardedDurable(t testing.TB, shards, heapWords int, syncCommit bool) (*Sharded, []*wal.MemDevice, []*audit.Auditor) {
	t.Helper()
	heap := mem.NewHeap(heapWords)
	devs := make([]*wal.MemDevice, shards)
	durables := make([]*Durable, shards)
	observers := make([]CommitObserver, shards)
	auditors := make([]*audit.Auditor, shards)
	for i := range devs {
		devs[i] = wal.NewMemDevice(nil)
		d, _, err := RecoverDurable(devs[i], heap, wal.Options{FlushInterval: 100 * time.Microsecond},
			mvstore.Config{}, syncCommit)
		if err != nil {
			t.Fatal(err)
		}
		durables[i] = d
		auditors[i] = audit.New(audit.Config{})
		observers[i] = auditors[i]
	}
	s := NewSharded(heap, ShardedConfig{
		Shards:    shards,
		Observers: observers,
		Durables:  durables,
	})
	return s, devs, auditors
}

// mergedStreams replays each shard's WAL into audit.ShardRecord streams.
// Call after Close (the logs must have flushed).
func mergedStreams(t testing.TB, devs []*wal.MemDevice) [][]audit.ShardRecord {
	t.Helper()
	out := make([][]audit.ShardRecord, len(devs))
	for i, dev := range devs {
		data, err := dev.Contents()
		if err != nil {
			t.Fatal(err)
		}
		res, err := wal.Replay(data)
		if err != nil {
			t.Fatal(err)
		}
		recs := make([]audit.ShardRecord, len(res.Records))
		for k, rec := range res.Records {
			recs[k] = audit.ShardRecord{
				Record: audit.Record{
					Seq:     rec.Seq,
					ValidTS: rec.ValidTS,
					Reads:   rec.Reads,
					Writes:  rec.WriteAddrs,
				},
				XID:     rec.XID,
				XShards: rec.XShards,
			}
		}
		out[i] = recs
	}
	return out
}

// certifySharded runs every certification layer over a finished sharded
// run: per-shard live auditors, per-shard WAL streams, and the merged
// cross-shard graph.
func certifySharded(t testing.TB, devs []*wal.MemDevice, auditors []*audit.Auditor) {
	t.Helper()
	for i, a := range auditors {
		if err := a.Err(); err != nil {
			t.Fatalf("shard %d live auditor: %v", i, err)
		}
	}
	streams := mergedStreams(t, devs)
	for i, recs := range streams {
		plain := make([]audit.Record, len(recs))
		for k := range recs {
			plain[k] = recs[k].Record
		}
		if err := audit.Certify(plain, audit.Config{}); err != nil {
			t.Fatalf("shard %d WAL stream: %v", i, err)
		}
	}
	if err := audit.CertifyMerged(streams); err != nil {
		t.Fatal(err)
	}
}

// shardAddrs allocates one address per shard (using the default modulo
// route), returning addrs where addrs[i] routes to shard i.
func shardAddrs(t testing.TB, s *Sharded, count int) []mem.Addr {
	t.Helper()
	n := s.Shards()
	base := s.Heap().MustAlloc(count * n)
	out := make([]mem.Addr, 0, count*n)
	for k := 0; k < count; k++ {
		for i := 0; i < n; i++ {
			a := base + mem.Addr(k*n)
			for int(uint64(a)%uint64(n)) != i {
				a++
			}
			out = append(out, a)
		}
	}
	return out
}

func TestShardedSingleShardRouting(t *testing.T) {
	s, devs, auditors := newShardedDurable(t, 2, 1<<12, true)
	addrs := shardAddrs(t, s, 1)
	const n = 20
	for i := 0; i < n; i++ {
		for sh := 0; sh < 2; sh++ {
			if err := tm.Run(s, 0, func(x tm.Txn) error {
				v, err := x.Read(addrs[sh])
				if err != nil {
					return err
				}
				return x.Write(addrs[sh], v+1)
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for sh := 0; sh < 2; sh++ {
		if got := s.Heap().Load(addrs[sh]); got != n {
			t.Fatalf("shard %d counter = %d, want %d", sh, got, n)
		}
	}
	cs := s.CrossStats()
	if cs.SingleCommits != 2*n || cs.CrossCommits != 0 {
		t.Fatalf("CrossStats = %+v, want %d single, 0 cross", cs, 2*n)
	}
	vec := s.GlobalTSVector()
	if vec[0] != n || vec[1] != n {
		t.Fatalf("GlobalTSVector = %v, want [%d %d]", vec, n, n)
	}
	s.Close()
	certifySharded(t, devs, auditors)
}

func TestShardedCrossCommitBasics(t *testing.T) {
	s, devs, auditors := newShardedDurable(t, 2, 1<<12, true)
	addrs := shardAddrs(t, s, 1)
	// A cross-shard write pair, then a cross-shard read pair.
	if err := tm.Run(s, 0, func(x tm.Txn) error {
		if err := x.Write(addrs[0], 7); err != nil {
			return err
		}
		return x.Write(addrs[1], 9)
	}); err != nil {
		t.Fatal(err)
	}
	var g0, g1 mem.Word
	if err := tm.Run(s, 0, func(x tm.Txn) error {
		var err error
		if g0, err = x.Read(addrs[0]); err != nil {
			return err
		}
		g1, err = x.Read(addrs[1])
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if g0 != 7 || g1 != 9 {
		t.Fatalf("cross-shard read = %d,%d, want 7,9", g0, g1)
	}
	cs := s.CrossStats()
	// The read-only pair also runs the token protocol (consistent cut).
	if cs.CrossCommits != 2 {
		t.Fatalf("CrossCommits = %d, want 2", cs.CrossCommits)
	}
	vec := s.GlobalTSVector()
	if vec[0] != 2 || vec[1] != 2 {
		t.Fatalf("GlobalTSVector = %v, want [2 2]", vec)
	}
	s.Close()
	streams := mergedStreams(t, devs)
	// Both shards must carry both cross records, tagged with matching
	// XIDs and the full touched mask.
	for i, recs := range streams {
		if len(recs) != 2 {
			t.Fatalf("shard %d: %d records, want 2", i, len(recs))
		}
		for _, rec := range recs {
			if rec.XID == 0 || rec.XShards != 0b11 {
				t.Fatalf("shard %d record %d: XID=%d XShards=%#x, want cross-tagged both shards",
					i, rec.Seq, rec.XID, rec.XShards)
			}
		}
	}
	if streams[0][0].XID != streams[1][0].XID || streams[0][1].XID != streams[1][1].XID {
		t.Fatalf("XIDs disagree across shards: %v vs %v", streams[0], streams[1])
	}
	certifySharded(t, devs, auditors)
}

// TestShardedCrossAtomicityStress is the overlapping-write-set race: many
// goroutines increment the SAME pair of addresses — one per shard — in
// one cross-shard transaction each. Two such transactions validating
// against the same snapshot must never both commit (a lost update), and
// concurrent readers must never observe the pair torn (read skew). Run
// under -race this also exercises every cross-path synchronization edge.
func TestShardedCrossAtomicityStress(t *testing.T) {
	s, devs, auditors := newShardedDurable(t, 2, 1<<12, false)
	addrs := shardAddrs(t, s, 1)
	const (
		writers = 4
		iters   = 150
	)
	var stop atomic.Bool
	var skew atomic.Int64
	var wgR, wgW sync.WaitGroup
	// Cross-shard read-only transactions run the full token protocol, so
	// a torn pair here is a protocol bug, not test flake.
	wgR.Add(1)
	go func() {
		defer wgR.Done()
		for th := writers; !stop.Load(); {
			var v0, v1 mem.Word
			if err := tm.Run(s, th, func(x tm.Txn) error {
				var err error
				if v0, err = x.Read(addrs[0]); err != nil {
					return err
				}
				v1, err = x.Read(addrs[1])
				return err
			}); err != nil {
				t.Error(err)
				return
			}
			if v0 != v1 {
				skew.Add(1)
			}
		}
	}()
	for th := 0; th < writers; th++ {
		wgW.Add(1)
		go func(th int) {
			defer wgW.Done()
			for i := 0; i < iters; i++ {
				if err := tm.Run(s, th, func(x tm.Txn) error {
					v0, err := x.Read(addrs[0])
					if err != nil {
						return err
					}
					v1, err := x.Read(addrs[1])
					if err != nil {
						return err
					}
					if err := x.Write(addrs[0], v0+1); err != nil {
						return err
					}
					return x.Write(addrs[1], v1+1)
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(th)
	}
	wgW.Wait()
	stop.Store(true)
	wgR.Wait()
	const want = writers * iters
	if got := s.Heap().Load(addrs[0]); got != want {
		t.Fatalf("lost update on shard 0: counter = %d, want %d", got, want)
	}
	if got := s.Heap().Load(addrs[1]); got != want {
		t.Fatalf("lost update on shard 1: counter = %d, want %d", got, want)
	}
	if n := skew.Load(); n != 0 {
		t.Fatalf("cross-shard read skew observed %d times", n)
	}
	if live, _ := s.PoolCheck(); live != 0 {
		t.Fatalf("PoolCheck live = %d after join", live)
	}
	s.Close()
	certifySharded(t, devs, auditors)
}

// TestShardedMixedSoak interleaves single-shard and cross-shard traffic
// on 4 shards and certifies every layer, including the merged graph.
func TestShardedMixedSoak(t *testing.T) {
	s, devs, auditors := newShardedDurable(t, 4, 1<<12, false)
	addrs := shardAddrs(t, s, 2)
	const (
		threads = 4
		iters   = 120
	)
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var err error
				switch i % 4 {
				case 0, 1: // single-shard increment
					a := addrs[(th+i)%len(addrs)]
					err = tm.Run(s, th, func(x tm.Txn) error {
						v, e := x.Read(a)
						if e != nil {
							return e
						}
						return x.Write(a, v+1)
					})
				case 2: // cross-shard transfer between two shards
					a0, a1 := addrs[i%4], addrs[(i+1)%4]
					err = tm.Run(s, th, func(x tm.Txn) error {
						v0, e := x.Read(a0)
						if e != nil {
							return e
						}
						v1, e := x.Read(a1)
						if e != nil {
							return e
						}
						if e := x.Write(a0, v0+1); e != nil {
							return e
						}
						return x.Write(a1, v1-1)
					})
				default: // cross-shard read-only
					a0, a1 := addrs[(i+2)%len(addrs)], addrs[(i+5)%len(addrs)]
					err = tm.Run(s, th, func(x tm.Txn) error {
						if _, e := x.Read(a0); e != nil {
							return e
						}
						_, e := x.Read(a1)
						return e
					})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(th)
	}
	wg.Wait()
	st := s.Stats()
	if st.Commits != threads*iters {
		t.Fatalf("front-end commits = %d, want %d", st.Commits, threads*iters)
	}
	cs := s.CrossStats()
	if cs.SingleCommits == 0 || cs.CrossCommits == 0 {
		t.Fatalf("soak exercised only one path: %+v", cs)
	}
	if live, _ := s.PoolCheck(); live != 0 {
		t.Fatalf("PoolCheck live = %d after join", live)
	}
	s.Close()
	certifySharded(t, devs, auditors)
}

// TestShardedSnapshotVector checks RetrieveSnapshot returns cuts that
// never split a cross-shard commit: writers keep the two counters
// identical, snapshot readers must always see them equal.
func TestShardedSnapshotVector(t *testing.T) {
	s, devs, auditors := newShardedDurable(t, 2, 1<<12, false)
	addrs := shardAddrs(t, s, 1)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := tm.Run(s, 0, func(x tm.Txn) error {
				v, e := x.Read(addrs[0])
				if e != nil {
					return e
				}
				if e := x.Write(addrs[0], v+1); e != nil {
					return e
				}
				return x.Write(addrs[1], v+1)
			}); err != nil {
				t.Error(err)
				return
			}
		}
		stop.Store(true)
	}()
	reads := 0
	for !stop.Load() {
		if err := tm.RunReadOnly(s, 1, func(x tm.Txn) error {
			v0, e := x.Read(addrs[0])
			if e != nil {
				return e
			}
			v1, e := x.Read(addrs[1])
			if e != nil {
				return e
			}
			if v0 != v1 {
				t.Errorf("vector snapshot split a cross-shard commit: %d vs %d", v0, v1)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		reads++
	}
	wg.Wait()
	if reads == 0 {
		t.Fatal("no snapshot reads overlapped the writer")
	}
	// The vector snapshot path must actually have been used (every shard
	// is durable here, so RunReadOnly never falls back).
	if sn, err := s.RetrieveSnapshot(); err != nil {
		t.Fatal(err)
	} else {
		hs := sn.(*ShardedSnapshot).Heights()
		if len(hs) != 2 {
			t.Fatalf("snapshot spans %d shards, want 2", len(hs))
		}
		s.ReleaseSnapshot(sn)
	}
	s.Close()
	certifySharded(t, devs, auditors)
}

func TestShardedIrrevocableEscalation(t *testing.T) {
	heap := mem.NewHeap(1 << 10)
	s := NewSharded(heap, ShardedConfig{Shards: 2})
	defer s.Close()
	addrs := shardAddrs(t, s, 1)
	// Direct escalation: the next Begin takes all gates and must still
	// commit a cross-shard write through the token machinery.
	s.Escalate(3)
	x, err := s.Begin(3)
	if err != nil {
		t.Fatal(err)
	}
	if !x.(*stxn).irrevocable {
		t.Fatal("escalated Begin not irrevocable")
	}
	if err := x.Write(addrs[0], 5); err != nil {
		t.Fatal(err)
	}
	if err := x.Write(addrs[1], 6); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(x); err != nil {
		t.Fatal(err)
	}
	if heap.Load(addrs[0]) != 5 || heap.Load(addrs[1]) != 6 {
		t.Fatal("irrevocable cross-shard write lost")
	}
	// And a single-shard irrevocable transaction (still all-gates).
	s.Escalate(3)
	if err := tm.Run(s, 3, func(x tm.Txn) error {
		return x.Write(addrs[0], 8)
	}); err != nil {
		t.Fatal(err)
	}
	if heap.Load(addrs[0]) != 8 {
		t.Fatal("irrevocable single-shard write lost")
	}
	// The world still turns afterwards.
	if err := tm.Run(s, 0, func(x tm.Txn) error {
		return x.Write(addrs[1], 9)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestShardedWideWindow smokes the W>64 bitmat engine path end to end
// through a sharded runtime (the window ablation's W=128/256 arms).
func TestShardedWideWindow(t *testing.T) {
	for _, w := range []int{128, 256} {
		t.Run(fmt.Sprintf("W%d", w), func(t *testing.T) {
			heap := mem.NewHeap(1 << 10)
			s := NewSharded(heap, ShardedConfig{
				Shards: 2,
				Shard:  Config{Engine: fpga.Config{W: w, QueueDepth: w}},
			})
			defer s.Close()
			addrs := shardAddrs(t, s, 1)
			for i := 0; i < 30; i++ {
				if err := tm.Run(s, i%4, func(x tm.Txn) error {
					v, e := x.Read(addrs[0])
					if e != nil {
						return e
					}
					v1, e := x.Read(addrs[1])
					if e != nil {
						return e
					}
					if e := x.Write(addrs[0], v+1); e != nil {
						return e
					}
					return x.Write(addrs[1], v1+1)
				}); err != nil {
					t.Fatal(err)
				}
			}
			if got := heap.Load(addrs[0]); got != 30 {
				t.Fatalf("counter = %d, want 30", got)
			}
		})
	}
}

// TestRecoverShardedClean: run, close cleanly, recover, verify state and
// resume committing with reseeded XIDs.
func TestRecoverShardedClean(t *testing.T) {
	s, devs, _ := newShardedDurable(t, 2, 1<<12, true)
	addrs := shardAddrs(t, s, 1)
	for i := 0; i < 10; i++ {
		if err := tm.Run(s, 0, func(x tm.Txn) error {
			v0, e := x.Read(addrs[0])
			if e != nil {
				return e
			}
			v1, e := x.Read(addrs[1])
			if e != nil {
				return e
			}
			if e := x.Write(addrs[0], v0+1); e != nil {
				return e
			}
			return x.Write(addrs[1], v1+1)
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	heap2 := mem.NewHeap(1 << 12)
	wdevs := make([]wal.Device, len(devs))
	for i, d := range devs {
		wdevs[i] = d
	}
	rec, err := RecoverSharded(wdevs, heap2, wal.Options{}, mvstore.Config{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if rec.CutRecords != 0 {
		t.Fatalf("clean recovery cut %d records", rec.CutRecords)
	}
	if rec.MaxXID != 10 {
		t.Fatalf("MaxXID = %d, want 10", rec.MaxXID)
	}
	if heap2.Load(addrs[0]) != 10 || heap2.Load(addrs[1]) != 10 {
		t.Fatalf("recovered counters = %d,%d, want 10,10",
			heap2.Load(addrs[0]), heap2.Load(addrs[1]))
	}
	s2 := NewSharded(heap2, ShardedConfig{
		Shards:   2,
		Durables: rec.Durables,
		NextXID:  rec.MaxXID,
	})
	if err := tm.Run(s2, 0, func(x tm.Txn) error {
		if e := x.Write(addrs[0], 99); e != nil {
			return e
		}
		return x.Write(addrs[1], 99)
	}); err != nil {
		t.Fatal(err)
	}
	vec := s2.GlobalTSVector()
	if vec[0] != 11 || vec[1] != 11 {
		t.Fatalf("resumed GlobalTSVector = %v, want [11 11]", vec)
	}
	s2.Close()
	streams := mergedStreams(t, devs)
	if got := streams[0][10].XID; got != 11 {
		t.Fatalf("resumed cross commit reused XID %d, want 11", got)
	}
	if err := audit.CertifyMerged(streams); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverShardedTornCross tears a committed cross-shard record off
// ONE shard's log and checks reconciliation cuts its twin from the
// other shard — atomicity across logs: both halves replay or neither.
func TestRecoverShardedTornCross(t *testing.T) {
	s, devs, _ := newShardedDurable(t, 2, 1<<12, true)
	addrs := shardAddrs(t, s, 1)
	// 3 single-shard commits per shard, then one cross-shard pair (the
	// last record on both logs).
	for i := 0; i < 3; i++ {
		for sh := 0; sh < 2; sh++ {
			if err := tm.Run(s, 0, func(x tm.Txn) error {
				v, e := x.Read(addrs[sh])
				if e != nil {
					return e
				}
				return x.Write(addrs[sh], v+1)
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tm.Run(s, 0, func(x tm.Txn) error {
		if e := x.Write(addrs[0], 100); e != nil {
			return e
		}
		return x.Write(addrs[1], 200)
	}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Tear the cross record (the last one) off shard 1's log only.
	data, err := devs[1].Contents()
	if err != nil {
		t.Fatal(err)
	}
	res, err := wal.Replay(data)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Records); n != 4 || res.Records[n-1].XID == 0 {
		t.Fatalf("shard 1 log unexpected: %d records, last XID %d", len(res.Records), res.Records[len(res.Records)-1].XID)
	}
	var keep int64
	for k := 0; k < len(res.Records)-1; k++ {
		keep += int64(res.Records[k].EncodedSize())
	}
	if err := devs[1].Truncate(keep); err != nil {
		t.Fatal(err)
	}

	heap2 := mem.NewHeap(1 << 12)
	wdevs := []wal.Device{devs[0], devs[1]}
	rec, err := RecoverSharded(wdevs, heap2, wal.Options{}, mvstore.Config{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if rec.CutRecords != 1 {
		t.Fatalf("CutRecords = %d, want 1 (shard 0's orphaned half)", rec.CutRecords)
	}
	// Neither half of the torn cross commit replayed; the single-shard
	// history before it survived on both shards.
	if got := heap2.Load(addrs[0]); got != 3 {
		t.Fatalf("shard 0 addr = %d, want 3 (cross half must not replay)", got)
	}
	if got := heap2.Load(addrs[1]); got != 3 {
		t.Fatalf("shard 1 addr = %d, want 3", got)
	}
	if rec.Results[0].NextSeq != 3 || rec.Results[1].NextSeq != 3 {
		t.Fatalf("NextSeqs = %d,%d, want 3,3", rec.Results[0].NextSeq, rec.Results[1].NextSeq)
	}
	// The recovered runtime resumes cleanly.
	s2 := NewSharded(heap2, ShardedConfig{Shards: 2, Durables: rec.Durables, NextXID: rec.MaxXID})
	if err := tm.Run(s2, 0, func(x tm.Txn) error {
		if e := x.Write(addrs[0], 7); e != nil {
			return e
		}
		return x.Write(addrs[1], 7)
	}); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	if err := audit.CertifyMerged(mergedStreams(t, devs)); err != nil {
		t.Fatal(err)
	}
}

// TestShardedNoopFillOnAbort forces a cross-shard conflict abort after
// sequences were claimed and checks the publication stream stays
// gapless (auditors would flag a gap) with XID=0 no-op records.
func TestShardedNoopFillOnAbort(t *testing.T) {
	s, devs, auditors := newShardedDurable(t, 2, 1<<12, false)
	addrs := shardAddrs(t, s, 1)
	const threads = 4
	var wg sync.WaitGroup
	var aborted atomic.Uint64
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				// High-contention cross-shard increments: claimed-then-
				// aborted attempts are common under the forward-only rule.
				x, err := s.Begin(th)
				if err != nil {
					t.Error(err)
					return
				}
				v0, err := x.Read(addrs[0])
				if err != nil {
					aborted.Add(1)
					continue
				}
				if _, err := x.Read(addrs[1]); err != nil {
					aborted.Add(1)
					continue
				}
				if err := x.Write(addrs[0], v0+1); err != nil {
					aborted.Add(1)
					continue
				}
				if err := x.Write(addrs[1], v0+1); err != nil {
					aborted.Add(1)
					continue
				}
				if err := s.Commit(x); err != nil {
					aborted.Add(1)
				}
			}
		}(th)
	}
	wg.Wait()
	s.Close()
	certifySharded(t, devs, auditors)
	// Every record stream is contiguous even though aborts happened
	// mid-protocol; when any did, no-op fills must exist.
	cs := s.CrossStats()
	if cs.CrossAborts > 0 && cs.NoopFills == 0 {
		// Aborts can also happen before claiming; only claimed aborts
		// fill. Nothing to assert then — but flag the suspicious case of
		// many aborts with zero fills on this workload.
		t.Logf("cross aborts %d with no no-op fills (all pre-claim)", cs.CrossAborts)
	}
}

// heldObserver parks the first commit it observes — inside that commit's
// publication, before GlobalTS passes it — until release is closed.
type heldObserver struct {
	once     sync.Once
	entered  chan struct{}
	released chan struct{}
}

func (o *heldObserver) ObserveCommit(seq, validTS uint64, reads, writes []uint64) {
	o.once.Do(func() {
		close(o.entered)
		<-o.released
	})
}

// TestShardedPhase3AbortDisarms: a writing cross-shard commit that aborts
// in phase 3 has armed its update-set entries in phase 2.5 on every shard
// it writes; the no-op fills must disarm them, or every later access to
// its write set spins on a commit-time lock that nobody holds. The abort
// is staged deterministically: a single-shard commit overwrites the cross
// transaction's read on shard 0 and is held inside its publication, so
// phase 1 finds nothing to fold, the cross transaction claims the sequence
// behind it, arms, and fails the phase-3 re-extension once the held commit
// lands.
func TestShardedPhase3AbortDisarms(t *testing.T) {
	obs := &heldObserver{entered: make(chan struct{}), released: make(chan struct{})}
	s := NewSharded(mem.NewHeap(1<<10), ShardedConfig{Shards: 2, Observers: []CommitObserver{obs, nil}})
	defer s.Close()
	addrs := shardAddrs(t, s, 2) // addrs[0], addrs[2] on shard 0; addrs[1] on shard 1
	const thread = 0

	x, err := s.Begin(thread)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Read(addrs[0]); err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs[1:3] {
		if err := x.Write(a, 1); err != nil {
			t.Fatal(err)
		}
	}

	single := make(chan error, 1)
	go func() {
		single <- tm.Run(s, 1, func(y tm.Txn) error { return y.Write(addrs[0], 100) })
	}()
	<-obs.entered // shard 0's seq 0 validated and held mid-publication

	go func() {
		// Release the held commit once phase 2.5 armed both write shards,
		// so the cross-shard commit is awaiting seq 0 in phase 3.
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
			if s.shards[0].updates[thread].active.Load() == 1 && s.shards[1].updates[thread].active.Load() == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Error("cross-shard commit never armed its update-set entries")
				break
			}
		}
		close(obs.released)
	}()
	err = s.Commit(x)
	if code, ok := tm.CodeOf(err); !ok || code != tm.CodeConflict {
		t.Fatalf("cross-shard commit after a held overwrite of its read: err = %v, want a phase-3 conflict abort", err)
	}
	if err := <-single; err != nil {
		t.Fatal(err)
	}
	for i, sh := range s.shards {
		if sh.updates[thread].active.Load() != 0 {
			t.Errorf("shard %d: thread %d's update-set entry still active after its phase-3 abort", i, thread)
		}
	}
	if cs := s.CrossStats(); cs.CrossAborts != 1 || cs.NoopFills != 2 {
		t.Errorf("CrossStats = %+v, want 1 cross abort and 2 no-op fills", cs)
	}
	if got := []mem.Word{s.Heap().Load(addrs[0]), s.Heap().Load(addrs[1]), s.Heap().Load(addrs[2])}; got[0] != 100 || got[1] != 0 || got[2] != 0 {
		t.Errorf("heap = %v, want [100 0 0]: only the single-shard write lands", got)
	}
}

func TestShardedConfigValidation(t *testing.T) {
	heap := mem.NewHeap(64)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("observer in template", func() {
		NewSharded(heap, ShardedConfig{Shard: Config{Observer: audit.New(audit.Config{})}})
	})
	mustPanic("observers length", func() {
		NewSharded(heap, ShardedConfig{Shards: 2, Observers: make([]CommitObserver, 3)})
	})
	mustPanic("too many shards", func() {
		NewSharded(heap, ShardedConfig{Shards: 65})
	})
}
