// Package mvstore is the multi-version store behind the durable commit
// pipeline. Every committed write-set lands here, keyed by its publication
// sequence, before the out-of-order write-back drains it into the flat
// heap. Read-only transactions then execute against a pinned snapshot
// height instead of entering the validation engine at all: a snapshot at
// height h observes exactly the writes of commits with sequence < h, which
// is a consistent LSA snapshot because publication order equals
// serialization order.
//
// # Version chains and the base value
//
// The store shards a map from heap address to a version chain. A chain
// holds a base value plus an ascending list of (seq, value) versions newer
// than it. The base is first captured from the live heap at the moment the
// chain is created — i.e. at the first ApplyUpdates naming the address.
// That read is sound because ApplyUpdates runs at publication time,
// strictly before the publishing commit's own write-back touches the heap
// (and every earlier commit writing the address would already have a
// chain), so the heap still holds the value from before any versioned
// write. Later the fold (below) moves the base forward; a chain is never
// removed from its shard map.
//
// Addresses never written since the store opened have no chain; Snapshot
// reads fall back to the live heap with a miss → load → re-check-miss
// double check (see Snapshot.Read) so a concurrent first write cannot leak
// a future value into an older snapshot.
//
// # Applying and folding
//
// ApplyUpdates must be called by a single goroutine at a time, in strictly
// ascending sequence order — in this repository that caller is the ordered
// publication arm of the commit pipeline (and, during recovery, the WAL
// replay loop). That goroutine also owns the dirty list: the chains that
// hold at least one version. Every CompactEvery applies it folds the
// versions below the minimum pinned snapshot height into the bases of the
// dirty chains only, in place, and drops the chains left without versions
// from the list. The fold's cost is the number of chains written since the
// last fold, not the number of addresses ever written, and a steady-state
// apply onto existing chains allocates nothing.
package mvstore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rococotm/internal/mem"
)

// Config sizes a Store.
type Config struct {
	// Shards is the number of chain-map shards; it must be a power of two.
	// 0 means 64.
	Shards int
	// CompactEvery is the number of ApplyUpdates calls between folds of
	// old versions into chain bases. 0 means 4096; negative disables
	// folding.
	CompactEvery int
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if out.Shards == 0 {
		out.Shards = 64
	}
	if out.Shards < 1 || out.Shards&(out.Shards-1) != 0 {
		return out, fmt.Errorf("mvstore: Shards must be a power of two, got %d", out.Shards)
	}
	if out.CompactEvery == 0 {
		out.CompactEvery = 4096
	}
	return out, nil
}

// chain is one address's version history: the value visible below the
// oldest version (base) and the versions in strictly ascending seq order.
// All three fields are guarded by the shard lock; the fold rewrites them
// in place, so a reader must hold the lock for every field it reads. addr
// locates the shard for the fold.
type chain struct {
	addr mem.Addr
	base mem.Word
	seqs []uint64
	vals []mem.Word
}

// below returns the number of versions with seq < h. Caller holds the
// shard lock (read or write).
//
//tm:hotpath
func (c *chain) below(h uint64) int {
	lo, hi := 0, len(c.seqs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.seqs[mid] < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lookup returns the value visible at snapshot height h (the newest
// version with seq < h, else base). Caller holds the shard lock (read or
// write).
//
//tm:hotpath
func (c *chain) lookup(h uint64) mem.Word {
	if n := c.below(h); n > 0 {
		return c.vals[n-1]
	}
	return c.base
}

// fold makes the newest version below min the base and copies the newer
// versions down in the same backing arrays. Caller holds the shard write
// lock.
func (c *chain) fold(min uint64) {
	cut := c.below(min)
	if cut == 0 {
		return
	}
	c.base = c.vals[cut-1]
	n := copy(c.seqs, c.seqs[cut:])
	copy(c.vals, c.vals[cut:])
	c.seqs, c.vals = c.seqs[:n], c.vals[:n]
}

type shard struct {
	mu     sync.RWMutex
	chains map[mem.Addr]*chain
	_      [24]byte // keep neighbouring shard locks off one cache line
}

// Stats is a point-in-time observability snapshot of a Store.
type Stats struct {
	Height      uint64 // next sequence to apply
	Applies     uint64 // ApplyUpdates calls
	Compactions uint64 // folds run
	Chains      int    // addresses with a version chain
	Versions    int    // retained versions across all chains
	Pins        int    // live snapshot pins
}

// Store is the multi-version map. See the package comment for the
// concurrency contract.
type Store struct {
	heap   *mem.Heap
	shards []shard
	mask   uint64

	height      atomic.Uint64 // next seq to apply; snapshots pin this
	applies     atomic.Uint64
	compactions atomic.Uint64

	cfg Config

	pinMu sync.Mutex
	pins  map[uint64]int // snapshot height -> refcount

	// Owned by the ApplyUpdates goroutine.
	sinceCompact int
	dirty        []*chain // chains holding at least one version
}

// New returns an empty store over heap. Reads of never-written addresses
// fall back to the heap, so an already-populated heap is a valid starting
// state (recovery relies on this).
func New(heap *mem.Heap, cfg Config) (*Store, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Store{
		heap:   heap,
		shards: make([]shard, full.Shards),
		mask:   uint64(full.Shards - 1),
		cfg:    full,
		pins:   make(map[uint64]int),
	}
	for i := range s.shards {
		s.shards[i].chains = make(map[mem.Addr]*chain)
	}
	return s, nil
}

// Height returns the next sequence ApplyUpdates will accept; equivalently,
// the height a snapshot taken now would pin.
func (s *Store) Height() uint64 { return s.height.Load() }

// Heap returns the fallback heap the store was opened over.
func (s *Store) Heap() *mem.Heap { return s.heap }

// Stats sweeps the shards; it is for tests and reporting, not hot paths.
func (s *Store) Stats() Stats {
	st := Stats{
		Height:      s.height.Load(),
		Applies:     s.applies.Load(),
		Compactions: s.compactions.Load(),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		st.Chains += len(sh.chains)
		for _, c := range sh.chains {
			st.Versions += len(c.seqs)
		}
		sh.mu.RUnlock()
	}
	s.pinMu.Lock()
	for _, n := range s.pins {
		st.Pins += n
	}
	s.pinMu.Unlock()
	return st
}

// ApplyUpdates installs one committed write-set at its publication
// sequence. It panics if seq is not the store height: sequences must
// arrive contiguously and in order, exactly as the ordered publication arm
// produces them. addrs and vals are parallel; the store copies what it
// needs, so the caller may reuse both slices.
func (s *Store) ApplyUpdates(seq uint64, addrs []mem.Addr, vals []mem.Word) {
	if h := s.height.Load(); seq != h {
		panic(fmt.Sprintf("mvstore: ApplyUpdates(%d) at height %d (out-of-order publication)", seq, h))
	}
	for i, a := range addrs {
		sh := &s.shards[uint64(a)&s.mask]
		sh.mu.Lock()
		c := sh.chains[a]
		if c == nil {
			// First versioned write to this address: the heap still holds
			// the pre-history value (write-back for this very commit has
			// not run yet — apply precedes it).
			c = &chain{addr: a, base: s.heap.Load(a)}
			sh.chains[a] = c
		}
		if n := len(c.seqs); n > 0 && c.seqs[n-1] == seq {
			// Same commit wrote the address twice; last write wins.
			c.vals[n-1] = vals[i]
		} else {
			if n == 0 {
				s.dirty = append(s.dirty, c)
			}
			c.seqs = append(c.seqs, seq)
			c.vals = append(c.vals, vals[i])
		}
		sh.mu.Unlock()
	}
	s.height.Store(seq + 1)
	s.applies.Add(1)
	if s.cfg.CompactEvery > 0 {
		s.sinceCompact++
		if s.sinceCompact >= s.cfg.CompactEvery {
			s.sinceCompact = 0
			s.compact()
		}
	}
}

// compact folds the versions below the minimum pinned height into the
// bases of the dirty chains and keeps on the list only the chains that
// still hold versions. Runs on the ApplyUpdates goroutine.
func (s *Store) compact() {
	s.pinMu.Lock()
	min := s.height.Load()
	for h := range s.pins {
		if h < min {
			min = h
		}
	}
	s.pinMu.Unlock()
	keep := s.dirty[:0]
	for _, c := range s.dirty {
		sh := &s.shards[uint64(c.addr)&s.mask]
		sh.mu.Lock()
		c.fold(min)
		if len(c.seqs) > 0 {
			keep = append(keep, c)
		}
		sh.mu.Unlock()
	}
	s.dirty = keep
	s.compactions.Add(1)
}

// Snapshot is a consistent read-only view at a pinned height: it observes
// the writes of every commit with publication sequence < Height() and
// nothing newer. Reads are infallible — a snapshot can never abort.
// Snapshots must be released (Store.ReleaseSnapshot) or compaction stalls
// at their height.
type Snapshot struct {
	s        *Store
	h        uint64
	released bool
}

// Height returns the pinned height.
func (sn *Snapshot) Height() uint64 { return sn.h }

// RetrieveSnapshot pins the current height and returns a snapshot reading
// at it.
func (s *Store) RetrieveSnapshot() *Snapshot {
	s.pinMu.Lock()
	// Height is read under pinMu so a concurrent compaction either sees
	// this pin or ran before it — in which case the height read here is at
	// least the compaction's fold point and the snapshot is safe either
	// way.
	h := s.height.Load()
	s.pins[h]++
	s.pinMu.Unlock()
	return &Snapshot{s: s, h: h}
}

// ReleaseSnapshot unpins sn. Releasing a snapshot twice is a programming
// error and panics.
func (s *Store) ReleaseSnapshot(sn *Snapshot) {
	if sn.s != s {
		panic("mvstore: ReleaseSnapshot on foreign snapshot")
	}
	if sn.released {
		panic("mvstore: snapshot released twice")
	}
	sn.released = true
	s.pinMu.Lock()
	n := s.pins[sn.h] - 1
	if n == 0 {
		delete(s.pins, sn.h)
	} else {
		s.pins[sn.h] = n
	}
	s.pinMu.Unlock()
}

// Read returns the word at a as of the snapshot height. It never fails.
//
// The no-chain path double-checks: a miss, a live-heap load, then a
// re-check of the chain map. If the chain is still absent, no write-back
// has ever touched the address (apply precedes write-back), so the heap
// load returned the pre-history value, which is correct at every height.
// If a chain appeared between the checks, all its versions postdate this
// snapshot's pin, so lookup falls through to the chain's base — the value
// captured before that first write-back could race the heap load. Either
// way the chain is read under the shard lock: the fold rewrites it in
// place.
//
//tm:hotpath
func (sn *Snapshot) Read(a mem.Addr) mem.Word {
	sh := &sn.s.shards[uint64(a)&sn.s.mask]
	sh.mu.RLock()
	c := sh.chains[a]
	if c == nil {
		sh.mu.RUnlock()
		v := sn.s.heap.Load(a)
		sh.mu.RLock()
		if c = sh.chains[a]; c == nil {
			sh.mu.RUnlock()
			return v
		}
	}
	v := c.lookup(sn.h)
	sh.mu.RUnlock()
	return v
}
