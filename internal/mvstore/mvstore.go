// Package mvstore is the multi-version store behind the durable commit
// pipeline. Every committed write-set lands here, keyed by its publication
// sequence, before the out-of-order write-back drains it into the flat
// heap. Read-only transactions then execute against a pinned snapshot
// height instead of entering the validation engine at all: a snapshot at
// height h observes exactly the writes of commits with sequence < h, which
// is a consistent LSA snapshot because publication order equals
// serialization order.
//
// # A side table of the heap
//
// heads holds one word per heap word: the slab index of that address's
// newest record, 0 if the address was never written since the store
// opened. A record is one version, {seq, val, next}: seq is the publication
// sequence + 1, with 0 marking the base (pre-history) value, so a snapshot
// at height h sees a record iff seq ≤ h; next is the slab index of the next
// older record. Memory: 4 B per heap word, beside the heap's own 8 B, plus
// 24 B per live record and a fixed chunk directory.
//
// The first write to an address pushes a base record captured from the
// heap before the version itself. That read is sound because ApplyUpdates
// runs at publication time, strictly before the publishing commit's own
// write-back touches the heap (and every earlier commit writing the
// address would already have given it a head), so the heap still holds
// the value from before any versioned write.
//
// # Applying and folding
//
// ApplyUpdates must be called by a single goroutine at a time, in strictly
// ascending sequence order — in this repository that caller is the ordered
// publication arm of the commit pipeline (and, during recovery, the WAL
// replay loop). That goroutine owns the slab's growth, its free list and
// the dirty list: the addresses whose chains hold records above their
// floor, marked by dirtyBit in their head. Every CompactEvery applies it
// folds the dirty chains only. A chain's floor is its newest record with
// seq ≤ min, the minimum pinned snapshot height (the store height when
// nothing is pinned); the fold cuts the chain below the floor and pushes
// the cut records onto the free list. A fold costs the records of the
// chains written since the last one, not the addresses ever written (and
// nothing while the same pin holds min). An apply reads one cold line per
// written address, its head: a chain off the dirty list is not read. It
// takes its records from the free list; the slab grows, one chunk at a
// time, only when that is empty.
//
// # Reading without a lock
//
// Snapshot.Read loads the head and walks next until seq ≤ h, so a read
// visits at most one record more than the address's versions applied
// after the reader's pin. Record fields are plain words, published by the
// atomic head store that makes a record reachable. No reader reaches a
// record the fold frees or reuses: every pinned height is ≥ min, a walk
// stops at the first record with seq ≤ h, which is at or above the floor,
// and the fold frees only records below it. The one field the fold writes
// on a reachable record is the floor's next, which a walk never reads; and
// ApplyUpdates rewrites a version's val only before the height passes it,
// when no snapshot can see the record.
package mvstore

import (
	"sync"
	"sync/atomic"

	"rococotm/internal/mem"
)

// Config sizes a Store.
type Config struct {
	// CompactEvery is the number of ApplyUpdates calls between folds of
	// old versions. 0 means 4096; negative disables folding.
	CompactEvery int
}

const (
	chunkShift = 12
	chunkLen   = 1 << chunkShift // records per slab chunk (96 KB)
	maxChunks  = 1 << 15         // the slab holds at most 2^27 records
	dirtyBit   = 1 << 31         // head flag: the address is on the dirty list
)

// record is one version of one address; see the package comment.
type record struct {
	seq  uint64
	val  mem.Word
	next uint32
}

// chunk is the slab's unit of growth.
type chunk [chunkLen]record

// pin counts the live snapshots at one height.
type pin struct {
	h uint64
	n int
}

// Stats is a point-in-time observability snapshot of a Store.
type Stats struct {
	Height      uint64 // next sequence to apply
	Applies     uint64 // ApplyUpdates calls
	Compactions uint64 // folds run
	Chains      int    // addresses with a version chain
	Versions    int    // retained records beyond one per chain
	Pins        int    // live snapshot pins
}

// Store is the multi-version store. See the package comment for the
// concurrency contract.
type Store struct {
	heap  *mem.Heap
	heads []atomic.Uint32         // per heap word: newest record | dirtyBit
	slab  []atomic.Pointer[chunk] // chunk k holds records k·chunkLen…

	height      atomic.Uint64 // next seq to apply; snapshots pin this
	counts      atomic.Uint64 // live records<<32 | chains
	compactions atomic.Uint64

	cfg Config

	pinMu sync.Mutex
	pins  []pin // ascending heights, each n > 0

	// Owned by the ApplyUpdates goroutine.
	used         uint32   // slab indices handed out; index 0 is never a record
	free         []uint32 // recycled record indices
	chains       uint32
	sinceCompact int
	cut          uint64     // min of the last fold
	dirty        []mem.Addr // addresses with records above their floor
}

// New returns an empty store over heap. Reads of never-written addresses
// fall back to the heap, so an already-populated heap is a valid starting
// state (recovery relies on this). The error is always nil.
func New(heap *mem.Heap, cfg Config) (*Store, error) {
	if cfg.CompactEvery == 0 {
		cfg.CompactEvery = 4096
	}
	s := &Store{
		heap:  heap,
		heads: make([]atomic.Uint32, heap.Cap()),
		slab:  make([]atomic.Pointer[chunk], maxChunks),
		cfg:   cfg,
	}
	s.alloc() // index 0: a head of 0 means never written, a next of 0 ends a chain
	return s, nil
}

// Height returns the next sequence ApplyUpdates will accept; equivalently,
// the height a snapshot taken now would pin.
func (s *Store) Height() uint64 { return s.height.Load() }

// Heap returns the fallback heap the store was opened over.
func (s *Store) Heap() *mem.Heap { return s.heap }

// Stats reads the store's counters.
func (s *Store) Stats() Stats {
	h, c := s.height.Load(), s.counts.Load()
	st := Stats{
		Height:      h,
		Applies:     h, // the store opens at height 0 and each apply adds one
		Compactions: s.compactions.Load(),
		Chains:      int(uint32(c)),
		Versions:    int(c>>32) - int(uint32(c)),
	}
	s.pinMu.Lock()
	for _, p := range s.pins {
		st.Pins += p.n
	}
	s.pinMu.Unlock()
	return st
}

// rec returns the record at slab index i.
func (s *Store) rec(i uint32) *record {
	return &s.slab[i>>chunkShift].Load()[i&(chunkLen-1)]
}

// alloc hands out a record index, recycled if the free list has one. A new
// chunk comes from append, so the slab allocates once per chunkLen
// records, never per address.
func (s *Store) alloc() uint32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		return i
	}
	i := s.used
	if i%chunkLen == 0 {
		c := append([]chunk(nil), chunk{})
		s.slab[i>>chunkShift].Store(&c[0])
	}
	s.used++
	return i
}

// ApplyUpdates installs one committed write-set at its publication
// sequence. It panics if seq is not the store height: sequences must
// arrive contiguously and in order, exactly as the ordered publication arm
// produces them. addrs and vals are parallel; the store copies what it
// needs, so the caller may reuse both slices.
//
//tm:hotpath
func (s *Store) ApplyUpdates(seq uint64, addrs []mem.Addr, vals []mem.Word) {
	if seq != s.height.Load() {
		panic("mvstore: ApplyUpdates out of order: seq is not the store height")
	}
	tag := seq + 1
	for i, a := range addrs {
		head := s.heads[a].Load()
		top := head &^ dirtyBit
		if head == 0 {
			// First versioned write to this address: the heap still holds
			// the pre-history value (apply precedes write-back).
			top = s.alloc()
			*s.rec(top) = record{val: s.heap.Load(a)}
			s.chains++
		} else if head&dirtyBit != 0 && s.rec(top).seq == tag {
			s.rec(top).val = vals[i] // the same commit wrote a twice: last write wins
			continue
		}
		if head&dirtyBit == 0 {
			s.dirty = append(s.dirty, a)
		}
		n := s.alloc()
		*s.rec(n) = record{seq: tag, val: vals[i], next: top}
		s.heads[a].Store(n | dirtyBit)
	}
	s.height.Store(tag)
	if s.cfg.CompactEvery > 0 {
		s.sinceCompact++
		if s.sinceCompact >= s.cfg.CompactEvery {
			s.sinceCompact = 0
			s.compact()
		}
	}
	s.counts.Store(uint64(s.used-1-uint32(len(s.free)))<<32 | uint64(s.chains))
}

// compact cuts every dirty chain below its floor, frees the cut records
// and keeps on the dirty list only the chains with records above their
// floor. Runs on the ApplyUpdates goroutine.
func (s *Store) compact() {
	s.compactions.Add(1)
	s.pinMu.Lock()
	min := s.height.Load()
	if len(s.pins) > 0 {
		min = s.pins[0].h
	}
	s.pinMu.Unlock()
	if min == s.cut {
		// Every record applied since the last fold is above min, and that
		// fold left nothing below a floor: a pin held across folds costs
		// one lock each, not a walk of the versions it retains.
		return
	}
	s.cut = min
	keep := s.dirty[:0]
	for _, a := range s.dirty {
		top := s.heads[a].Load() &^ dirtyBit
		f, r := top, s.rec(top)
		for r.seq > min {
			f = r.next
			r = s.rec(f)
		}
		for i := r.next; i != 0; i = s.rec(i).next {
			s.free = append(s.free, i)
		}
		r.next = 0
		if f == top {
			s.heads[a].Store(top) // the floor alone: clean
		} else {
			keep = append(keep, a)
		}
	}
	s.dirty = keep
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
	// way. Heights never fall, so the pin list stays sorted.
	h := s.height.Load()
	if n := len(s.pins); n > 0 && s.pins[n-1].h == h {
		s.pins[n-1].n++
	} else {
		s.pins = append(s.pins, pin{h: h, n: 1})
	}
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
	for i := range s.pins {
		if p := &s.pins[i]; p.h == sn.h {
			if p.n--; p.n == 0 {
				s.pins = append(s.pins[:i], s.pins[i+1:]...)
			}
			break
		}
	}
	s.pinMu.Unlock()
}

// Read returns the word at a as of the snapshot height. It never fails.
//
// A head of 0 double-checks: a miss, a live-heap load, then a re-check of
// the head. If it is still 0, no write-back has ever touched the address
// (apply precedes write-back), so the heap load returned the pre-history
// value, which is correct at every height. If a chain appeared between the
// checks, all its versions postdate this snapshot's pin, so the walk ends
// at its base record — the value captured before that first write-back
// could race the heap load.
//
//tm:hotpath
func (sn *Snapshot) Read(a mem.Addr) mem.Word {
	s := sn.s
	head := s.heads[a].Load()
	if head == 0 {
		v := s.heap.Load(a)
		if head = s.heads[a].Load(); head == 0 {
			return v
		}
	}
	r := s.rec(head &^ dirtyBit)
	for r.seq > sn.h {
		r = s.rec(r.next)
	}
	return r.val
}
