// Package tinystm reimplements the baseline STM of the paper's evaluation:
// TinySTM with the Lazy Snapshot Algorithm (Felber, Fetzer, Marlier,
// Riegel — "Time-Based Software Transactional Memory"), configured the way
// the paper benchmarks it (§6.2): commit-time locking (lazy conflict
// detection) with write-back of tentative states on commit (lazy version
// management).
//
// The design is the classic time-based STM:
//
//   - a global version clock;
//   - an array of versioned locks, one per address stripe: the low bit is
//     the lock flag (upper bits then hold the owner), otherwise the upper
//     bits hold the version of the last commit that wrote the stripe;
//   - reads validate against the snapshot timestamp and extend the
//     snapshot lazily when they observe newer versions (LSA);
//   - commit locks the write stripes, increments the clock, validates the
//     read set, writes back the redo log, and releases the locks at the
//     new version.
//
// This is exactly the TOCC/strict-serializability design point whose
// "phantom ordering" aborts ROCoCo removes, so keeping it faithful is what
// makes the Figure 10/11 comparisons meaningful.
package tinystm

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"rococotm/internal/mem"
	"rococotm/internal/tm"
)

// Config parameterizes the runtime.
type Config struct {
	// Stripes is the number of versioned locks; must be a power of two.
	// Addresses map to stripes by masking, i.e. word granularity until the
	// heap outgrows the table. Default 1<<18.
	Stripes int
	// MeasureValidation enables the per-commit validation timer used by
	// the Figure 11 experiment (it costs two time syscalls per commit).
	MeasureValidation bool
}

// readLockRetries bounds how often a read spins on a locked or mutating
// stripe before aborting.
const readLockRetries = 8

func (c *Config) fill() {
	if c.Stripes == 0 {
		c.Stripes = 1 << 18
	}
	if c.Stripes&(c.Stripes-1) != 0 {
		panic(fmt.Sprintf("tinystm: Stripes %d not a power of two", c.Stripes))
	}
}

// lock word encoding: LSB set → locked, word>>1 is 1+owner thread.
// LSB clear → word>>1 is the stripe version.
func lockedWord(owner int) uint64 { return uint64(owner+1)<<1 | 1 }
func versionWord(v uint64) uint64 { return v << 1 }
func isLocked(w uint64) bool      { return w&1 != 0 }
func ownerOf(w uint64) int        { return int(w>>1) - 1 }
func versionOf(w uint64) uint64   { return w >> 1 }

// TM is the TinySTM runtime.
type TM struct {
	heap  *mem.Heap
	cfg   Config
	clock atomic.Uint64
	locks []atomic.Uint64
	cnt   tm.Counters
}

// New returns a TinySTM over heap.
func New(heap *mem.Heap, cfg Config) *TM {
	cfg.fill()
	return &TM{heap: heap, cfg: cfg, locks: make([]atomic.Uint64, cfg.Stripes)}
}

// Name implements tm.TM.
func (s *TM) Name() string { return "tinystm" }

// Heap implements tm.TM.
func (s *TM) Heap() *mem.Heap { return s.heap }

// Stats implements tm.TM.
func (s *TM) Stats() tm.Stats { return s.cnt.Snapshot() }

// Close implements tm.TM.
func (s *TM) Close() {}

// GlobalClock exposes the version clock (tests and ablations).
func (s *TM) GlobalClock() uint64 { return s.clock.Load() }

func (s *TM) stripe(a mem.Addr) int { return int(uint64(a) & uint64(s.cfg.Stripes-1)) }

type readEntry struct {
	stripe  int
	version uint64
}

type txn struct {
	s      *TM
	thread int
	start  uint64
	reads  []readEntry
	wmap   map[mem.Addr]mem.Word
	worder []mem.Addr // write order for deterministic write-back
	dead   bool
}

// Begin implements tm.TM.
func (s *TM) Begin(thread int) (tm.Txn, error) {
	s.cnt.OnStart()
	return &txn{
		s:      s,
		thread: thread,
		start:  s.clock.Load(),
		wmap:   map[mem.Addr]mem.Word{},
	}, nil
}

func (x *txn) abort(code tm.Code) error {
	x.dead = true
	x.s.cnt.OnAbort(code)
	return tm.AbortCode(code)
}

// Read implements tm.Txn with the LSA read protocol.
func (x *txn) Read(a mem.Addr) (mem.Word, error) {
	if x.dead {
		return 0, tm.AbortCode(tm.CodeConflict)
	}
	if v, ok := x.wmap[a]; ok {
		return v, nil
	}
	st := x.s.stripe(a)
	lk := &x.s.locks[st]
	for attempt := 0; attempt < readLockRetries; attempt++ {
		l1 := lk.Load()
		if isLocked(l1) {
			continue // writer committing; spin briefly
		}
		v := x.s.heap.Load(a)
		l2 := lk.Load()
		if l1 != l2 {
			continue // stripe changed underneath the read
		}
		if versionOf(l1) > x.start {
			// The stripe was written after our snapshot: try to extend
			// the snapshot (LSA), then retry the read under the new one.
			if !x.extend() {
				return 0, x.abort(tm.CodeConflict)
			}
			continue
		}
		x.reads = append(x.reads, readEntry{stripe: st, version: versionOf(l1)})
		return v, nil
	}
	return 0, x.abort(tm.CodeConflict)
}

// extend attempts to move the snapshot to the current clock: every stripe
// read so far must still be unlocked at a version ≤ the new snapshot.
func (x *txn) extend() bool {
	now := x.s.clock.Load()
	for _, r := range x.reads {
		l := x.s.locks[r.stripe].Load()
		if isLocked(l) || versionOf(l) != r.version {
			return false
		}
	}
	x.start = now
	return true
}

// Write implements tm.Txn: stores are buffered in the redo log.
func (x *txn) Write(a mem.Addr, v mem.Word) error {
	if x.dead {
		return tm.AbortCode(tm.CodeConflict)
	}
	if _, seen := x.wmap[a]; !seen {
		x.worder = append(x.worder, a)
	}
	x.wmap[a] = v
	return nil
}

// Commit implements tm.TM: commit-time locking with write-back.
func (s *TM) Commit(t tm.Txn) error {
	x := t.(*txn)
	if x.dead {
		return tm.AbortCode(tm.CodeConflict)
	}
	if len(x.wmap) == 0 {
		// Read-only fast path: the LSA invariant (all reads consistent at
		// x.start) is already serializability.
		x.dead = true
		s.cnt.OnCommit(true)
		return nil
	}

	// Lock the write stripes in ascending order to avoid deadlock.
	stripes := make([]int, 0, len(x.wmap))
	seen := map[int]bool{}
	for a := range x.wmap {
		st := s.stripe(a)
		if !seen[st] {
			seen[st] = true
			stripes = append(stripes, st)
		}
	}
	sort.Ints(stripes)
	type acquired struct {
		stripe int
		old    uint64
	}
	var held []acquired
	release := func() {
		for _, h := range held {
			s.locks[h.stripe].Store(h.old)
		}
	}
	for _, st := range stripes {
		l := s.locks[st].Load()
		if isLocked(l) || !s.locks[st].CompareAndSwap(l, lockedWord(x.thread)) {
			release()
			return x.abort(tm.CodeConflict)
		}
		held = append(held, acquired{stripe: st, old: l})
	}

	wv := s.clock.Add(1)

	// Validate the read set against the snapshot. A stripe we locked
	// ourselves validates against its pre-lock version.
	var t0 time.Time
	if s.cfg.MeasureValidation {
		t0 = time.Now()
	}
	ownVersion := map[int]uint64{}
	for _, h := range held {
		ownVersion[h.stripe] = versionOf(h.old)
	}
	for _, r := range x.reads {
		l := s.locks[r.stripe].Load()
		var ver uint64
		if isLocked(l) {
			if ownerOf(l) != x.thread {
				release()
				if s.cfg.MeasureValidation {
					s.cnt.AddValidation(time.Since(t0))
				}
				return x.abort(tm.CodeConflict)
			}
			ver = ownVersion[r.stripe]
		} else {
			ver = versionOf(l)
		}
		if ver != r.version {
			release()
			if s.cfg.MeasureValidation {
				s.cnt.AddValidation(time.Since(t0))
			}
			return x.abort(tm.CodeConflict)
		}
	}
	if s.cfg.MeasureValidation {
		s.cnt.AddValidation(time.Since(t0))
	}

	// Write back the redo log and publish the new version.
	for _, a := range x.worder {
		s.heap.Store(a, x.wmap[a])
	}
	for _, h := range held {
		s.locks[h.stripe].Store(versionWord(wv))
	}
	x.dead = true
	s.cnt.OnCommit(false)
	return nil
}

// Abort implements tm.TM. Execution holds no locks, so rollback is
// dropping the private logs.
func (s *TM) Abort(t tm.Txn) {
	x := t.(*txn)
	if !x.dead {
		x.dead = true
		s.cnt.OnAbort(tm.CodeExplicit)
	}
}

var _ tm.TM = (*TM)(nil)
