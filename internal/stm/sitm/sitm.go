// Package sitm is a multi-version snapshot-isolation STM — the semantics
// the paper's §2 ranks below serializability ("provided by almost all
// databases and some TMs" because SI is compositional and cheap to
// enforce). It exists as the executable counterpart of Figure 1: under
// sitm two transactions can commit a write skew that every serializable
// runtime in this repository rejects, which the test suite demonstrates.
//
// Design: a global version clock; per-address version chains kept outside
// the word heap (the heap itself always holds the latest committed value,
// so non-transactional readers and the tmds structures keep working); a
// transaction reads the newest version ≤ its snapshot and buffers writes;
// commit takes the first-committer-wins check — any written address with a
// version newer than the snapshot aborts the transaction — then installs
// all writes at a fresh timestamp under a short critical section.
package sitm

import (
	"sync"

	"rococotm/internal/mem"
	"rococotm/internal/tm"
)

// version is one committed value of an address.
type version struct {
	ts  uint64
	val mem.Word
}

// Config parameterizes the runtime.
type Config struct {
	// GCKeep bounds the version-chain length per address (older versions
	// beyond the newest GCKeep are dropped; a reader with an older
	// snapshot aborts). Default 64.
	GCKeep int
}

func (c *Config) fill() {
	if c.GCKeep == 0 {
		c.GCKeep = 64
	}
}

// TM is the snapshot-isolation runtime.
type TM struct {
	heap *mem.Heap
	cfg  Config

	mu       sync.Mutex // guards clock and chains on the commit path
	clock    uint64
	chains   map[mem.Addr][]version // committed versions, oldest first
	chainsMu sync.RWMutex           // guards the chains map for readers

	cnt tm.Counters
}

// New returns an SI runtime over heap.
func New(heap *mem.Heap, cfg Config) *TM {
	cfg.fill()
	return &TM{heap: heap, cfg: cfg, chains: map[mem.Addr][]version{}}
}

// Name implements tm.TM.
func (s *TM) Name() string { return "si" }

// Heap implements tm.TM.
func (s *TM) Heap() *mem.Heap { return s.heap }

// Stats implements tm.TM.
func (s *TM) Stats() tm.Stats { return s.cnt.Snapshot() }

// Close implements tm.TM.
func (s *TM) Close() {}

type txn struct {
	s      *TM
	snap   uint64
	redo   map[mem.Addr]mem.Word
	worder []mem.Addr
	dead   bool
}

// Begin implements tm.TM.
func (s *TM) Begin(int) (tm.Txn, error) {
	s.cnt.OnStart()
	s.mu.Lock()
	snap := s.clock
	s.mu.Unlock()
	return &txn{s: s, snap: snap, redo: map[mem.Addr]mem.Word{}}, nil
}

// Read implements tm.Txn: newest version ≤ snapshot.
func (x *txn) Read(a mem.Addr) (mem.Word, error) {
	if x.dead {
		return 0, tm.AbortCode(tm.CodeConflict)
	}
	if v, ok := x.redo[a]; ok {
		return v, nil
	}
	x.s.chainsMu.RLock()
	chain := x.s.chains[a]
	// Walk from the newest version down to the snapshot.
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i].ts <= x.snap {
			v := chain[i].val
			x.s.chainsMu.RUnlock()
			return v, nil
		}
	}
	gcTruncated := len(chain) > 0 // all tracked versions are newer
	x.s.chainsMu.RUnlock()
	if gcTruncated {
		// The snapshot predates the retained chain: abort (GC window).
		x.dead = true
		x.s.cnt.OnAbort(tm.CodeWindow)
		return 0, tm.AbortCode(tm.CodeWindow)
	}
	// Never written transactionally: the heap value is the initial
	// version (timestamp 0 ≤ any snapshot).
	return x.s.heap.Load(a), nil
}

// Write implements tm.Txn: buffered.
func (x *txn) Write(a mem.Addr, v mem.Word) error {
	if x.dead {
		return tm.AbortCode(tm.CodeConflict)
	}
	if _, seen := x.redo[a]; !seen {
		x.worder = append(x.worder, a)
	}
	x.redo[a] = v
	return nil
}

// Commit implements tm.TM: first-committer-wins, then install.
func (s *TM) Commit(t tm.Txn) error {
	x := t.(*txn)
	if x.dead {
		return tm.AbortCode(tm.CodeConflict)
	}
	x.dead = true
	if len(x.redo) == 0 {
		s.cnt.OnCommit(true)
		return nil
	}
	s.mu.Lock()
	// First-committer-wins: a write set that intersects any version newer
	// than the snapshot loses.
	s.chainsMu.RLock()
	for _, a := range x.worder {
		chain := s.chains[a]
		if len(chain) > 0 && chain[len(chain)-1].ts > x.snap {
			s.chainsMu.RUnlock()
			s.mu.Unlock()
			s.cnt.OnAbort(tm.CodeConflict)
			return tm.AbortCode(tm.CodeConflict)
		}
	}
	s.chainsMu.RUnlock()
	s.clock++
	ts := s.clock
	s.chainsMu.Lock()
	for _, a := range x.worder {
		chain := append(s.chains[a], version{ts: ts, val: x.redo[a]})
		if len(chain) > s.cfg.GCKeep {
			chain = append([]version(nil), chain[len(chain)-s.cfg.GCKeep:]...)
		}
		s.chains[a] = chain
		s.heap.Store(a, x.redo[a]) // latest value mirrored in the heap
	}
	s.chainsMu.Unlock()
	s.mu.Unlock()
	s.cnt.OnCommit(false)
	return nil
}

// Abort implements tm.TM.
func (s *TM) Abort(t tm.Txn) {
	x := t.(*txn)
	if !x.dead {
		x.dead = true
		s.cnt.OnAbort(tm.CodeExplicit)
	}
}

var _ tm.TM = (*TM)(nil)
