// Package htm models the best-effort hardware transactional memory the
// paper benchmarks against: "an HTM with 2PL based on Intel TSX" (§6.2).
//
// The model reproduces the mechanisms behind the behaviour Figure 10
// reports, rather than Haswell's micro-architecture:
//
//   - eager conflict detection at 64-byte cache-line granularity: a
//     transaction owns the lines it writes exclusively and the lines it
//     reads shared, for its whole duration (encounter-time two-phase
//     locking, which is how the paper classifies TSX);
//   - requester-loses resolution: touching a line another transaction
//     owns incompatibly aborts the toucher immediately — the source of the
//     chained-abort avalanche the paper observes at high thread counts;
//   - eager version management: stores go straight to memory with an undo
//     log, so aborts roll back by restoring old values while the lines are
//     still exclusively owned;
//   - capacity aborts when the write set outgrows an L1-sized line budget
//     or the read set an L2-sized one — why labyrinth-style transactions
//     can never commit speculatively on real TSX;
//   - optional spurious aborts (TSX aborts "under various indeterministic
//     micro-architectural conditions");
//   - a global-lock fallback after RetryLimit consecutive speculative
//     aborts. The fallback serializes everything, which caps the abort
//     rate at RetryLimit/(RetryLimit+1) — the paper's 83.3 % ceiling for
//     its 5-attempt policy.
package htm

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"rococotm/internal/mem"
	"rococotm/internal/tm"
)

// Config parameterizes the model.
type Config struct {
	// MaxThreads bounds thread ids; default 32, maximum 56 (the reader
	// bitmap shares a word with the writer field).
	MaxThreads int
	// WriteCapacityLines is the L1-like bound on written lines; default 512
	// (32 KiB of 64-byte lines).
	WriteCapacityLines int
	// RetryLimit is the number of consecutive speculative attempts before
	// falling back to the global lock; default 5 (one initial execution
	// plus four retries, the paper's best policy on HARP2).
	RetryLimit int
	// SpuriousProb is the per-attempt probability of an indeterministic
	// abort at commit; default 0.
	SpuriousProb float64
	// Seed drives the spurious-abort stream.
	Seed int64
}

func (c *Config) fill() {
	if c.MaxThreads == 0 {
		c.MaxThreads = 32
	}
	if c.MaxThreads > 56 {
		panic(fmt.Sprintf("htm: MaxThreads %d exceeds reader bitmap (56)", c.MaxThreads))
	}
	if c.WriteCapacityLines == 0 {
		c.WriteCapacityLines = 512
	}
	if c.RetryLimit == 0 {
		c.RetryLimit = 5
	}
}

// readCapacityLines is the bound on the read lines of one speculative
// attempt.
const readCapacityLines = 4096

// Line-state word: bits 0..55 are the reader bitmap (bit t = thread t is a
// reader); bits 56..63 hold writer+1 (0 = no writer).
const writerShift = 56

func readerBit(thread int) uint64 { return 1 << uint(thread) }
func writerOf(s uint64) int       { return int(s>>writerShift) - 1 }
func withWriter(s uint64, thread int) uint64 {
	return (s & (1<<writerShift - 1)) | uint64(thread+1)<<writerShift
}

// TM is the HTM model runtime.
type TM struct {
	heap  *mem.Heap
	cfg   Config
	lines []atomic.Uint64 // one state word per cache line

	fallbackMu   sync.Mutex
	fallbackHeld atomic.Bool
	active       atomic.Int64 // speculative transactions in flight

	consec []int32 // consecutive aborts per thread (each thread owns its slot)
	rngMu  sync.Mutex
	rng    *rand.Rand
	cnt    tm.Counters
}

// New returns an HTM model over heap.
func New(heap *mem.Heap, cfg Config) *TM {
	cfg.fill()
	nLines := (heap.Cap() >> mem.LineShift) + 1
	return &TM{
		heap:   heap,
		cfg:    cfg,
		lines:  make([]atomic.Uint64, nLines),
		consec: make([]int32, cfg.MaxThreads),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Name implements tm.TM.
func (h *TM) Name() string { return "htm-tsx" }

// Heap implements tm.TM.
func (h *TM) Heap() *mem.Heap { return h.heap }

// Stats implements tm.TM.
func (h *TM) Stats() tm.Stats { return h.cnt.Snapshot() }

// Close implements tm.TM.
func (h *TM) Close() {}

type undoEntry struct {
	addr mem.Addr
	old  mem.Word
}

type txn struct {
	h        *TM
	thread   int
	fallback bool
	dead     bool
	rlines   map[uint64]bool
	wlines   map[uint64]bool
	undo     []undoEntry
	written  map[mem.Addr]bool // addresses with an undo entry already
}

// Begin implements tm.TM. After RetryLimit consecutive speculative aborts
// on this thread it returns a fallback transaction holding the global
// lock; otherwise a speculative attempt.
func (h *TM) Begin(thread int) (tm.Txn, error) {
	if thread < 0 || thread >= h.cfg.MaxThreads {
		return nil, fmt.Errorf("htm: thread %d out of range [0,%d)", thread, h.cfg.MaxThreads)
	}
	h.cnt.OnStart()
	if h.consec[thread] >= int32(h.cfg.RetryLimit) {
		h.fallbackMu.Lock()
		h.fallbackHeld.Store(true)
		// Wait for in-flight speculative transactions to observe the lock
		// and abort (lock-elision subscription).
		for h.active.Load() > 0 {
			runtime.Gosched()
		}
		return &txn{h: h, thread: thread, fallback: true}, nil
	}
	// Don't start speculating while the fallback lock is held.
	for h.fallbackHeld.Load() {
		runtime.Gosched()
	}
	h.active.Add(1)
	return &txn{
		h:       h,
		thread:  thread,
		rlines:  map[uint64]bool{},
		wlines:  map[uint64]bool{},
		written: map[mem.Addr]bool{},
	}, nil
}

// abortSpec rolls back a speculative attempt and releases its lines. The
// structured code is what the returned error carries (so the hybrid router
// can classify the abort without string matching); the counter and the
// Error() message still use the legacy string reason.
func (x *txn) abortSpec(code tm.Code) error {
	// Restore values before releasing exclusive ownership.
	for i := len(x.undo) - 1; i >= 0; i-- {
		x.h.heap.Store(x.undo[i].addr, x.undo[i].old)
	}
	x.releaseLines()
	x.dead = true
	x.h.active.Add(-1)
	x.h.consec[x.thread]++
	x.h.cnt.OnAbort(code)
	return tm.AbortCode(code)
}

func (x *txn) releaseLines() {
	for l := range x.wlines {
		st := &x.h.lines[l]
		for {
			s := st.Load()
			ns := s
			if writerOf(s) == x.thread {
				ns = s & (1<<writerShift - 1)
			}
			ns &^= readerBit(x.thread)
			if st.CompareAndSwap(s, ns) {
				break
			}
		}
	}
	for l := range x.rlines {
		if x.wlines[l] {
			continue
		}
		st := &x.h.lines[l]
		for {
			s := st.Load()
			if st.CompareAndSwap(s, s&^readerBit(x.thread)) {
				break
			}
		}
	}
}

// Read implements tm.Txn.
func (x *txn) Read(a mem.Addr) (mem.Word, error) {
	if x.dead {
		return 0, tm.AbortCode(tm.CodeConflict)
	}
	if x.fallback {
		return x.h.heap.Load(a), nil
	}
	if x.h.fallbackHeld.Load() {
		return 0, x.abortSpec(tm.CodeFallback)
	}
	l := mem.LineOf(a)
	if !x.rlines[l] && !x.wlines[l] {
		if len(x.rlines) >= readCapacityLines {
			return 0, x.abortSpec(tm.CodeCapacity)
		}
		st := &x.h.lines[l]
		for {
			s := st.Load()
			if w := writerOf(s); w >= 0 && w != x.thread {
				return 0, x.abortSpec(tm.CodeConflict) // requester loses
			}
			if st.CompareAndSwap(s, s|readerBit(x.thread)) {
				break
			}
		}
		x.rlines[l] = true
	}
	return x.h.heap.Load(a), nil
}

// Write implements tm.Txn: eager store with undo logging.
func (x *txn) Write(a mem.Addr, v mem.Word) error {
	if x.dead {
		return tm.AbortCode(tm.CodeConflict)
	}
	if x.fallback {
		x.h.heap.Store(a, v)
		return nil
	}
	if x.h.fallbackHeld.Load() {
		return x.abortSpec(tm.CodeFallback)
	}
	l := mem.LineOf(a)
	if !x.wlines[l] {
		if len(x.wlines) >= x.h.cfg.WriteCapacityLines {
			return x.abortSpec(tm.CodeCapacity)
		}
		st := &x.h.lines[l]
		for {
			s := st.Load()
			if w := writerOf(s); w >= 0 && w != x.thread {
				return x.abortSpec(tm.CodeConflict)
			}
			if s&^readerBit(x.thread)&(1<<writerShift-1) != 0 {
				return x.abortSpec(tm.CodeConflict) // other readers hold it
			}
			if st.CompareAndSwap(s, withWriter(s, x.thread)) {
				break
			}
		}
		x.wlines[l] = true
	}
	if !x.written[a] {
		x.written[a] = true
		x.undo = append(x.undo, undoEntry{addr: a, old: x.h.heap.Load(a)})
	}
	x.h.heap.Store(a, v)
	return nil
}

// Commit implements tm.TM.
func (h *TM) Commit(t tm.Txn) error {
	x := t.(*txn)
	if x.dead {
		return tm.AbortCode(tm.CodeConflict)
	}
	if x.fallback {
		x.dead = true
		h.consec[x.thread] = 0
		h.fallbackHeld.Store(false)
		h.fallbackMu.Unlock()
		h.cnt.OnCommit(false)
		return nil
	}
	if h.fallbackHeld.Load() {
		return x.abortSpec(tm.CodeFallback)
	}
	if h.cfg.SpuriousProb > 0 {
		h.rngMu.Lock()
		hit := h.rng.Float64() < h.cfg.SpuriousProb
		h.rngMu.Unlock()
		if hit {
			return x.abortSpec(tm.CodeSpurious)
		}
	}
	// Eager versioning: values are already in place; committing is
	// releasing ownership.
	x.releaseLines()
	x.dead = true
	h.active.Add(-1)
	h.consec[x.thread] = 0
	h.cnt.OnCommit(len(x.wlines) == 0)
	return nil
}

// Abort implements tm.TM (application-requested rollback).
func (h *TM) Abort(t tm.Txn) {
	x := t.(*txn)
	if x.dead {
		return
	}
	if x.fallback {
		// The fallback path wrote in place without undo logging, so an
		// application-level abort cannot roll back — same caveat as the
		// sequential baseline; STAMP workloads never do this.
		x.dead = true
		h.consec[x.thread] = 0
		h.fallbackHeld.Store(false)
		h.fallbackMu.Unlock()
		h.cnt.OnAbort(tm.CodeExplicit)
		return
	}
	for i := len(x.undo) - 1; i >= 0; i-- {
		h.heap.Store(x.undo[i].addr, x.undo[i].old)
	}
	x.releaseLines()
	x.dead = true
	h.active.Add(-1)
	// An explicit abort is not a conflict: do not escalate to fallback.
	h.cnt.OnAbort(tm.CodeExplicit)
}

var _ tm.TM = (*TM)(nil)
