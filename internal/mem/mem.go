// Package mem provides the word-addressable shared heap every TM runtime
// in this repository operates on. It plays the role of the process address
// space in the paper's system: TinySTM stripes it with versioned locks, the
// HTM model overlays 64-byte cache lines on it, and ROCoCoTM addresses it
// through bloom-filter signatures.
//
// The heap is a flat array of 64-bit words. All word accesses are atomic,
// so concurrent runtimes never introduce Go-level data races even when they
// speculate; consistency above word granularity is the TM's job.
package mem

import (
	"fmt"
	"sync/atomic"
)

// Addr indexes a word in the heap. The zero address is valid but, by
// convention, never handed out by Alloc, so data structures can use 0 as
// their nil pointer.
type Addr uint64

// Nil is the conventional null pointer for heap-resident data structures.
const Nil Addr = 0

// Word is the unit of storage and of transactional access.
type Word uint64

// Heap is a fixed-capacity shared word array with a bump allocator.
type Heap struct {
	words []uint64
	brk   atomic.Uint64 // next free word; starts at 1 so Nil is never allocated
}

// NewHeap returns a zeroed heap with the given capacity in words.
func NewHeap(capacity int) *Heap {
	if capacity < 2 {
		panic(fmt.Sprintf("mem: heap capacity %d too small", capacity))
	}
	h := &Heap{words: make([]uint64, capacity)}
	h.brk.Store(1)
	return h
}

// Cap returns the heap capacity in words.
func (h *Heap) Cap() int { return len(h.words) }

// InUse returns the number of words handed out (including the reserved
// word 0).
func (h *Heap) InUse() int { return int(h.brk.Load()) }

// Load atomically reads the word at a.
//
//tm:hotpath
func (h *Heap) Load(a Addr) Word {
	return Word(atomic.LoadUint64(&h.words[a]))
}

// Store atomically writes the word at a.
//
//tm:hotpath
func (h *Heap) Store(a Addr, v Word) {
	atomic.StoreUint64(&h.words[a], uint64(v))
}

// Alloc reserves n contiguous words and returns the base address. The
// memory is zeroed (never previously handed out). Allocation is lock-free
// and non-transactional: STAMP-style workloads allocate inside transactions
// and simply leak the block if the transaction aborts, which is also how
// the paper's runtime behaves between retries.
func (h *Heap) Alloc(n int) (Addr, error) {
	if n <= 0 {
		return Nil, fmt.Errorf("mem: Alloc(%d)", n)
	}
	for {
		cur := h.brk.Load()
		next := cur + uint64(n)
		if next > uint64(len(h.words)) {
			return Nil, fmt.Errorf("mem: out of memory (%d words requested, %d free)",
				n, uint64(len(h.words))-cur)
		}
		if h.brk.CompareAndSwap(cur, next) {
			return Addr(cur), nil
		}
	}
}

// MustAlloc is Alloc that panics on exhaustion — for test and example
// setup code.
func (h *Heap) MustAlloc(n int) Addr {
	a, err := h.Alloc(n)
	if err != nil {
		panic(err)
	}
	return a
}

// Snapshot copies words [from, from+n) non-atomically. Only call it while
// no transactions are running (e.g. to verify end states in tests).
func (h *Heap) Snapshot(from Addr, n int) []Word {
	out := make([]Word, n)
	for i := range out {
		out[i] = h.Load(from + Addr(i))
	}
	return out
}

// LineShift is log2 of the number of words per 64-byte cache line; the HTM
// model and locality-aware workloads share this constant.
const LineShift = 3

// LineOf returns the cache-line index of an address.
func LineOf(a Addr) uint64 { return uint64(a) >> LineShift }
