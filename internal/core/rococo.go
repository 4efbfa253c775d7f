// Package core implements the ROCoCo algorithm (Reachability-based
// Optimistic Concurrency Control), the paper's primary contribution (§4).
//
// ROCoCo validates serializability without timestamps: it maintains the
// transitive closure (reachability matrix R) of the R/W-dependency graph
// over a sliding window of the last W committed transactions. An incoming
// transaction t presents two adjacency vectors against the window,
//
//	f — forward edges:  bit i set means t →rw t_i (t must serialize
//	    before committed transaction t_i; e.g. t read a version that t_i
//	    later overwrote without t seeing it);
//	b — backward edges: bit i set means t_i →rw t (t_i must serialize
//	    before t; RAW / WAR / WAW against updates t already observed).
//
// Following Warshall's fact and its dual, the manager computes
//
//	p = f ∨ Rᵀ·f   (p[i]: t can reach t_i)
//	s = b ∨ R·b    (s[i]: t_i can reach t)
//
// in boolean algebra, and t closes a dependency cycle iff p ∧ s ≠ 0. If t
// is acyclic it commits as the newest window entry: p and s become the new
// row and column of R, and r[i][j] |= s[i] ∧ p[j] restores transitivity.
// Every step is a constant number of word-parallel bit operations per row —
// the O(1)-per-transaction validation that the FPGA pipelines.
//
// Two implementations are provided: Window, the W ≤ 64 fast path where
// every vector is a single machine word (mirroring the 64-entry 2-D
// register file of the hardware), and BigWindow, a bitmat-backed variant
// for arbitrary W used by the window-size ablation and as a cross-check.
//
// Window costs the edges, not the window. Commit q lives in ring slot q&63
// for as long as it is tracked, so sliding the window clears one slot and
// shifts nothing, and Window keeps R and its transpose Rᵀ side by side: p
// ORs the rows selected by f and s ORs the columns selected by b. The cost
// is per edge — one word operation per bit of f and b to validate, per bit
// of p and s to commit, and per bit of the evicted entry's row and column
// to slide — so a transaction with no edges costs O(1) however full the
// window is.
// Validate, Insert and Matrix speak window coordinates (bit i is the i-th
// oldest entry), ValidateRing and InsertRing ring coordinates (bit q&63 is
// commit q) — the detector's slot-aligned columns need no rotation.
package core

import (
	"fmt"
	"math/bits"

	"rococotm/internal/bitmat"
)

// Seq is the commit sequence number of a transaction: the position of the
// transaction in the global commit order the validator constructs. Seq 0 is
// the first committed transaction.
type Seq uint64

// DefaultW is the window size the paper deploys on HARP2 (§4.2): 64
// transactions for at most 28 concurrent threads.
const DefaultW = 64

// Window is the W ≤ 64 ROCoCo reachability window. Commit q occupies ring
// slot q&63 while tracked; rows[i] bit j is r[i][j] = "slot-i transaction
// reaches slot-j transaction" and cols[j] bit i is the same bit, so R·b and
// Rᵀ·f are both ORs of selected words. The ring is bit-equivalent to a
// register file that shifts on every slide: window slot i (0 = oldest) is
// ring slot (BaseSeq()+i)&63. When full, a commit evicts the oldest entry —
// the paper's discarded bookkeeping h_{W-1}.
//
// Window is not safe for concurrent use; the manager that owns it
// serializes validations, exactly like the hardware pipeline's one-verdict-
// per-cycle broadcast.
type Window struct {
	w     int        // capacity (W)
	n     int        // live entries
	base  Seq        // seq of the oldest entry (window slot 0)
	next  Seq        // seq the next commit receives
	rows  [64]uint64 // R, ring slots: rows[i] bit j = r[i][j]
	cols  [64]uint64 // Rᵀ: cols[j] bit i = r[i][j]
	stats Stats
}

// Stats counts validator events, for the experiment harness.
type Stats struct {
	Validated uint64 // total Validate/Insert decisions
	Cycles    uint64 // aborts due to a detected dependency cycle
	Commits   uint64 // successful inserts
	Evictions uint64 // window slides (oldest entry discarded)
}

// NewWindow returns an empty window of capacity w, 1 ≤ w ≤ 64.
func NewWindow(w int) *Window {
	if w < 1 || w > 64 {
		panic(fmt.Sprintf("core: window size %d out of range [1,64]", w))
	}
	return &Window{w: w}
}

// W returns the window capacity.
func (w *Window) W() int { return w.w }

// Count returns the number of committed transactions currently tracked.
func (w *Window) Count() int { return w.n }

// BaseSeq returns the sequence number of slot 0 (the oldest tracked
// transaction). Meaningless when Count() == 0.
func (w *Window) BaseSeq() Seq { return w.base }

// NextSeq returns the sequence number the next committed transaction will
// be assigned.
func (w *Window) NextSeq() Seq { return w.next }

// Covers reports whether seq is still tracked by the window. Transactions
// whose dependencies reach transactions older than BaseSeq "neglect updates
// of t_{k-W}" (§4.2) and must be aborted by the caller.
func (w *Window) Covers(seq Seq) bool {
	return w.n > 0 && seq >= w.base && seq < w.next
}

// Slot maps a sequence number to its current window slot.
func (w *Window) Slot(seq Seq) (int, bool) {
	if !w.Covers(seq) {
		return 0, false
	}
	return int(seq - w.base), true
}

// Stats returns a copy of the event counters.
func (w *Window) Stats() Stats { return w.stats }

// Reset empties the window (sequence numbering continues).
func (w *Window) Reset() { w.ResetAt(w.next) }

// ResetAt empties the window and rebases sequence numbering at next: the
// next committed transaction receives sequence next, and nothing older is
// tracked. This is the re-synchronization step after an engine crash loses
// window state — the caller supplies the host-side commit count so verdicts
// line up with the global commit order again. Callers must treat every
// transaction whose snapshot predates next as a window overflow, because
// the dependencies of [old base, next) have been discarded.
func (w *Window) ResetAt(next Seq) {
	w.n = 0
	w.base = next
	w.next = next
	w.rows = [64]uint64{}
	w.cols = [64]uint64{}
}

// rot is the ring slot of window slot 0: rotating a window-coordinate
// vector left by rot gives its ring form.
func (w *Window) rot() int { return int(w.base & 63) }

// live returns a ring mask with one bit per occupied slot.
func (w *Window) live() uint64 {
	return bits.RotateLeft64(uint64(1)<<uint(w.n)-1, w.rot()) // n = 64 wraps to all ones
}

// Validate computes the proceeding and succeeding vectors for a transaction
// with forward edges f and backward edges b (bit i ↔ slot i) and reports
// whether committing it would keep the window acyclic. It does not modify
// the window. Bits of f and b beyond Count() are ignored.
func (w *Window) Validate(f, b uint64) (p, s uint64, ok bool) {
	r := w.rot()
	p, s, ok = w.ValidateRing(bits.RotateLeft64(f, r), bits.RotateLeft64(b, r))
	return bits.RotateLeft64(p, -r), bits.RotateLeft64(s, -r), ok
}

// ValidateRing is Validate in ring coordinates: bit q&63 of every vector
// stands for commit q. Bits of untracked slots are ignored.
func (w *Window) ValidateRing(f, b uint64) (p, s uint64, ok bool) {
	w.stats.Validated++
	live := w.live()
	p, s = f&live, b&live
	// p = f ∨ Rᵀ·f and s = b ∨ R·b: OR the rows selected by f and the
	// columns selected by b.
	for m := p; m != 0; m &= m - 1 {
		p |= w.rows[bits.TrailingZeros64(m)]
	}
	for m := s; m != 0; m &= m - 1 {
		s |= w.cols[bits.TrailingZeros64(m)]
	}
	if p&s != 0 {
		w.stats.Cycles++
		return p, s, false
	}
	return p, s, true
}

// Insert validates and, if acyclic, commits the transaction, returning its
// sequence number. ok=false means the transaction must abort and the window
// is unchanged.
func (w *Window) Insert(f, b uint64) (seq Seq, ok bool) {
	r := w.rot()
	return w.InsertRing(bits.RotateLeft64(f, r), bits.RotateLeft64(b, r))
}

// InsertRing is Insert in ring coordinates (see ValidateRing).
func (w *Window) InsertRing(f, b uint64) (seq Seq, ok bool) {
	p, s, ok := w.ValidateRing(f, b)
	if !ok {
		return 0, false
	}
	if w.n == w.w {
		// Slide: discard the oldest entry. When W = 64 its slot is the one
		// the new commit takes.
		old := w.evict()
		p &^= old
		s &^= old
	}
	// The new entry t reaches itself and p, and is reached by s: set
	// r[i][j] for every i ∈ s ∪ {t}, j ∈ p ∪ {t}, in R and in Rᵀ.
	t := uint64(1) << (w.next & 63)
	p |= t
	s |= t
	for m := s; m != 0; m &= m - 1 {
		w.rows[bits.TrailingZeros64(m)] |= p
	}
	for m := p; m != 0; m &= m - 1 {
		w.cols[bits.TrailingZeros64(m)] |= s
	}
	w.n++
	w.stats.Commits++
	seq = w.next
	w.next++
	return seq, true
}

// evict drops the oldest entry: its bit leaves the columns its row selects
// and the rows its column selects, then its own row and column clear. It
// returns the freed slot's bit.
func (w *Window) evict() uint64 {
	e := w.base & 63
	bit := uint64(1) << e
	for m := w.rows[e]; m != 0; m &= m - 1 {
		w.cols[bits.TrailingZeros64(m)] &^= bit
	}
	for m := w.cols[e]; m != 0; m &= m - 1 {
		w.rows[bits.TrailingZeros64(m)] &^= bit
	}
	w.rows[e], w.cols[e] = 0, 0
	w.base++
	w.n--
	w.stats.Evictions++
	return bit
}

// Matrix materializes the current reachability matrix (Count()×Count(), in
// window order) for inspection and testing.
func (w *Window) Matrix() *bitmat.Mat {
	m := bitmat.NewMat(w.n)
	r := w.rot()
	for i := 0; i < w.n; i++ {
		row := bits.RotateLeft64(w.rows[(r+i)&63], -r)
		for j := 0; j < w.n; j++ {
			if row&(1<<uint(j)) != 0 {
				m.Set(i, j, true)
			}
		}
	}
	return m
}
