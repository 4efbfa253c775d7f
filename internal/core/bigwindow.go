package core

import (
	"fmt"

	"rococotm/internal/bitmat"
)

// BigWindow is the arbitrary-W ROCoCo reachability window, backed by
// bitmat. It implements the same algorithm as Window and exists for the
// window-size ablation (W > 64) and as a cross-check oracle for the
// word-packed fast path.
//
// Like Window it is not safe for concurrent use.
type BigWindow struct {
	w     int
	n     int
	base  Seq
	next  Seq
	m     *bitmat.Mat // w×w reachability; row i bit j = r[i][j]
	p, s  bitmat.Vec  // Insert scratch: the engine commit path stays allocation-free
	stats Stats
}

// NewBigWindow returns an empty window of capacity w ≥ 1.
func NewBigWindow(w int) *BigWindow {
	if w < 1 {
		panic(fmt.Sprintf("core: window size %d out of range", w))
	}
	return &BigWindow{w: w, m: bitmat.NewMat(w), p: bitmat.NewVec(w), s: bitmat.NewVec(w)}
}

// W returns the window capacity.
func (w *BigWindow) W() int { return w.w }

// Count returns the number of committed transactions currently tracked.
func (w *BigWindow) Count() int { return w.n }

// BaseSeq returns the sequence number of slot 0.
func (w *BigWindow) BaseSeq() Seq { return w.base }

// NextSeq returns the sequence number the next commit will receive.
func (w *BigWindow) NextSeq() Seq { return w.next }

// Covers reports whether seq is still tracked.
func (w *BigWindow) Covers(seq Seq) bool {
	return w.n > 0 && seq >= w.base && seq < w.next
}

// Slot maps a sequence number to its current window slot.
func (w *BigWindow) Slot(seq Seq) (int, bool) {
	if !w.Covers(seq) {
		return 0, false
	}
	return int(seq - w.base), true
}

// Stats returns a copy of the event counters.
func (w *BigWindow) Stats() Stats { return w.stats }

// ResetAt discards all window state and rebases sequence numbering at
// next — the crash/recovery semantics, mirroring Window.ResetAt: whatever
// the window knew about the last W commits is gone, and transactions with
// snapshots older than next must abort with a window verdict until they
// refresh.
func (w *BigWindow) ResetAt(next Seq) {
	for i := 0; i < w.w; i++ {
		w.m.Row(i).Clear()
	}
	w.base = next
	w.next = next
	w.n = 0
}

// Validate computes p and s for adjacency vectors f and b (length ≥
// Count(); longer vectors have their tail ignored) and reports whether the
// transaction is acyclic against the window. f and b are not modified.
func (w *BigWindow) Validate(f, b bitmat.Vec) (p, s bitmat.Vec, ok bool) {
	p = bitmat.NewVec(w.w)
	s = bitmat.NewVec(w.w)
	return p, s, w.validate(f, b, p, s)
}

// validate is Validate into caller-supplied zeroed vectors.
func (w *BigWindow) validate(f, b, p, s bitmat.Vec) bool {
	w.stats.Validated++
	for i := 0; i < w.n; i++ {
		if i < f.Len() && f.Get(i) {
			p.Set(i, true)
			p.Or(w.m.Row(i)) // Rᵀ·f contribution: absorb successors of t_i
		}
	}
	for i := 0; i < w.n; i++ {
		if i < b.Len() && b.Get(i) {
			s.Set(i, true)
		} else {
			// R·b: t_i reaches t if row i intersects b.
			row := w.m.Row(i)
			hit := false
			for j := 0; j < w.n && j < b.Len(); j++ {
				if b.Get(j) && row.Get(j) {
					hit = true
					break
				}
			}
			if hit {
				s.Set(i, true)
			}
		}
	}
	if p.Intersects(s) {
		w.stats.Cycles++
		return false
	}
	return true
}

// Insert validates and, if acyclic, commits the transaction.
func (w *BigWindow) Insert(f, b bitmat.Vec) (seq Seq, ok bool) {
	w.p.Clear()
	w.s.Clear()
	if !w.validate(f, b, w.p, w.s) {
		return 0, false
	}
	w.commit(w.p, w.s)
	w.stats.Commits++
	seq = w.next
	w.next++
	return seq, true
}

func (w *BigWindow) commit(p, s bitmat.Vec) {
	if w.n == w.w {
		// Slide: drop slot 0. Shift rows up, columns left.
		for i := 0; i < w.w-1; i++ {
			src := w.m.Row(i + 1)
			dst := w.m.Row(i)
			dst.Clear()
			dst.Or(src)
		}
		w.m.Row(w.w - 1).Clear()
		shiftLeft := func(v bitmat.Vec) {
			for j := 0; j < w.w-1; j++ {
				v.Set(j, v.Get(j+1))
			}
			v.Set(w.w-1, false)
		}
		for i := 0; i < w.w; i++ {
			shiftLeft(w.m.Row(i))
		}
		shiftLeft(p)
		shiftLeft(s)
		w.base++
		w.n--
		w.stats.Evictions++
	}
	slot := w.n
	row := w.m.Row(slot)
	row.Clear()
	row.Or(p)
	row.Set(slot, true)
	for i := 0; i < slot; i++ {
		if s.Get(i) {
			ri := w.m.Row(i)
			ri.Or(p)
			ri.Set(slot, true)
		}
	}
	w.n++
}

// Matrix materializes the live Count()×Count() reachability matrix.
func (w *BigWindow) Matrix() *bitmat.Mat {
	m := bitmat.NewMat(w.n)
	for i := 0; i < w.n; i++ {
		for j := 0; j < w.n; j++ {
			if w.m.Get(i, j) {
				m.Set(i, j, true)
			}
		}
	}
	return m
}
