package rococotm

import (
	"sync/atomic"

	"rococotm/internal/tm"
)

// liveWord says whether a thread's attempt — a slow txn or a hybrid fast-path
// attempt — is live (DESIGN §7): stamp<<10 | phase<<8 | code, the stamp a
// per-thread attempt counter, the code what a doomed attempt aborts with. Only
// begin and end (the owner's) and doom (a remote CAS) change it; a refused
// event leaves it unchanged. A stamp is never reused, so a doom can never land
// on a successor of the attempt it was aimed at.
//
//	word \ event   begin(p)     end    doom(seen, c)
//	idle           p, stamp+1   idle   refused
//	slow, fast     refused      idle   doomed(c), if the word is seen
//	doomed         refused      idle   refused
type liveWord struct {
	w atomic.Uint64
	_ [7]uint64 // alone on its cache line
}

type phase uint64

const (
	phaseIdle phase = iota
	phaseSlow
	phaseFast
	phaseDoomed

	codeBits   = 8
	stampShift = codeBits + 2
)

func phaseOf(w uint64) phase { return phase(w>>codeBits) & 3 }

// begin starts the owner's next attempt in phase p and returns its running
// word; ok is false unless the thread was idle.
//
//tm:hotpath
func (l *liveWord) begin(p phase) (attempt uint64, ok bool) {
	w := l.w.Load()
	if phaseOf(w) != phaseIdle {
		return w, false
	}
	attempt = (w>>stampShift+1)<<stampShift | uint64(p)<<codeBits
	l.w.Store(attempt)
	return attempt, true
}

// end returns the owner's thread to idle. A doom that landed after the
// attempt's last safe point is dropped: the attempt is over.
//
//tm:hotpath
func (l *liveWord) end() { l.w.Store(l.w.Load() >> stampShift << stampShift) }

// doom dooms the running attempt whose word the caller saw, with code c.
//
//tm:hotpath
func (l *liveWord) doom(seen uint64, c tm.Code) bool {
	if p := phaseOf(seen); p != phaseSlow && p != phaseFast {
		return false
	}
	return l.w.CompareAndSwap(seen, seen>>stampShift<<stampShift|uint64(phaseDoomed)<<codeBits|uint64(c))
}

// Liveness is a safe point's reading of an attempt (Poll).
type Liveness uint8

const (
	Live   Liveness = iota // the word still holds the attempt
	Doomed                 // the attempt ends with the returned code
	Over                   // the attempt already ended: return the dead answer
)

// Poll is every safe point of thread's attempt whose running word is attempt,
// slow or fast: one load and compare.
//
//tm:hotpath
func (r *TM) Poll(thread int, attempt uint64) (tm.Code, Liveness) {
	switch w := r.live[thread].w.Load(); {
	case w == attempt:
		return 0, Live
	case w>>codeBits == attempt>>codeBits|uint64(phaseDoomed):
		return tm.Code(w), Doomed
	}
	return tm.CodeConflict, Over
}

// BeginFast and EndFast begin and end a hybrid fast-path attempt; BeginFast
// returns the attempt's running word, ok false while the thread is not idle.
func (r *TM) BeginFast(thread int) (uint64, bool) { return r.live[thread].begin(phaseFast) }
func (r *TM) EndFast(thread int)                  { r.live[thread].end() }

// doomFastOwner dooms thread's attempt with a conflict if it is a fast one —
// the owner of a line a slow write-back or an irrevocable reader waits for,
// which rolls back at its next safe point (or inside PublishFast).
//
//tm:hotpath
func (r *TM) doomFastOwner(thread int) {
	if thread >= 0 && thread < len(r.live) {
		if w := r.live[thread].w.Load(); phaseOf(w) == phaseFast {
			r.live[thread].doom(w, tm.CodeConflict)
		}
	}
}
