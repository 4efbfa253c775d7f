package rococotm

import (
	"fmt"
	"math/bits"
	"runtime"
	"time"

	"rococotm/internal/fpga"
	"rococotm/internal/mem"
	"rococotm/internal/sig"
	"rococotm/internal/tm"
)

// This file is the commit pipeline from the claim on: claim and fastClaim,
// the second step of the front half every commit shares (extend, agg.go, is
// the first), then the ordered-publication stage every holder of a claim
// enters — TM.Commit and PublishFast — and the out-of-order write-back
// phase with its WAW ordering wait.
//
// The stage is the paper's §5.3 protocol after the verdict as four
// functions, one implementation each:
//
//	arm      install the thread's update-set entry (seq, words, armed bit);
//	await    wait for the turn in commit-sequence order;
//	publish  commit-queue signature, aggregate blocks, then the sinks
//	         (CommitObserver, WAL + multi-version store);
//	release  advance GlobalTS — the only store to it after construction.
//
// Publication is strictly ordered; the redo-log drain is not. The
// update-set entry is a commit-time lock that outlives the timestamp
// release: its armed bit is set before the commit-queue slot is published
// and cleared only after write-back completes, so a reader that could
// observe a pre-write-back heap word for a commit ≤ its snapshot
// necessarily sees the armed signature (or a changed GlobalTS) in its
// line-5-7 probe and retries — exactly the spin it always ran. Write-after-write ordering between
// concurrent write-backs is restored by awaitWriters: a committer drains its
// redo log only after every armed update-set entry with an earlier sequence
// and a possibly overlapping write signature has released.
//
// The turn hand-off is batched. Every claimed sequence reaches publication,
// so TM.Commit pre-publishes its queue slot together with a handle to its
// publication record before it waits; the turn-holder publishes itself, then
// runs publish for every contiguously pre-published successor in sequence
// order and passes GlobalTS over the whole group with one store, so K
// waiters are released by one writer instead of K serialized hand-offs.
// Sinks therefore still see gapless, strictly increasing sequences one at a
// time with GlobalTS ≤ seq — possibly on a predecessor's goroutine — and the
// multi-version store still captures base values before that commit's
// write-back can start (its owner moves on only after GlobalTS passes seq).
// PublishFast, which must act at its exact turn, does not pre-publish,
// which is what stops a group at it.

// claim ships x's snapshot and footprint to the engine (§5.3) and returns
// the commit sequence it issued. The error is an abort — window or cycle —
// or a hard engine error. The footprint is the read and write sets' own
// address slices; the engine keeps no reference once Validate returns.
// claim also signs the write set: everything after it — arm, publish,
// awaitWriters — reads x.writes.sig.
func (r *TM) claim(x *txn) (uint64, error) {
	x.writes.sign(r.hasher)
	timed := r.cfg.MeasurePhases
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	v, err := r.eng.Validate(fpga.Request{Token: uint64(x.thread), ValidTS: x.validTS,
		ReadAddrs: x.reads.addrs, WriteAddrs: x.writes.addrs})
	if timed {
		r.cnt.AddValidation(time.Since(t0))
	}
	// Modeled latency as the CPU would see it: CCI round trip + pipeline
	// residency.
	r.cnt.AddModelValidation(fpga.RoundTripNanos + v.ModelNanos)
	switch {
	case err != nil: // the hard error, wrapped below
	case v.OK:
		return uint64(v.Seq), nil
	case v.Reason == fpga.ReasonWindow:
		return 0, tm.AbortCode(tm.CodeWindow)
	case v.Reason == fpga.ReasonCycle:
		return 0, tm.AbortCode(tm.CodeCycle)
	default: // unreachable: a stopped engine refuses with ErrClosed and
		// never answers ReasonClosed; reported as ErrClosed all the same
		err = fpga.ErrClosed
	}
	return 0, fmt.Errorf("rococotm: engine: %w", err)
}

// fastClaim claims the next commit sequence for a fast publication by
// recording its footprint in the engine's window, so later slow
// validations see the fast commit.
func (r *TM) fastClaim(f *FastFootprint) (uint64, error) {
	v, err := r.eng.RecordFast(uint64(f.Thread), f.ReadAddrs, f.WriteAddrs64)
	if err != nil {
		return 0, fmt.Errorf("rococotm: engine: %w", err)
	}
	return uint64(v.Seq), nil
}

// publication is one commit as the stage sees it: what goes into the commit
// queue and what the sinks record. A pre-published record is read by the
// releasing predecessor, so its owner must not touch what it references
// (validTS, the footprint, the redo log) until GlobalTS has passed its
// sequence.
type publication struct {
	validTS       uint64     // snapshot the reads were validated at
	ws            sig.Sig    // write signature for the commit queue
	reads, writes []uint64   // footprint in first-access order, for the sinks
	vals          []mem.Word // vals[i] is the value written to writes[i], for the durable sink
}

// arm installs thread's update-set entry — the commit-time lock on the write
// set ws, held until the caller's write-back completes. Order matters:
// sequence, then words, then the thread's bit of the armed word, so
// awaitWriters on other threads can key WAW ordering off a consistent
// entry.
//
//tm:hotpath
func (r *TM) arm(thread int, seq uint64, ws sig.Sig) {
	u := &r.updates[thread]
	u.seq.Store(seq)
	for i, w := range ws.Words() {
		u.words[i].Store(w)
	}
	r.setArmed(thread, true)
}

// disarm releases thread's update-set entry: the write-back has landed, or
// the sequence was filled with a no-op and nothing will be written.
//
//tm:hotpath
func (r *TM) disarm(thread int) { r.setArmed(thread, false) }

// setArmed sets or clears thread's bit of the armed word: one
// compare-and-swap unless another thread arms or disarms in between.
//
//tm:hotpath
func (r *TM) setArmed(thread int, on bool) {
	bit := uint64(1) << uint(thread)
	for {
		m := r.armed.Load()
		n := m &^ bit
		if on {
			n |= bit
		}
		if r.armed.CompareAndSwap(m, n) {
			return
		}
	}
}

// publishSlot publishes ws as commit seq's write signature in the
// commit-queue ring (seqlock: ver 2seq+1 while writing, 2seq+2 final). pre
// is the handle a pre-publishing committer leaves for its releaser (nil at
// an exact turn); it is stored before the final version and loaded only
// after observing it.
//
//tm:hotpath
func (r *TM) publishSlot(seq uint64, ws sig.Sig, pre *publication) {
	at := seq & r.qMask
	slot := &r.commitQ[at]
	slot.ver.Store(2*seq + 1)
	for i, w := range ws.Words() {
		slot.words[i].Store(w)
	}
	r.preQ[at].Store(pre)
	slot.ver.Store(2*seq + 2)
}

// slotPublished reports whether commit seq's queue slot holds its final
// signature.
//
//tm:hotpath
func (r *TM) slotPublished(seq uint64) bool {
	return r.commitQ[seq&r.qMask].ver.Load() == 2*seq+2
}

// await waits for the turn of seq in the publication order and reports
// whether the caller holds it (GlobalTS == seq: the caller publishes and
// releases) or a predecessor already published the commit with its group
// (GlobalTS > seq). A non-nil pre is pre-published first, which is what
// lets a predecessor do that.
func (r *TM) await(seq uint64, pre *publication) (held bool) {
	if pre != nil {
		r.publishSlot(seq, pre.ws, pre)
	}
	for spin := 0; ; spin++ {
		switch ts := r.globalTS.Load(); {
		case ts == seq:
			return true
		case ts > seq:
			return false
		}
		if spin > 8 {
			runtime.Gosched()
		}
	}
}

// publish makes commit seq part of the committed history: its commit-queue
// slot (unless pre-published), the aggregate blocks it completes, then the
// sinks. The caller holds the turn — GlobalTS == seq, or ≤ seq for a group
// member published by its predecessor — so calls are serial and in sequence
// order, which is the whole contract the sinks rely on: the WAL is
// publication-ordered and gapless by construction, and the store is fed
// before the commit's own write-back can touch the heap.
func (r *TM) publish(seq uint64, p *publication) {
	if !r.slotPublished(seq) {
		r.publishSlot(seq, p.ws, nil)
	}
	r.publishAggregates(seq)
	if r.cfg.Observer != nil {
		r.cfg.Observer.ObserveCommit(seq, p.validTS, p.reads, p.writes)
	}
	if r.dur != nil {
		r.durableAppend(seq, p)
	}
}

// advanceMax bounds how many successors one turn-holder publishes in a
// single group: the cap keeps the holder's time at the head of the chain
// bounded, so its own write-back is not starved by an endless stream of
// pre-published peers.
const advanceMax = 128

// release passes GlobalTS over commit seq, which the caller has published,
// and over every contiguously pre-published successor, publishing each on
// its owner's behalf first.
func (r *TM) release(seq uint64) {
	end := seq
	for end-seq < advanceMax && r.slotPublished(end+1) {
		end++
		r.publish(end, r.preQ[end&r.qMask].Load())
	}
	r.globalTS.Store(end + 1)
}

// writeBack drains x's redo log into the heap — the unordered phase of the
// pipeline — preceded by the WAW wait. wbInflight/wbPeak track how many
// write-backs overlap (Stats.CommitPipelinePeak).
//
//tm:hotpath
func (r *TM) writeBack(x *txn, seq uint64) {
	n := uint64(r.wbInflight.Add(1))
	for {
		peak := r.wbPeak.Load()
		if n <= peak || r.wbPeak.CompareAndSwap(peak, n) {
			break
		}
	}
	r.awaitWriters(seq, x)
	hook := r.wbHook
	lt := r.lt
	if lt != nil {
		// Announce the publication before any store lands — the LineTable
		// contract: a fast transaction that began before this bump and then
		// reads any of this write-back's stores also sees the clock moved,
		// so it revalidates its earlier read lines instead of silently
		// pairing a pre-drain read with a post-drain one. Fast transactions
		// that begin mid-drain miss the signal (their clock snapshot already
		// includes the bump); their commit-time validation — PublishFast's
		// drain scan + read-version check for updaters,
		// ValidateFastReadOnly for read-only commits — is the backstop that
		// keeps the half-applied state from ever committing.
		lt.BumpClock()
	}
	for i, wa := range x.writes.addrs {
		if hook != nil {
			hook(seq, i)
		}
		a := mem.Addr(wa)
		if lt == nil {
			r.heap.Store(a, x.vals[i])
			continue
		}
		// Hybrid coexistence: never store over a line a fast transaction
		// owns — its uncommitted eager store is there, and once the two
		// heap words interleave, neither an abort-restore nor a commit can
		// recover the right final value. Take the line with the slow
		// sentinel (dooming any fast owner out of the way), store, bump
		// the version so fast readers of the line revalidate, release.
		// Holding the sentinel across store+bump is what keeps a fast
		// acquisition from capturing a half-applied undo value.
		line := mem.LineOf(a)
		r.lockLineSlow(line)
		r.heap.Store(a, x.vals[i])
		lt.Bump(line)
		lt.Release(line)
	}
	r.wbInflight.Add(-1)
}

// lockLineSlow takes a line's write ownership with the reserved slow-path
// writer id, dooming each fast owner it meets: the owner observes the doom
// at its next operation (or inside PublishFast) and rolls back, so the
// wait is bounded by one fast abort; a new owner arriving mid-spin is
// doomed in turn. Publications never wait on write-backs, so the global
// commit order keeps advancing while we spin — no cycle can form. Two
// slow write-backs never contend here: awaitWriters already serializes
// overlapping write sets.
//
//tm:hotpath
func (r *TM) lockLineSlow(line uint64) {
	own := r.lt.Own(line)
	for {
		s := own.Load()
		if w := mem.LineWriterOf(s); w >= 0 {
			r.doomFastOwner(w)
			runtime.Gosched()
			continue
		}
		if own.CompareAndSwap(s, mem.LineWithWriter(s, mem.LineSlowWriter)) {
			return
		}
	}
}

// awaitWriters blocks until no in-flight write-back with an earlier
// sequence may touch x's write set — the write-after-write half of
// commit-time locking. Publication order guarantees every such entry was
// fully published (sequence, then words, then armed bit) before our own
// timestamp release, so the scan can never miss an earlier writer; an
// entry that re-arms mid-scan carries a later sequence and is skipped.
// Waiting only on strictly smaller sequences keeps the wait graph acyclic,
// so the spin cannot deadlock: the smallest armed sequence waits on
// nobody and always completes.
//
//tm:hotpath
func (r *TM) awaitWriters(seq uint64, x *txn) {
	for {
		wait := false
		for m := r.armed.Load() &^ (1 << uint(x.thread)); m != 0; m &= m - 1 {
			u := &r.updates[bits.TrailingZeros64(m)]
			if u.seq.Load() >= seq {
				continue
			}
			if r.writerMayOverlap(u, x.writes.sig) {
				wait = true
				break
			}
		}
		if !wait {
			return
		}
		runtime.Gosched()
	}
}

// writerMayOverlap is sig.Intersects against the atomic words of an
// update-set entry: per-partition AND, exact on a false result.
//
//tm:hotpath
func (r *TM) writerMayOverlap(u *updateSlot, s sig.Sig) bool {
	w := s.Words()
	pw := r.sigPW
	for p := 0; p < len(w); p += pw {
		acc := uint64(0)
		for i := p; i < p+pw; i++ {
			acc |= w[i] & u.words[i].Load()
		}
		if acc == 0 {
			return false
		}
	}
	return true
}
