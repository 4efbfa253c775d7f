package rococotm

import (
	"math"
	"math/bits"

	"rococotm/internal/mem"
	"rococotm/internal/sig"
	"rococotm/internal/tm"
)

// This file is the slow-path half of the hybrid runtime's commit protocol:
// how an uninstrumented fast-path transaction (internal/hybrid) publishes
// its already-applied writes into the global commit order so that engine
// validation, the commit queue, the auditor, and every concurrent slow
// transaction observe it exactly like an engine-validated commit.
//
// A fast transaction executes with no signatures and no engine round trip:
// it takes encounter-time write ownership of heap lines (LineTable), stores
// eagerly with an undo log, and records the seqlock version of every line
// it reads. At commit it calls PublishFast, which
//
//  1. claims the next commit sequence (pipeline.go fastClaim: the footprint
//     is recorded in the engine's validation window, so later slow
//     validations see the fast commit's read and write sets and cross-path
//     write skew is caught);
//  2. arms the thread's update-set entry, the same commit-time lock slow
//     committers use, so later write-backs order WAW against it and slow
//     readers keep spinning on the footprint;
//  3. needs no wait for its turn: steps 1 to 6 run inside the ordered
//     section (TM.order), so GlobalTS == seq from the claim on and no other
//     commit publishes until this one has;
//  4. scans for still-armed earlier write-backs that may overlap its
//     footprint (they could still be storing, with version bumps in
//     flight) and fails conservatively on any hit — the scan never waits,
//     so it cannot deadlock with a write-back that is itself waiting out
//     one of our owned lines;
//  5. validates every recorded read-line version by equality — any slow
//     write-back or fast commit that touched a read line since the read
//     moved the version and fails us;
//  6. publishes as every commit does (pipeline.go publish): the real
//     write signature and footprint on success, the empty ones on failure
//     (the sequence is consumed either way — the engine window already
//     holds the footprint, which is conservative-safe). On failure the undo values are restored first,
//     while the lines are still owned and the update-set entry still held,
//     so the rollback is invisible to every other path.
//
// PublishFast always finalizes the heap: on a nil return the eager stores
// are the committed values; on any error return the undo values have been
// restored. The caller keeps line ownership (odd line versions) across the
// whole call and releases it — EndApply then ownership-word clear — only
// after PublishFast returns, which is what makes the restore invisible.

// FastFootprint is the commit-time footprint a fast-path transaction hands
// to PublishFast. The slices stay owned by the caller and are not retained
// past the call (the engine window copies what it keeps).
type FastFootprint struct {
	// Thread is the committing thread id (also the update-slot index).
	Thread int
	// ReadAddrs is every heap word address the transaction read, for the
	// engine window and the observer.
	ReadAddrs []uint64
	// WriteAddrs64 is every written heap word address, for the engine
	// window, the write signature, and the observer.
	WriteAddrs64 []uint64
	// WriteOrder/NewVals/OldVals are the undo log: one entry per written
	// address (first-write order), with the eagerly-stored new value and
	// the pre-transaction value. NewVals is already in the heap when
	// PublishFast is called; OldVals is what a failure restores.
	WriteOrder []mem.Addr
	NewVals    []mem.Word
	OldVals    []mem.Word
	// ReadLines/ReadVers are the recorded seqlock versions of the lines
	// read (even values, captured at first read), validated by equality at
	// the turn. Lines the transaction also write-owns may be omitted:
	// ownership plus the slow write-back's line sentinel already exclude
	// every foreign store from them.
	ReadLines []uint64
	ReadVers  []uint64
}

// PublishFast publishes one fast-path commit into the global commit order.
// It returns nil when the commit is published (the eager stores stand), a
// tm abort error when the attempt must be retried (undo values restored):
// CodeFallback when an irrevocable transaction holds the gate, CodeConflict
// when validation failed at the turn. Any other error is a hard runtime
// fault.
func (r *TM) PublishFast(f *FastFootprint) error {
	if r.lt == nil {
		panic("rococotm: PublishFast without Config.LineTable")
	}
	// The shared gate keeps irrevocable turns exclusive. TryRLock, not
	// RLock: a blocking wait here while holding line ownership could park
	// the irrevocable transaction's own read spins forever.
	if !r.gate.TryRLock() {
		r.restoreFastHeap(f)
		return tm.AbortCode(tm.CodeFallback)
	}
	defer r.gate.RUnlock()

	// The write signature is built before the ordered section, which every
	// committer waits for, so the section holds only the ordered work.
	ws := r.fastSigs[f.Thread]
	ws.Reset()
	for _, a := range f.WriteAddrs64 {
		ws.Insert(r.hasher, a)
	}

	r.order.Lock()
	seq, err := r.fastClaim(f)
	if err != nil {
		r.order.Unlock()
		r.restoreFastHeap(f)
		return err
	}
	// Install the update-set entry — the same commit-time lock a slow
	// committer holds from verdict to write-back completion. From here on,
	// later-sequence write-backs WAW-order behind us and slow readers
	// probing our footprint keep spinning.
	r.arm(f.Thread, seq, ws)

	// Serialization point: GlobalTS == seq until publish. Reads validated
	// here are consistent at this very sequence, so the snapshot the sinks
	// record is the commit's own position. The sequence must reach
	// publication, so a doomed attempt publishes the empty signature; it
	// fails even when its reads hold.
	p := publication{validTS: seq, ws: ws, reads: f.ReadAddrs, writes: f.WriteAddrs64}
	failed := phaseOf(r.live[f.Thread].w.Load()) == phaseDoomed || !r.fastReadsHold(f, seq, ws)
	if failed {
		// The lines are still owned and the update-set entry still armed,
		// so no other path can observe the rollback in flight.
		r.restoreFastHeap(f)
		p = publication{validTS: seq, ws: r.zeroSig}
	} else {
		r.lt.BumpClock()
	}
	r.publish(seq, &p)
	r.order.Unlock()
	r.disarm(f.Thread)
	if failed {
		return tm.AbortCode(tm.CodeConflict)
	}
	return nil
}

// fastReadsHold is a fast commit's validation at its serialization point: no
// write-back below seq still in flight over ws or the reads, every read line
// unmoved.
//
//tm:hotpath
func (r *TM) fastReadsHold(f *FastFootprint, seq uint64, ws sig.Sig) bool {
	// Drain scan: an earlier-sequence write-back still armed may have
	// stores or version bumps in flight. One that may touch our read lines
	// could invalidate them after we check; one that may touch our write
	// lines is (or will be) waiting out our ownership. Either way we fail
	// conservatively instead of waiting — waiting could deadlock against a
	// write-back that is itself doom-spinning on one of our lines.
	rs := r.fastReadSigs[f.Thread]
	rs.Reset()
	for _, a := range f.ReadAddrs {
		rs.Insert(r.hasher, a)
	}
	for m := r.armed.Load() &^ (1 << uint(f.Thread)); m != 0; m &= m - 1 {
		u := &r.updates[bits.TrailingZeros64(m)]
		if u.seq.Load() >= seq {
			continue
		}
		if r.writerMayOverlap(u, rs) || r.writerMayOverlap(u, ws) {
			return false
		}
	}
	// Read validation: every recorded line version must be exactly what
	// the read saw. Completed write-backs bumped by 2, fast commits by 2
	// (BeginApply+EndApply) — any movement is a conflict.
	for i, l := range f.ReadLines {
		if r.lt.Version(l) != f.ReadVers[i] {
			return false
		}
	}
	return true
}

// restoreFastHeap rolls the footprint's eager stores back to the undo
// values. Callers hold write ownership of every touched line (odd
// versions), so no reader — fast or slow — can observe the rollback.
func (r *TM) restoreFastHeap(f *FastFootprint) {
	for i := len(f.WriteOrder) - 1; i >= 0; i-- {
		r.heap.Store(f.WriteOrder[i], f.OldVals[i])
	}
}

// ValidateFastReadOnly is the commit-time check for a read-only fast
// transaction: it either certifies that every recorded read belongs to one
// consistent snapshot, or returns false (abort and retry). Read-only fast
// commits claim no sequence and publish nothing — their serialization
// point is this validation, which slots them between two published
// commits — so without it they would be the one path with no commit-time
// defense against a write-back applying its stores line by line: the
// publication clock moves once per write-back, not per line, and a read
// that lands between two of a write-back's stores sees no clock movement
// and never revalidates its earlier reads.
//
// Two checks close that hole, in this order:
//
//  1. drain scan — any armed update-set entry whose write signature may
//     cover a read address is a committer whose write-back may still be
//     mid-drain; fail conservatively. Every armed entry counts (there is
//     no own sequence to bound the scan by).
//  2. version validation — every recorded read-line version must equal
//     what the read saw. A write-back that retired before the scan bumped
//     each touched line before clearing its entry, so the bumps are
//     visible here; one that arms after the scan either bumps a read line
//     before we load it (caught) or applies entirely after our loads
//     (serializes after us).
//
//tm:hotpath
func (r *TM) ValidateFastReadOnly(f *FastFootprint) bool {
	if r.lt == nil {
		panic("rococotm: ValidateFastReadOnly without Config.LineTable")
	}
	return r.fastReadsHold(f, math.MaxUint64, r.zeroSig)
}

// IrrevocablePending reports that a thread is waiting for (or holding) the
// irrevocable gate. Fast transactions poll it and self-abort: they never
// block on the gate, so the irrevocable turn could otherwise starve behind
// a stream of fast commits, and a fast owner spinning inside the
// irrevocable transaction's read would deadlock against it.
//
//tm:hotpath
func (r *TM) IrrevocablePending() bool {
	return r.irrevPending.Load() > 0
}

// LineTable returns the shared line table (nil when the hybrid fast path
// is not configured).
func (r *TM) LineTable() *mem.LineTable { return r.lt }
