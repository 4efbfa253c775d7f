package rococotm

import (
	"math/bits"
	"sync/atomic"

	"rococotm/internal/sig"
)

// This file is the aggregate signature ring: a flat segment tree over the
// commit queue that makes snapshot extension O(log K) in the number of
// lagged commits instead of O(K).
//
// Level 0 is the commit queue itself — one write signature per commit.
// Level L (1 ≤ L ≤ aggMax) holds, for every naturally aligned block of 2^L
// commits, the union of their write signatures, in a ring of
// len(commitQ)/2^L seqlock-versioned slots. A block's slot uses the
// same versioning discipline as commitQ: ver = 2*b+1 while block b is
// being built, 2*b+2 once its union is final, where b = seq>>L is the
// absolute block number — so a reader can tell a current block from a
// lapped or mid-build one with a single load.
//
// Blocks are completed by whoever publishes the last commit of the block
// (pipeline.go publish, inside the ordered section of Commit or
// PublishFast): publication is strictly ordered, so when commit seq with
// (seq+1) ≡ 0 (mod 2^L) publishes, every child of block seq>>L is final
// and the union can be built bottom-up without synchronization beyond the
// version stores. Aggregates are always built before GlobalTS advances
// past the block, so any range a reader folds below GlobalTS has its
// aligned blocks available.
//
// Extension (txn.extend, through extendFold) decomposes the lagged range greedily into
// aligned power-of-two segments. A segment whose aggregate does not
// intersect the read set is folded with one union — exact, because a union
// disjoint from the read signature implies every member is. A segment
// whose aggregate *does* hit falls back to per-commit probing for the
// overlap verdict (union saturation must not manufacture conflicts — the
// same precision rule the per-commit path applies via sub-signatures), but
// still folds the TempSet with the single aggregate union.

// aggLevels returns the number of aggregate levels for a commit ring of
// the given size: min(defaultAggLevel, log2(slots)-1), so the top level
// always has at least two slots in its ring.
func aggLevels(slots int) int {
	return max(0, min(defaultAggLevel, bits.TrailingZeros(uint(slots))-1))
}

// initAgg sizes the aggregate rings. Level 0 is nil (the commit queue
// plays that role).
func (r *TM) initAgg(sigWords int) {
	r.aggMax = aggLevels(len(r.commitQ))
	r.agg = make([][]commitSlot, r.aggMax+1)
	for lvl := 1; lvl <= r.aggMax; lvl++ {
		ring := make([]commitSlot, len(r.commitQ)>>uint(lvl))
		for i := range ring {
			ring[i].words = make([]atomic.Uint64, sigWords)
		}
		r.agg[lvl] = ring
	}
}

// defaultAggLevel caps segments at 256 commits: large enough that a reader
// a full default ring behind folds ~log K segments, small enough that the
// serial cost of completing a block stays a handful of cache lines.
const defaultAggLevel = 8

// publishAggregates completes every aggregate block that ends at commit
// seq. Callers hold publication rights for seq (every commit ≤ seq has its
// queue slot final), which is what makes the bottom-up build race-free.
//
//tm:hotpath
func (r *TM) publishAggregates(seq uint64) {
	for lvl := 1; lvl <= r.aggMax; lvl++ {
		if (seq+1)&(1<<uint(lvl)-1) != 0 {
			return // not a block boundary here, nor at any higher level
		}
		b := seq >> uint(lvl)
		ring := r.agg[lvl]
		dst := &ring[b&uint64(len(ring)-1)]
		dst.ver.Store(2*b + 1)
		if lvl == 1 {
			lo := &r.commitQ[(2*b)&r.qMask]
			hi := &r.commitQ[(2*b+1)&r.qMask]
			for i := range dst.words {
				dst.words[i].Store(lo.words[i].Load() | hi.words[i].Load())
			}
		} else {
			child := r.agg[lvl-1]
			cmask := uint64(len(child) - 1)
			lo := &child[(2*b)&cmask]
			hi := &child[(2*b+1)&cmask]
			for i := range dst.words {
				dst.words[i].Store(lo.words[i].Load() | hi.words[i].Load())
			}
		}
		dst.ver.Store(2*b + 2)
	}
}

// loadAggSig copies the union signature of the level-lvl aggregate block
// containing commit lo into dst. ok=false means the block is unavailable
// (mid-build or lapped); callers fall back to the per-commit path, which
// distinguishes a transient publication from a window overflow.
//
//tm:hotpath
func (r *TM) loadAggSig(lvl int, lo uint64, dst sig.Sig) bool {
	b := lo >> uint(lvl)
	ring := r.agg[lvl]
	slot := &ring[b&uint64(len(ring)-1)]
	want := 2*b + 2
	if slot.ver.Load() != want {
		return false
	}
	d := dst.Words()
	for i := range slot.words {
		d[i] = slot.words[i].Load()
	}
	return slot.ver.Load() == want
}

// extend is Algorithm 1 lines 9-19, the one snapshot-extension step every
// entry point takes: fold the commits in [localTS, upto) into the TempSet,
// then either advance validTS to the new localTS (the read set is untouched
// and nothing was missed before) or union the TempSet into the MissSet. An
// empty range changes nothing (validTS == localTS while missAny is false);
// admit, the one caller on the per-access path, skips the call for it.
// ok=false is a window overflow: the snapshot fell out of the commit-queue
// ring. Callers differ only in what they make of missAny afterwards: a read
// aborts if its address is in the MissSet, a commit ships regardless (the
// engine may serialize it before its invalidators).
//
// upto must not exceed GlobalTS, and must not pass any value the caller
// holds that is not yet in the read set: a folded commit that wrote such an
// address would leave the overlap unseen and let validTS advance past a
// write the transaction never saw. Read therefore bounds the fold at the
// GlobalTS its value was loaded under; callers whose reads are all recorded
// pass the live GlobalTS.
//
//tm:hotpath
func (x *txn) extend(upto uint64) (ok bool) {
	x.tempSig.Reset()
	overlap, ok := x.extendFold(upto)
	if !ok {
		return false
	}
	if x.missAny || overlap {
		x.missSig.Union(x.tempSig)
		x.missAny = true
	} else {
		// All reads so far remain consistent at the new snapshot.
		x.validTS = x.localTS
	}
	return true
}

// extendFold folds the write signatures of every commit in [localTS, upto)
// into the TempSet. overlap reports whether any folded commit's write
// signature may intersect the read set (the per-commit-precise verdict that
// decides extension vs miss-set accumulation); ok=false a window overflow.
//
// Aligned segments covered by the aggregate ring fold with one union; the
// segment's commits are probed individually only when the aggregate hits
// the read set and the overlap verdict is still open.
//
//tm:hotpath
func (x *txn) extendFold(upto uint64) (overlap, ok bool) {
	r := x.r
	for x.localTS < upto {
		if lvl := sig.SegLevel(x.localTS, upto, r.aggMax); lvl > 0 {
			if r.loadAggSig(lvl, x.localTS, x.aggSig) {
				end := x.localTS + 1<<uint(lvl)
				x.tempSig.Union(x.aggSig)
				if !overlap && x.reads.overlaps(r.hasher, x.aggSig) {
					// The union may hit where no member does; re-probe per
					// commit so aggregate saturation cannot manufacture a
					// conflict.
					for ts := x.localTS; ts < end; ts++ {
						if !r.loadCommitSig(ts, x.oneSig) {
							return overlap, false
						}
						if x.reads.overlaps(r.hasher, x.oneSig) {
							overlap = true
							break
						}
					}
				}
				x.localTS = end
				continue
			}
		}
		if !r.loadCommitSig(x.localTS, x.oneSig) {
			return overlap, false
		}
		if !overlap && x.reads.overlaps(r.hasher, x.oneSig) {
			overlap = true
		}
		x.tempSig.Union(x.oneSig)
		x.localTS++
	}
	return overlap, true
}
