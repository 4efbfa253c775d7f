package hybrid

import (
	"runtime"
	"slices"

	"rococotm/internal/mem"
	"rococotm/internal/rococotm"
	"rococotm/internal/tm"
)

// fastTxn is one uninstrumented fast-path attempt. Execution keeps no
// signatures and no maps: writes take line ownership and store eagerly
// with a word-level undo log; reads are invisible, validated by line
// seqlock versions plus the global publication clock. The descriptor is
// recycled per thread, so a steady fast workload allocates nothing.
//
// Doom protocol: the attempt lives in the slow runtime's liveness word for
// its thread (transition table: DESIGN §7, "Concurrency contracts"). A slow
// write-back that needs one of our owned lines dooms the word and waits;
// every operation, every ownership wait and the commit poll it and
// roll back promptly — holding an owned line while ignoring the doom would
// stall the write-back forever.
type fastTxn struct {
	h          *TM
	attempt    uint64 // this attempt's running word in the liveness word
	probe      bool
	site       *siteStats
	clock      uint64   // publication clock as of the last full revalidation
	ownedLines []uint64 // lines holding our write ownership

	// The footprint is recorded in the form PublishFast takes: Thread is the
	// owner; ReadLines/ReadVers hold each distinct read line once, with the
	// even seqlock version the read saw (odd, our own, once we own it).
	// Lookups in it are linear (slices.Index): fast attempts are short by
	// construction, and a map would put an allocation-prone structure on the
	// hot path.
	rococotm.FastFootprint
}

func newFastTxn(h *TM, thread int) *fastTxn {
	return &fastTxn{
		h:          h,
		ownedLines: make([]uint64, 0, h.maxFastWrites),
		FastFootprint: rococotm.FastFootprint{
			Thread:       thread,
			ReadAddrs:    make([]uint64, 0, maxFastReads),
			ReadLines:    make([]uint64, 0, maxFastReads),
			ReadVers:     make([]uint64, 0, maxFastReads),
			WriteOrder:   make([]mem.Addr, 0, h.maxFastWrites),
			OldVals:      make([]mem.Word, 0, h.maxFastWrites),
			NewVals:      make([]mem.Word, 0, h.maxFastWrites),
			WriteAddrs64: make([]uint64, 0, h.maxFastWrites),
		},
	}
}

// reset rearms a recycled descriptor.
//
//tm:hotpath
func (x *fastTxn) reset(site *siteStats, probe bool, attempt uint64) {
	x.attempt = attempt
	x.probe = probe
	x.site = site
	x.clock = x.h.lt.Clock()
	x.ReadAddrs = x.ReadAddrs[:0]
	x.ReadLines = x.ReadLines[:0]
	x.ReadVers = x.ReadVers[:0]
	x.WriteOrder = x.WriteOrder[:0]
	x.OldVals = x.OldVals[:0]
	x.NewVals = x.NewVals[:0]
	x.WriteAddrs64 = x.WriteAddrs64[:0]
	x.ownedLines = x.ownedLines[:0]
}

// Read implements tm.Txn.
//
//tm:hotpath
func (x *fastTxn) Read(a mem.Addr) (mem.Word, error) {
	h := x.h
	if c, st := h.slow.Poll(x.Thread, x.attempt); st != rococotm.Live {
		return 0, x.stop(c, st)
	}
	if h.slow.IrrevocablePending() {
		return 0, x.fail(tm.CodeFallback)
	}
	if len(x.ReadAddrs) >= maxFastReads {
		return 0, x.fail(tm.CodeCapacity)
	}
	line := mem.LineOf(a)
	if mem.LineWriterOf(h.lt.Own(line).Load()) == x.Thread {
		// Our own owned line: the heap word is either our eager store or
		// the committed value, frozen under our ownership. The address
		// still joins the read footprint — a not-yet-written word of an
		// owned line carries a real inbound dependency, and the engine
		// window plus PublishFast's drain scan are what detect it.
		x.ReadAddrs = append(x.ReadAddrs, uint64(a))
		return h.heap.Load(a), nil
	}
	for spin := 0; ; spin++ {
		if spin > ownSpin {
			return 0, x.fail(tm.CodeConflict) // requester loses
		}
		v1 := h.lt.Version(line)
		if v1&1 != 0 {
			// Odd: a fast owner or an engine write-back is applying.
			if c, st := h.slow.Poll(x.Thread, x.attempt); st != rococotm.Live {
				return 0, x.stop(c, st)
			}
			runtime.Gosched()
			continue
		}
		val := h.heap.Load(a)
		if h.lt.Version(line) != v1 {
			continue // torn: a publication landed mid-read
		}
		if idx := slices.Index(x.ReadLines, line); idx >= 0 {
			if x.ReadVers[idx] != v1 {
				// The line moved between two of our reads: the snapshot is
				// broken beyond repair.
				return 0, x.fail(tm.CodeConflict)
			}
		} else {
			x.ReadLines = append(x.ReadLines, line)
			x.ReadVers = append(x.ReadVers, v1)
		}
		x.ReadAddrs = append(x.ReadAddrs, uint64(a))
		// Opacity: if anything published since our last check, every
		// recorded line must still hold its recorded version — otherwise
		// this read and an earlier one straddle a commit. Owned lines pass
		// vacuously: their versions are frozen by our ownership (ReadVers
		// carries the post-BeginApply value once acquired).
		if c := h.lt.Clock(); c != x.clock {
			for i, l := range x.ReadLines {
				if h.lt.Version(l) != x.ReadVers[i] {
					return 0, x.fail(tm.CodeConflict)
				}
			}
			x.clock = c
		}
		return val, nil
	}
}

// Write implements tm.Txn: encounter-time line ownership, eager store,
// word-level undo.
//
//tm:hotpath
func (x *fastTxn) Write(a mem.Addr, v mem.Word) error {
	h := x.h
	if c, st := h.slow.Poll(x.Thread, x.attempt); st != rococotm.Live {
		return x.stop(c, st)
	}
	if h.slow.IrrevocablePending() {
		return x.fail(tm.CodeFallback)
	}
	line := mem.LineOf(a)
	own := h.lt.Own(line)
	s := own.Load()
	if mem.LineWriterOf(s) != x.Thread {
		if len(x.WriteOrder) >= h.maxFastWrites {
			// Capacity check before acquisition: a full write set means this
			// new line's ownership would never be used, and appending it
			// would push ownedLines past its maxFastWrites capacity — a heap
			// reallocation on the hot path. (A write to a not-yet-owned line
			// can never be a repeat: a repeated address implies we already
			// own its line.)
			return x.fail(tm.CodeCapacity)
		}
		for spin := 0; ; spin++ {
			if w := mem.LineWriterOf(s); w < 0 {
				if own.CompareAndSwap(s, mem.LineWithWriter(s, x.Thread)) {
					break
				}
			} else if spin > ownSpin {
				return x.fail(tm.CodeConflict) // requester loses
			} else if c, st := h.slow.Poll(x.Thread, x.attempt); st != rococotm.Live {
				return x.stop(c, st)
			} else {
				runtime.Gosched()
			}
			s = own.Load()
		}
		// Ownership freezes the version (write-backs take the line
		// sentinel, which our ownership excludes), so it is even here and
		// stays frozen until we release.
		ver := h.lt.Version(line)
		idx := slices.Index(x.ReadLines, line)
		if idx >= 0 && x.ReadVers[idx] != ver {
			// A commit slipped between our read of this line and this
			// write-acquisition: lost-update shape, abort now. BeginApply
			// first so the uniform rollback releases this line too.
			h.lt.BeginApply(line)
			x.ownedLines = append(x.ownedLines, line)
			return x.fail(tm.CodeConflict)
		}
		h.lt.BeginApply(line)
		x.ownedLines = append(x.ownedLines, line)
		if idx >= 0 {
			// Keep the recorded version equal to the live (now odd) one so
			// Read's revalidation and PublishFast's equality check pass vacuously.
			x.ReadVers[idx] = ver + 1
		}
	}
	if idx := slices.Index(x.WriteOrder, a); idx >= 0 {
		x.NewVals[idx] = v
		h.heap.Store(a, v)
		return nil
	}
	if len(x.WriteOrder) >= h.maxFastWrites {
		return x.fail(tm.CodeCapacity)
	}
	x.WriteOrder = append(x.WriteOrder, a)
	x.OldVals = append(x.OldVals, h.heap.Load(a))
	x.NewVals = append(x.NewVals, v)
	x.WriteAddrs64 = append(x.WriteAddrs64, uint64(a))
	h.heap.Store(a, v)
	return nil
}

// commit publishes the attempt through the slow runtime's fast-publication
// protocol. PublishFast finalizes the heap on every return (new values on
// success, undo values on failure), so commit only releases the lines and
// settles the counters afterwards.
//
// Not //tm:hotpath: the publication reaches the engine's claim path, whose
// cold panic and error branches the static hotalloc gate cannot prune. The
// steady state is still allocation-free — the runtime AllocsPerRun gate
// (TestHybridZeroAllocFastPath) covers the full Begin/Read/Write/Commit
// cycle.
func (x *fastTxn) commit() error {
	h := x.h
	if c, st := h.slow.Poll(x.Thread, x.attempt); st != rococotm.Live {
		return x.stop(c, st)
	}
	if len(x.WriteOrder) == 0 {
		// Read-only: nothing to publish (slow read-only commits skip the
		// engine the same way), but the snapshot must still be certified at
		// commit time. The per-read clock check alone is not enough: a slow
		// write-back bumps the clock once, then applies its stores line by
		// line, so a read landing between two of its stores sees no clock
		// movement and never revalidates earlier reads. The commit-time
		// check — the same drain scan + read-version validation PublishFast
		// runs for updaters — is the serialization point: on success every
		// read belongs to one consistent snapshot between two published
		// commits.
		if !h.slow.ValidateFastReadOnly(&x.FastFootprint) {
			return x.finish(tm.CodeConflict) // owns no lines: nothing to roll back
		}
		return x.finish(committed)
	}
	err := h.slow.PublishFast(&x.FastFootprint)
	x.releaseLines()
	if err == nil {
		return x.finish(committed)
	}
	code, abort := tm.CodeOf(err)
	if !abort {
		// Hard runtime fault (engine closed): the rollback already happened;
		// the attempt counts as an engine abort and the error surfaces as-is.
		code = tm.CodeEngine
	}
	_ = x.finish(code)
	return err
}

// releaseLines completes each owned line's seqlock (EndApply strictly
// before the ownership clear, so no one can BeginApply concurrently) and
// drops ownership.
//
//tm:hotpath
func (x *fastTxn) releaseLines() {
	for _, l := range x.ownedLines {
		x.h.lt.EndApply(l)
		x.h.lt.Release(l)
	}
}

// stop ends the attempt at a safe point whose Poll did not read Live: a
// doomed attempt rolls back and ends with its doom's code, one that already
// ended gets the dead answer.
//
//tm:hotpath
func (x *fastTxn) stop(c tm.Code, st rococotm.Liveness) error {
	if st == rococotm.Doomed {
		return x.fail(c)
	}
	return tm.AbortCode(c)
}

// fail restores the undo log, releases every owned line and settles the
// attempt as aborted with code. Only called while the stores are still ours
// to undo (never after PublishFast, which finalizes the heap itself).
//
//tm:hotpath
func (x *fastTxn) fail(code tm.Code) error {
	for i := len(x.WriteOrder) - 1; i >= 0; i-- {
		x.h.heap.Store(x.WriteOrder[i], x.OldVals[i])
	}
	x.releaseLines()
	return x.finish(code)
}

// committed is the outcome finish takes for a commit; every other value is
// the code the attempt aborted with.
const committed = tm.Code(0xff)

// finish is the one epilogue of a fast attempt, whatever ended it: c is
// committed or the abort code, and the heap is final (published, or rolled
// back with the lines released). It counts the outcome, feeds the routing
// policy, ends the attempt in the liveness word and parks the descriptor.
//
//tm:hotpath
func (x *fastTxn) finish(c tm.Code) error {
	h := x.h
	if c == committed {
		h.cnt.OnCommit(len(x.WriteOrder) == 0)
		h.cnt.OnFastCommit()
	} else {
		h.cnt.OnAbort(c)
		h.cnt.OnFastAbort()
	}
	h.onFastOutcome(x, c == committed, c.Structural())
	h.slow.EndFast(x.Thread)
	if h.scratch[x.Thread] == nil {
		h.scratch[x.Thread] = x
	}
	if c == committed {
		return nil
	}
	return tm.AbortCode(c)
}
