package hybrid

import (
	"runtime"

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
// Doom protocol: a slow write-back that needs one of our owned lines sets
// our doom flag and waits. Every operation (and commit) polls the flag and
// rolls back promptly — holding an owned line while ignoring the flag
// would stall the write-back forever.
type fastTxn struct {
	h      *TM
	thread int
	dead   bool
	probe  bool
	site   *siteStats
	clock  uint64 // publication clock as of the last full revalidation

	readAddrs []uint64 // every read word address (engine footprint)
	readLines []uint64 // distinct read lines…
	readVers  []uint64 // …and the even seqlock version each read saw

	writeOrder   []mem.Addr // distinct written words, first-write order
	oldVals      []mem.Word // undo values, parallel to writeOrder
	newVals      []mem.Word // eager values, parallel to writeOrder
	writeAddrs64 []uint64   // writeOrder as uint64 (engine footprint)
	ownedLines   []uint64   // lines holding our write ownership

	fp rococotm.FastFootprint
}

func newFastTxn(h *TM, thread int) *fastTxn {
	return &fastTxn{
		h:            h,
		thread:       thread,
		readAddrs:    make([]uint64, 0, maxFastReads),
		readLines:    make([]uint64, 0, maxFastReads),
		readVers:     make([]uint64, 0, maxFastReads),
		writeOrder:   make([]mem.Addr, 0, h.cfg.MaxFastWrites),
		oldVals:      make([]mem.Word, 0, h.cfg.MaxFastWrites),
		newVals:      make([]mem.Word, 0, h.cfg.MaxFastWrites),
		writeAddrs64: make([]uint64, 0, h.cfg.MaxFastWrites),
		ownedLines:   make([]uint64, 0, h.cfg.MaxFastWrites),
	}
}

// reset rearms a recycled descriptor.
//
//tm:hotpath
func (x *fastTxn) reset(site *siteStats, probe bool) {
	x.dead = false
	x.probe = probe
	x.site = site
	x.clock = x.h.lt.Clock()
	x.readAddrs = x.readAddrs[:0]
	x.readLines = x.readLines[:0]
	x.readVers = x.readVers[:0]
	x.writeOrder = x.writeOrder[:0]
	x.oldVals = x.oldVals[:0]
	x.newVals = x.newVals[:0]
	x.writeAddrs64 = x.writeAddrs64[:0]
	x.ownedLines = x.ownedLines[:0]
}

// lineIndex finds line in the recorded read lines (-1 if absent). Linear:
// fast attempts are short by construction, and a map would put an
// allocation-prone structure on the hot path.
//
//tm:hotpath
func (x *fastTxn) lineIndex(line uint64) int {
	for i, l := range x.readLines {
		if l == line {
			return i
		}
	}
	return -1
}

// addrIndex finds a in the written words (-1 if absent).
//
//tm:hotpath
func (x *fastTxn) addrIndex(a mem.Addr) int {
	for i, w := range x.writeOrder {
		if w == a {
			return i
		}
	}
	return -1
}

// Read implements tm.Txn.
//
//tm:hotpath
func (x *fastTxn) Read(a mem.Addr) (mem.Word, error) {
	h := x.h
	if x.dead {
		return 0, tm.AbortCode(tm.CodeConflict)
	}
	if h.slow.FastDoomed(x.thread) {
		return 0, x.fail(tm.CodeConflict)
	}
	if h.slow.IrrevocablePending() {
		return 0, x.fail(tm.CodeFallback)
	}
	if len(x.readAddrs) >= maxFastReads {
		return 0, x.fail(tm.CodeCapacity)
	}
	line := mem.LineOf(a)
	if mem.LineWriterOf(h.lt.Own(line).Load()) == x.thread {
		// Our own owned line: the heap word is either our eager store or
		// the committed value, frozen under our ownership. The address
		// still joins the read footprint — a not-yet-written word of an
		// owned line carries a real inbound dependency, and the engine
		// window plus PublishFast's drain scan are what detect it.
		x.readAddrs = append(x.readAddrs, uint64(a))
		return h.heap.Load(a), nil
	}
	for spin := 0; ; spin++ {
		if spin > ownSpin || h.slow.FastDoomed(x.thread) {
			return 0, x.fail(tm.CodeConflict) // requester loses
		}
		v1 := h.lt.Version(line)
		if v1&1 != 0 {
			// Odd: a fast owner or an engine write-back is applying.
			runtime.Gosched()
			continue
		}
		val := h.heap.Load(a)
		if h.lt.Version(line) != v1 {
			continue // torn: a publication landed mid-read
		}
		if idx := x.lineIndex(line); idx >= 0 {
			if x.readVers[idx] != v1 {
				// The line moved between two of our reads: the snapshot is
				// broken beyond repair.
				return 0, x.fail(tm.CodeConflict)
			}
		} else {
			x.readLines = append(x.readLines, line)
			x.readVers = append(x.readVers, v1)
		}
		x.readAddrs = append(x.readAddrs, uint64(a))
		// Opacity: if anything published since our last check, every
		// recorded line must still hold its recorded version — otherwise
		// this read and an earlier one straddle a commit.
		if c := h.lt.Clock(); c != x.clock {
			if !x.revalidate() {
				return 0, x.fail(tm.CodeConflict)
			}
			x.clock = c
		}
		return val, nil
	}
}

// revalidate re-checks every recorded read line against its recorded
// version. Owned lines pass vacuously: their versions are frozen by our
// ownership (readVers carries the post-BeginApply value once acquired).
//
//tm:hotpath
func (x *fastTxn) revalidate() bool {
	for i, l := range x.readLines {
		if x.h.lt.Version(l) != x.readVers[i] {
			return false
		}
	}
	return true
}

// Write implements tm.Txn: encounter-time line ownership, eager store,
// word-level undo.
//
//tm:hotpath
func (x *fastTxn) Write(a mem.Addr, v mem.Word) error {
	h := x.h
	if x.dead {
		return tm.AbortCode(tm.CodeConflict)
	}
	if h.slow.FastDoomed(x.thread) {
		return x.fail(tm.CodeConflict)
	}
	if h.slow.IrrevocablePending() {
		return x.fail(tm.CodeFallback)
	}
	line := mem.LineOf(a)
	own := h.lt.Own(line)
	s := own.Load()
	if mem.LineWriterOf(s) != x.thread {
		if len(x.writeOrder) >= h.cfg.MaxFastWrites {
			// Capacity check before acquisition: a full write set means this
			// new line's ownership would never be used, and appending it
			// would push ownedLines past its MaxFastWrites capacity — a heap
			// reallocation on the hot path. (A write to a not-yet-owned line
			// can never be a repeat: a repeated address implies we already
			// own its line.)
			return x.fail(tm.CodeCapacity)
		}
		for spin := 0; ; spin++ {
			if w := mem.LineWriterOf(s); w < 0 {
				if own.CompareAndSwap(s, mem.LineWithWriter(s, x.thread)) {
					break
				}
			} else if spin > ownSpin || h.slow.FastDoomed(x.thread) {
				return x.fail(tm.CodeConflict) // requester loses
			} else {
				runtime.Gosched()
			}
			s = own.Load()
		}
		// Ownership freezes the version (write-backs take the line
		// sentinel, which our ownership excludes), so it is even here and
		// stays frozen until we release.
		ver := h.lt.Version(line)
		idx := x.lineIndex(line)
		if idx >= 0 && x.readVers[idx] != ver {
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
			// revalidate and PublishFast's equality check pass vacuously.
			x.readVers[idx] = ver + 1
		}
	}
	if idx := x.addrIndex(a); idx >= 0 {
		x.newVals[idx] = v
		h.heap.Store(a, v)
		return nil
	}
	if len(x.writeOrder) >= h.cfg.MaxFastWrites {
		return x.fail(tm.CodeCapacity)
	}
	x.writeOrder = append(x.writeOrder, a)
	x.oldVals = append(x.oldVals, h.heap.Load(a))
	x.newVals = append(x.newVals, v)
	x.writeAddrs64 = append(x.writeAddrs64, uint64(a))
	h.heap.Store(a, v)
	return nil
}

// commit publishes the attempt through the slow runtime's fast-publication
// protocol. PublishFast finalizes the heap on every return (new values on
// success, undo values on failure), so commit only releases the lines and
// settles the counters afterwards.
//
// Not //tm:hotpath: the publication reaches the engine's claim path, whose
// cold panic and degradation branches the static hotalloc gate cannot
// prune. The steady state is still allocation-free — the runtime
// AllocsPerRun gate (TestHybridZeroAllocFastPath) covers the full
// Begin/Read/Write/Commit cycle.
func (x *fastTxn) commit() error {
	h := x.h
	if x.dead {
		return tm.AbortCode(tm.CodeConflict)
	}
	if len(x.writeOrder) == 0 {
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
		if !h.slow.ValidateFastReadOnly(x.thread, x.readAddrs, x.readLines, x.readVers) {
			return x.finish(tm.CodeConflict) // owns no lines: nothing to roll back
		}
		x.dead = true
		h.cnt.OnCommit(true)
		h.cnt.OnFastCommit()
		h.onFastOutcome(x, true, false)
		h.recycle(x)
		return nil
	}
	if h.slow.FastDoomed(x.thread) {
		return x.fail(tm.CodeConflict)
	}
	fp := &x.fp
	fp.Thread = x.thread
	fp.ReadAddrs = x.readAddrs
	fp.WriteAddrs64 = x.writeAddrs64
	fp.WriteOrder = x.writeOrder
	fp.NewVals = x.newVals
	fp.OldVals = x.oldVals
	fp.ReadLines = x.readLines
	fp.ReadVers = x.readVers
	err := h.slow.PublishFast(fp)
	x.releaseLines()
	if err != nil {
		code, abort := tm.CodeOf(err)
		if !abort {
			// Hard runtime fault (engine closed outside FT mode): the
			// rollback already happened; the attempt counts as an engine
			// abort and the error surfaces as-is.
			code = tm.CodeEngine
		}
		_ = x.finish(code)
		return err
	}
	x.dead = true
	h.cnt.OnCommit(false)
	h.cnt.OnFastCommit()
	h.onFastOutcome(x, true, false)
	h.recycle(x)
	return nil
}

// rollback restores the undo log and releases every owned line. Only
// called while the stores are still ours to undo (never after
// PublishFast, which finalizes the heap itself).
//
//tm:hotpath
func (x *fastTxn) rollback() {
	for i := len(x.writeOrder) - 1; i >= 0; i-- {
		x.h.heap.Store(x.writeOrder[i], x.oldVals[i])
	}
	x.releaseLines()
}

// releaseLines completes each owned line's seqlock (EndApply strictly
// before the ownership clear, so no one can BeginApply concurrently) and
// drops ownership.
//
//tm:hotpath
func (x *fastTxn) releaseLines() {
	for _, l := range x.ownedLines {
		x.h.lt.EndApply(l)
		own := x.h.lt.Own(l)
		for {
			s := own.Load()
			if own.CompareAndSwap(s, mem.LineWithWriter(s, -1)) {
				break
			}
		}
	}
}

// fail rolls the attempt back and settles it as aborted with code.
//
//tm:hotpath
func (x *fastTxn) fail(code tm.Code) error {
	x.rollback()
	return x.finish(code)
}

// finish settles an already-rolled-back attempt as aborted with code.
//
//tm:hotpath
func (x *fastTxn) finish(code tm.Code) error {
	x.dead = true
	x.h.cnt.OnAbort(code)
	x.h.cnt.OnFastAbort()
	x.h.onFastOutcome(x, false, code.Structural())
	x.h.recycle(x)
	return tm.AbortCode(code)
}
