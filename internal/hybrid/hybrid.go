// Package hybrid is the adaptive hybrid runtime: one tm.TM that routes
// each transaction attempt either to an uninstrumented HTM-style fast path
// or to the full engine-validated ROCoCoTM slow path, with both commit
// streams merged into one certified global order.
//
// # Fast path
//
// A fast attempt runs with no signatures, no redo map, and no engine round
// trip during execution: writes take encounter-time ownership of heap
// lines (mem.LineTable) and store eagerly with an undo log; reads are
// invisible — they record the line's seqlock version and revalidate all
// recorded lines whenever the global publication clock moves, preserving
// opacity. At commit the footprint is published through
// rococotm.PublishFast, which records it in the engine's sliding window
// (so slow validations see fast commits — cross-path write skew is
// caught), takes the next commit sequence, and validates the read-line
// versions at the serialization point. Fast commits therefore appear in
// GlobalTS order, in the commit queue, and in the auditor's observer
// stream exactly like engine-validated commits. Read-only fast commits
// publish nothing; their serialization point is a commit-time validation
// (rococotm.ValidateFastReadOnly: the same drain scan + read-version
// check) that certifies the snapshot against in-flight write-backs.
//
// # Routing
//
// Attempts are routed per site — a caller-supplied static transaction-site
// id, or the caller's PC when entered through tm.Run (SiteRunner); every
// tm.RunReadOnly shares one site, the entry of RunReadOnly. Each
// site keeps an EWMA of its fast-path abort rate and walks a three-state
// policy: try-fast (route fast until the EWMA crosses the demotion
// threshold), go-slow (route to the engine path, periodically granting
// one probing fast attempt after 32 slow-routed ones), probation (the
// probe is in flight; a commit re-promotes the site, an abort doubles the
// probe interval). On top of the per-site policy, a per-thread guard
// demotes the very next attempt to the slow path after a structural fast
// abort (capacity: a 65th distinct written word; the irrevocable gate;
// engine unavailability) or after 3 consecutive fast conflict aborts;
// the retry loop's escalation (contention aborts past
// tm.BackoffPolicy.EscalateAfter → Escalate, below) then finishes the
// ladder, so a starved site degrades fast → engine → irrevocable.
package hybrid

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rococotm/internal/mem"
	"rococotm/internal/rococotm"
	"rococotm/internal/tm"
)

// Config configures the hybrid runtime. The zero value is usable.
type Config struct {
	// Slow is the engine-validated runtime's configuration. LineTable is
	// filled in by New (supplying one is an error); Durable is rejected by
	// rococotm.New.
	Slow rococotm.Config
}

const (
	// maxFastWrites bounds the distinct heap words (and so the owned lines)
	// of one fast attempt; beyond it the attempt takes a capacity abort and
	// falls back.
	maxFastWrites = 64
	// consecAborts is the per-thread consecutive fast-conflict-abort count
	// that demotes the next attempt to the slow path.
	consecAborts = 3
	// probeAfter is how many slow-routed attempts a demoted site waits
	// before granting a probing fast attempt; each failed probe doubles the
	// wait (capped at 64× the base).
	probeAfter = 32
	// maxFastReads bounds the read-address log of one fast attempt. Repeated
	// reads of one address append repeatedly — the fast path keeps no map —
	// so this also caps total reads.
	maxFastReads = 512
	// ownSpin is how many times a fast operation re-probes an owned line (or
	// an odd seqlock) before aborting — requester loses.
	ownSpin = 64
	// demoteEWMA is the per-mille fast-abort EWMA above which a site leaves
	// try-fast: half the attempts aborting.
	demoteEWMA = 500
)

// Site policy states.
const (
	siteFast  uint32 = iota // route fast
	siteSlow                // route slow, counting toward a probe
	siteProbe               // one probing fast attempt is in flight
)

// ewmaScale is the fixed-point unit of the per-site abort-rate EWMA
// (per-mille; alpha = 1/8 per attempt).
const ewmaScale = 1000

// siteStats is one transaction site's routing state. All fields are
// atomics: many threads route through one site concurrently, and the
// policy tolerates lost updates (they only delay a transition).
type siteStats struct {
	state     atomic.Uint32
	ewma      atomic.Uint64 // abort rate, fixed-point per-mille
	sinceSlow atomic.Uint64 // slow-routed attempts since demotion
	probeWait atomic.Uint64 // current probe interval
}

// TM is the hybrid runtime. It implements tm.TM, tm.SiteRunner, and
// tm.Escalator.
type TM struct {
	slow *rococotm.TM
	lt   *mem.LineTable
	heap *mem.Heap

	// maxFastWrites, consecAborts and probeAfter, as test seams: tests
	// shrink the capacity or change the ladder before the first attempt.
	maxFastWrites int
	consecAborts  int
	probeAfter    uint64

	sites   sync.Map // site id (uint64) → *siteStats
	defSite siteStats

	// Per-thread fast-path state, owner-thread only (an attempt's liveness
	// is the slow runtime's liveness word for the thread).
	scratch   []*fastTxn
	consec    []int32 // consecutive fast conflict aborts
	forceSlow []int32 // pending attempts to route slow unconditionally

	// cnt counts fast-path attempts only (the slow runtime counts its
	// own); Stats merges the two. The Fast*/SlowFallbacks/Probations
	// counters live here exclusively.
	cnt tm.Counters
}

// New builds a hybrid runtime over heap. It creates the shared line table
// and starts the slow runtime with it.
func New(heap *mem.Heap, cfg Config) *TM {
	if cfg.Slow.LineTable != nil {
		panic("hybrid: Config.Slow.LineTable is owned by hybrid.New")
	}
	if cfg.Slow.MaxThreads == 0 {
		cfg.Slow.MaxThreads = 16
	}
	if cfg.Slow.MaxThreads > 56 {
		panic(fmt.Sprintf("hybrid: MaxThreads %d exceeds the 56-thread line-ownership bound", cfg.Slow.MaxThreads))
	}
	lt := mem.NewLineTable(heap.Cap())
	cfg.Slow.LineTable = lt
	h := &TM{
		slow:          rococotm.New(heap, cfg.Slow),
		lt:            lt,
		heap:          heap,
		maxFastWrites: maxFastWrites,
		consecAborts:  consecAborts,
		probeAfter:    probeAfter,
		scratch:       make([]*fastTxn, cfg.Slow.MaxThreads),
		consec:        make([]int32, cfg.Slow.MaxThreads),
		forceSlow:     make([]int32, cfg.Slow.MaxThreads),
	}
	h.defSite.probeWait.Store(probeAfter)
	return h
}

// Name implements tm.TM.
func (h *TM) Name() string { return "hybrid" }

// Heap implements tm.TM.
func (h *TM) Heap() *mem.Heap { return h.heap }

// Slow returns the underlying engine-validated runtime (for tests and
// experiment plumbing).
func (h *TM) Slow() *rococotm.TM { return h.slow }

// Close implements tm.TM.
func (h *TM) Close() { h.slow.Close() }

// Escalate implements tm.Escalator: the starved thread's next attempt is
// forced onto the slow path and runs there irrevocably — the last rung of
// the fast → engine → irrevocable ladder.
func (h *TM) Escalate(thread int) {
	h.forceSlow[thread]++
	h.slow.Escalate(thread)
}

// Stats implements tm.TM: the slow runtime's counters plus the fast-path
// attempts, with the per-path split carried in the Fast*/SlowFallbacks/
// Probations fields.
func (h *TM) Stats() tm.Stats {
	s := h.slow.Stats()
	f := h.cnt.Snapshot()
	s.Starts += f.Starts
	s.Commits += f.Commits
	s.Aborts += f.Aborts
	s.ReadOnly += f.ReadOnly
	for reason, n := range f.Reasons {
		s.Reasons[reason] += n
	}
	s.WatchdogKills += f.WatchdogKills
	s.FastCommits = f.FastCommits
	s.FastAborts = f.FastAborts
	s.SlowFallbacks = f.SlowFallbacks
	s.Probations = f.Probations
	return s
}

// PoolCheck reports descriptor pool health across both paths; the slow
// runtime's live count already includes fast attempts (they share its
// liveness words).
func (h *TM) PoolCheck() (live, parked int) {
	live, parked = h.slow.PoolCheck()
	for _, x := range h.scratch {
		if x != nil {
			parked++
		}
	}
	return live, parked
}

// site returns the routing state for a site id, creating it on first use.
func (h *TM) site(id uint64) *siteStats {
	if id == 0 {
		return &h.defSite
	}
	if s, ok := h.sites.Load(id); ok {
		return s.(*siteStats)
	}
	s := &siteStats{}
	s.probeWait.Store(h.probeAfter)
	got, _ := h.sites.LoadOrStore(id, s)
	return got.(*siteStats)
}

// routeFast decides whether this attempt runs on the fast path, advancing
// the site's policy state. probe reports that the attempt is the site's
// probation probe.
func (h *TM) routeFast(st *siteStats, thread int) (fast, probe bool) {
	if h.forceSlow[thread] > 0 {
		h.forceSlow[thread]--
		h.cnt.OnSlowFallback()
		return false, false
	}
	switch st.state.Load() {
	case siteFast:
		return true, false
	case siteSlow:
		if st.sinceSlow.Add(1) >= st.probeWait.Load() &&
			st.state.CompareAndSwap(siteSlow, siteProbe) {
			st.sinceSlow.Store(0)
			h.cnt.OnProbation()
			return true, true
		}
		return false, false
	default: // siteProbe: someone else is probing
		return false, false
	}
}

// onFastOutcome feeds one fast attempt's outcome into the policy.
func (h *TM) onFastOutcome(x *fastTxn, committed, structural bool) {
	st := x.site
	var event uint64
	if !committed {
		event = ewmaScale
	}
	// EWMA with alpha 1/8; racing updates lose an update at worst.
	old := st.ewma.Load()
	st.ewma.Store(old - old/8 + event/8)

	if x.probe {
		if committed {
			st.probeWait.Store(h.probeAfter)
			st.ewma.Store(0)
			st.state.Store(siteFast)
		} else {
			if w := st.probeWait.Load(); w < h.probeAfter*64 {
				st.probeWait.Store(w * 2)
			}
			st.state.Store(siteSlow)
		}
		return
	}
	if committed {
		h.consec[x.Thread] = 0
		return
	}
	if structural {
		// Capacity, irrevocable gate, engine unavailability: retrying fast
		// cannot help this attempt — route the retry to the slow path.
		h.forceSlow[x.Thread]++
	} else if h.consec[x.Thread]++; int(h.consec[x.Thread]) >= h.consecAborts {
		h.consec[x.Thread] = 0
		h.forceSlow[x.Thread]++
	}
	if st.state.Load() == siteFast && st.ewma.Load() > demoteEWMA {
		st.state.Store(siteSlow)
		st.sinceSlow.Store(0)
	}
}

// Begin implements tm.TM, routing through the default site.
func (h *TM) Begin(thread int) (tm.Txn, error) { return h.BeginSite(thread, 0) }

// BeginSite implements tm.SiteRunner: route one attempt for a static
// transaction site.
func (h *TM) BeginSite(thread int, site uint64) (tm.Txn, error) {
	if thread < 0 || thread >= len(h.scratch) {
		return nil, fmt.Errorf("hybrid: thread %d out of range [0,%d)", thread, len(h.scratch))
	}
	st := h.site(site)
	fast, probe := h.routeFast(st, thread)
	if fast && h.slow.IrrevocablePending() {
		// Never start a fast attempt under a pending irrevocable turn: it
		// would take line ownership the irrevocable transaction's reads
		// must then spin out.
		fast = false
		if probe {
			st.state.Store(siteSlow)
		}
		h.cnt.OnSlowFallback()
	}
	if !fast {
		return h.slow.Begin(thread)
	}
	attempt, ok := h.slow.BeginFast(thread)
	if !ok {
		return nil, fmt.Errorf("hybrid: thread %d already runs an attempt", thread)
	}
	h.cnt.OnStart()
	x := h.scratch[thread]
	if x == nil {
		x = newFastTxn(h, thread)
	} else {
		h.scratch[thread] = nil
	}
	x.reset(st, probe, attempt)
	return x, nil
}

// Commit implements tm.TM.
func (h *TM) Commit(t tm.Txn) error {
	if x, ok := t.(*fastTxn); ok {
		return x.commit()
	}
	return h.slow.Commit(t)
}

// Abort implements tm.TM (explicit rollback).
func (h *TM) Abort(t tm.Txn) {
	if x, ok := t.(*fastTxn); ok {
		if _, st := h.slow.Poll(x.Thread, x.attempt); st != rococotm.Over {
			_ = x.fail(tm.CodeExplicit)
		}
		return
	}
	h.slow.Abort(t)
}
