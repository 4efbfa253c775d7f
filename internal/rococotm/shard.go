package rococotm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rococotm/internal/fpga"
	"rococotm/internal/mem"
	"rococotm/internal/mvstore"
	"rococotm/internal/tm"
)

// This file is the sharded validation plane: N independent ROCoCoTM
// runtimes, each owning its own FPGA engine (signature window,
// reachability matrix, submission ring) and its own commit queue and
// publication order, glued together by an address-partitioned front end.
//
// The address space is partitioned by ShardedConfig.Route. A transaction
// whose footprint lands in one shard commits through that shard's
// ordinary commit path with zero added coordination — the scaling arm of
// the design: single-shard throughput multiplies with engine count
// because nothing global sits on that path. A transaction spanning
// shards validates on every touched engine and commits through the
// cross-shard protocol below.
//
// # Cross-shard commit: per-shard sequences + a global commit token
//
// Timestamps stay per shard (a vector clock, one GlobalTS per shard);
// there is no global sequence. Atomicity across shards comes from a
// single global commit token (a mutex) that serializes cross-shard
// committers through five phases:
//
//  1. strict extension — each sub-transaction folds its shard's commit
//     queue to the present; any read-set overlap aborts. Cross-shard
//     transactions are forward-only: the single-shard runtime may let
//     the engine serialize a stale-read transaction *before* its
//     invalidators, but a reordering that is safe per shard is not
//     provably safe across shards, so here staleness is simply a
//     conflict.
//  2. engine validation — every touched engine (even one only read
//     from) validates the sub-footprint and claims that shard's next
//     commit sequence s_i. Claiming on read-only shards is what puts
//     the transaction into every touched shard's publication order —
//     the hook the consistent-cut argument below hangs off.
//  3. turn capture + fold re-check — for each touched shard in
//     ascending order, await the exact turn at s_i and hold it (nothing
//     is pre-published, so a single-shard turn-holder's group advance
//     cannot pass it), then re-fold the commits that landed between
//     phase 1 and the claim. Only after ALL shards
//     pass does anything publish: a cross-shard transaction is never
//     half-committed.
//  4. publication — publish on every shard through the stage every
//     commit uses (pipeline.go: signature, aggregates, observer and
//     durable record), then release every shard's GlobalTS. If any touched shard is durable, all
//     touched logs are group-commit-flushed *before* any GlobalTS
//     advances (the cross-log atomicity barrier: nothing later can be
//     acknowledged on any touched shard until this transaction is
//     durable on all of them, so recovery can only find torn
//     cross-shard records in unacknowledged tails).
//  5. release — token first (publication is over; the update-set
//     entries keep the write sets locked), then out-of-order
//     write-backs, then the commit gates.
//
// On abort after sequences were claimed, the claimed slots are filled
// with published no-ops (empty signature, empty footprint, observer
// call, durable record with XID=0) so every shard's publication order
// stays gapless — observers and the WAL see a contiguous stream.
//
// # Why this is serializable
//
// Single-shard transactions order by their shard's commit sequence.
// Cross-shard transactions are serialized by the token: T2 cannot claim
// any sequence until T1 released the token, so on every common shard
// all of T1's sequences precede all of T2's — per-shard orders never
// disagree about cross-shard transactions. An edge between a
// single-shard and a cross-shard transaction is intra-shard by
// construction (addresses are partitioned), and the phase-3 fold
// re-check under a held turn pins the sub against everything that
// committed before s_i. The union of the per-shard orders with the
// token order is therefore acyclic.
//
// # Deadlock freedom
//
// Lock order is: commit gates in ascending shard index, then the token.
// Cross-shard committers take shared gates ascending then the token; an
// irrevocable transaction takes ALL gates exclusively (ascending) at
// Begin and commits through the same cross-shard machinery (phases with
// nothing in flight: its claims are immediate and its folds empty). The
// phase-3 turn waits only ever wait on committed predecessors of a
// shard, which hold no gate we need exclusively and never the token.

// ShardedConfig parameterizes the sharded front end.
type ShardedConfig struct {
	// Shards is the number of engine instances; 1..64 (the cross-shard
	// WAL record encodes touched shards as a 64-bit mask). Default 2.
	Shards int
	// Route maps an address to its owning shard in [0,Shards). It must
	// be pure and total; the default is addr mod Shards.
	Route func(mem.Addr) int
	// Shard is the per-shard runtime template. Observer, Durable,
	// IrrevocableAfter and ValidateDeadline must be zero: observers and
	// durability are per-shard (below), escalation and fault tolerance
	// are managed by the front end.
	Shard Config
	// Observers, when non-nil, has one CommitObserver per shard (nil
	// entries allowed). Each observes its shard's merged publication
	// stream: single-shard commits, cross-shard sub-commits and
	// cross-shard no-op fills, in strictly increasing per-shard seq.
	Observers []CommitObserver
	// Durables, when non-nil, has one durability binding per shard (nil
	// entries allowed, but cross-shard atomicity is only recoverable
	// when every shard a transaction writes is durable). See
	// RecoverSharded.
	Durables []*Durable
	// IrrevocableAfter escalates a thread to an irrevocable (all-gates)
	// execution after that many consecutive conflict aborts; 0 disables.
	IrrevocableAfter int
	// NextXID seeds the cross-shard transaction id allocator: ids are
	// allocated strictly above it. After recovery, pass the MaxXID
	// RecoverSharded returned.
	NextXID uint64
	// MaxThreads mirrors Config.MaxThreads for the front end's own
	// per-thread state; default 32 (and must match Shard.MaxThreads
	// after fill).
	MaxThreads int
}

// Sharded is the multi-engine front end. It implements tm.TM,
// tm.Escalator and (when every shard is durable) tm.Snapshotter.
type Sharded struct {
	heap   *mem.Heap
	cfg    ShardedConfig
	shards []*TM
	route  func(mem.Addr) int

	// token serializes cross-shard commits (see the package comment's
	// phase protocol). It is only ever acquired while holding the
	// touched shards' gates, which is what keeps it off every
	// single-shard path.
	token sync.Mutex
	xid   atomic.Uint64

	// xPubVer is a seqlock around cross-shard publication: odd while a
	// cross-shard transaction (or its no-op fill) is publishing across
	// shards, even otherwise. GlobalTSVector and RetrieveSnapshot use it
	// to take cuts that never split a cross-shard commit.
	xPubVer atomic.Uint64

	consec    []int32
	escalated []bool
	scratch   []*stxn

	cnt tm.Counters

	singleCommits atomic.Uint64
	crossCommits  atomic.Uint64
	crossAborts   atomic.Uint64
	noopFills     atomic.Uint64
}

// NewSharded starts Shards independent runtimes (each with its own
// engine) over heap. Construction problems panic, like New.
func NewSharded(heap *mem.Heap, cfg ShardedConfig) *Sharded {
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	if cfg.Shards < 1 || cfg.Shards > 64 {
		panic(fmt.Sprintf("rococotm: Shards %d out of range [1,64]", cfg.Shards))
	}
	if cfg.Shard.Observer != nil || cfg.Shard.Durable != nil {
		panic("rococotm: sharded: set Observers/Durables, not the shard template's")
	}
	if cfg.Shard.IrrevocableAfter != 0 {
		panic("rococotm: sharded: escalation is managed by the front end; leave Shard.IrrevocableAfter zero")
	}
	if cfg.Shard.ValidateDeadline != 0 {
		panic("rococotm: sharded: fault-tolerant mode is not supported per shard")
	}
	if cfg.Observers != nil && len(cfg.Observers) != cfg.Shards {
		panic("rococotm: sharded: len(Observers) must equal Shards")
	}
	if cfg.Durables != nil && len(cfg.Durables) != cfg.Shards {
		panic("rococotm: sharded: len(Durables) must equal Shards")
	}
	if cfg.MaxThreads == 0 {
		cfg.MaxThreads = 32
	}
	if cfg.Shard.MaxThreads == 0 {
		cfg.Shard.MaxThreads = cfg.MaxThreads
	}
	if cfg.Shard.MaxThreads != cfg.MaxThreads {
		panic("rococotm: sharded: Shard.MaxThreads must match MaxThreads")
	}
	n := cfg.Shards
	if cfg.Route == nil {
		cfg.Route = func(a mem.Addr) int { return int(uint64(a) % uint64(n)) }
	}
	s := &Sharded{
		heap:      heap,
		cfg:       cfg,
		shards:    make([]*TM, n),
		route:     cfg.Route,
		consec:    make([]int32, cfg.MaxThreads),
		escalated: make([]bool, cfg.MaxThreads),
		scratch:   make([]*stxn, cfg.MaxThreads),
	}
	s.xid.Store(cfg.NextXID)
	for i := 0; i < n; i++ {
		sc := cfg.Shard
		if cfg.Observers != nil {
			sc.Observer = cfg.Observers[i]
		}
		if cfg.Durables != nil {
			sc.Durable = cfg.Durables[i]
		}
		s.shards[i] = New(heap, sc)
	}
	return s
}

// Name implements tm.TM.
func (s *Sharded) Name() string { return fmt.Sprintf("rococotm-sharded(%d)", len(s.shards)) }

// Heap implements tm.TM.
func (s *Sharded) Heap() *mem.Heap { return s.heap }

// Shard exposes shard i's runtime for stats and tests. Callers must not
// Escalate it or commit through it directly.
func (s *Sharded) Shard(i int) *TM { return s.shards[i] }

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Stats implements tm.TM: the front end's own transaction counters
// (every Begin/Commit/Abort flows through it exactly once).
func (s *Sharded) Stats() tm.Stats { return s.cnt.Snapshot() }

// ShardStats returns each shard's runtime stats.
func (s *Sharded) ShardStats() []tm.Stats {
	out := make([]tm.Stats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.Stats()
	}
	return out
}

// CrossStats reports the front end's routing counters.
type CrossStats struct {
	SingleCommits uint64 // commits delegated to one shard's fast path
	CrossCommits  uint64 // multi-shard commits through the token protocol
	CrossAborts   uint64 // cross-shard attempts aborted by the protocol
	NoopFills     uint64 // no-op slots published to fill claimed sequences
}

// CrossStats returns the routing counters.
func (s *Sharded) CrossStats() CrossStats {
	return CrossStats{
		SingleCommits: s.singleCommits.Load(),
		CrossCommits:  s.crossCommits.Load(),
		CrossAborts:   s.crossAborts.Load(),
		NoopFills:     s.noopFills.Load(),
	}
}

// Escalate implements tm.Escalator: the thread's next Begin runs
// irrevocably against all shards.
func (s *Sharded) Escalate(thread int) {
	if thread >= 0 && thread < s.cfg.MaxThreads {
		s.escalated[thread] = true
	}
}

// PoolCheck sums the shards' lifecycle accounting (see TM.PoolCheck).
func (s *Sharded) PoolCheck() (live, parked int) {
	for _, sh := range s.shards {
		l, p := sh.PoolCheck()
		live += l
		parked += p
	}
	return live, parked
}

// GlobalTSVector returns a consistent vector of the shards' global
// timestamps: a cut that never splits a cross-shard commit (some shards
// post-publication, others pre-).
func (s *Sharded) GlobalTSVector() []uint64 {
	out := make([]uint64, len(s.shards))
	for {
		v1 := s.xPubVer.Load()
		if v1&1 != 0 {
			runtime.Gosched()
			continue
		}
		for i, sh := range s.shards {
			out[i] = sh.globalTS.Load()
		}
		if s.xPubVer.Load() == v1 {
			return out
		}
	}
}

// Close shuts every shard down.
func (s *Sharded) Close() {
	for _, sh := range s.shards {
		sh.Close()
	}
}

// stxn is a sharded transaction: a lazily-begun sub-transaction per
// touched shard plus the cross-shard commit bookkeeping.
type stxn struct {
	s           *Sharded
	thread      int
	dead        bool
	irrevocable bool

	subs    []*txn   // indexed by shard; nil = untouched
	order   []int    // touched shard indices, ascending
	seqs    []uint64 // claimed commit sequence per order entry
	claimed []bool   // seqs[k] valid (engine verdict OK on order[k])
}

// shardMask returns the touched-shard bitmask stamped into every shard's
// WAL record of a committing cross-shard transaction: recovery requires
// the transaction's XID present on every shard in the mask, or treats
// the record as torn.
func (x *stxn) shardMask() uint64 {
	var m uint64
	for _, i := range x.order {
		m |= 1 << uint(i)
	}
	return m
}

func (x *stxn) reset() {
	x.dead = false
	for i := range x.subs {
		x.subs[i] = nil
	}
	x.order = x.order[:0]
	for i := range x.claimed {
		x.claimed[i] = false
	}
}

// sub returns the sub-transaction on shard i, beginning it on first
// touch. Begin under an irrevocable front-end transaction is safe at
// any point: all gates are held exclusively, so the shard is quiescent.
func (x *stxn) sub(i int) (*txn, error) {
	if t := x.subs[i]; t != nil {
		return t, nil
	}
	t, err := x.s.shards[i].Begin(x.thread)
	if err != nil {
		return nil, err
	}
	sb := t.(*txn)
	x.subs[i] = sb
	// Insert i into the ascending touched list.
	k := len(x.order)
	x.order = append(x.order, i)
	for k > 0 && x.order[k-1] > i {
		x.order[k], x.order[k-1] = x.order[k-1], x.order[k]
		k--
	}
	return sb, nil
}

// failSub finishes an abort that one sub-transaction already started
// (its shard aborted and recycled it): abort the remaining subs and do
// the front-end accounting, preserving the shard's reason.
func (x *stxn) failSub(failed int, err error) error {
	reason, ok := tm.IsAbort(err)
	if !ok {
		// Hard runtime error from a shard: kill everything, no recycling.
		x.dead = true
		for _, i := range x.order {
			if i == failed {
				continue
			}
			if sb := x.subs[i]; sb != nil && !sb.dead {
				x.s.shards[i].Abort(sb)
			}
		}
		if x.irrevocable {
			x.s.unlockAllGates()
		}
		return err
	}
	for _, i := range x.order {
		if i == failed {
			continue
		}
		if sb := x.subs[i]; sb != nil && !sb.dead {
			x.s.shards[i].Abort(sb)
		}
	}
	return x.finishAbort(reason)
}

// finishAbort does the front-end side of an abort whose subs are all
// dead already.
func (x *stxn) finishAbort(reason string) error {
	s := x.s
	x.dead = true
	if x.irrevocable {
		s.unlockAllGates()
	} else if reason != tm.ReasonExplicit && reason != tm.ReasonEngine &&
		reason != tm.ReasonWatchdog {
		s.consec[x.thread]++
	}
	s.cnt.OnAbort(reason)
	s.recycle(x)
	return tm.Abort(reason)
}

func (s *Sharded) unlockAllGates() {
	for _, sh := range s.shards {
		sh.gate.Unlock()
	}
}

func (s *Sharded) recycle(x *stxn) {
	if s.scratch[x.thread] == nil {
		s.scratch[x.thread] = x
	}
}

// Begin implements tm.TM.
func (s *Sharded) Begin(thread int) (tm.Txn, error) {
	if thread < 0 || thread >= s.cfg.MaxThreads {
		return nil, fmt.Errorf("rococotm: thread %d out of range [0,%d)", thread, s.cfg.MaxThreads)
	}
	s.cnt.OnStart()
	escalate := s.escalated[thread]
	if escalate {
		s.escalated[thread] = false
	}
	irrevocable := escalate || (s.cfg.IrrevocableAfter > 0 &&
		int(s.consec[thread]) >= s.cfg.IrrevocableAfter)
	if irrevocable {
		// All gates, ascending — the global lock order. Every shard
		// drains its in-flight commits; the world is frozen until this
		// transaction finishes.
		for _, sh := range s.shards {
			sh.gate.Lock()
		}
	}
	x := s.scratch[thread]
	if x != nil {
		s.scratch[thread] = nil
		x.reset()
	} else {
		n := len(s.shards)
		x = &stxn{
			s:       s,
			thread:  thread,
			subs:    make([]*txn, n),
			order:   make([]int, 0, n),
			seqs:    make([]uint64, n),
			claimed: make([]bool, n),
		}
	}
	x.irrevocable = irrevocable
	return x, nil
}

// Read implements tm.Txn by routing to the owning shard. Cross-shard
// reads are per-shard consistent during execution; global consistency
// is enforced at commit (phases 1 and 3) — a zombie execution that
// observed a split cross-shard state can only abort.
func (x *stxn) Read(a mem.Addr) (mem.Word, error) {
	if x.dead {
		return 0, tm.Abort(tm.ReasonConflict)
	}
	i := x.s.route(a)
	sb, err := x.sub(i)
	if err != nil {
		return 0, err
	}
	v, err := sb.Read(a)
	if err != nil {
		return 0, x.failSub(i, err)
	}
	return v, nil
}

// Write implements tm.Txn.
func (x *stxn) Write(a mem.Addr, v mem.Word) error {
	if x.dead {
		return tm.Abort(tm.ReasonConflict)
	}
	i := x.s.route(a)
	sb, err := x.sub(i)
	if err != nil {
		return err
	}
	if err := sb.Write(a, v); err != nil {
		return x.failSub(i, err)
	}
	return nil
}

// Abort implements tm.TM.
func (s *Sharded) Abort(t tm.Txn) {
	x := t.(*stxn)
	if x.dead {
		return
	}
	x.dead = true
	for _, i := range x.order {
		if sb := x.subs[i]; sb != nil && !sb.dead {
			s.shards[i].Abort(sb)
		}
	}
	if x.irrevocable {
		s.unlockAllGates()
	}
	s.cnt.OnAbort(tm.ReasonExplicit)
	s.recycle(x)
}

// Commit implements tm.TM: single-shard transactions delegate to their
// shard's commit path untouched; multi-shard (and irrevocable)
// transactions run the cross-shard token protocol.
func (s *Sharded) Commit(t tm.Txn) error {
	x := t.(*stxn)
	if x.dead {
		return tm.Abort(tm.ReasonConflict)
	}
	if len(x.order) == 0 {
		// Touched nothing.
		x.dead = true
		if x.irrevocable {
			s.unlockAllGates()
		}
		s.consec[x.thread] = 0
		s.cnt.OnCommit(true)
		s.recycle(x)
		return nil
	}
	if len(x.order) == 1 && !x.irrevocable {
		// Fast path: the whole footprint lives in one shard, so that
		// shard's ordinary protocol is exactly correct — no token, no
		// extra ordering, nothing global.
		i := x.order[0]
		sb := x.subs[i]
		ro := len(sb.redo) == 0
		err := s.shards[i].Commit(sb)
		x.dead = true
		if err == nil || errors.Is(err, ErrNotDurable) {
			s.consec[x.thread] = 0
			s.cnt.OnCommit(ro)
			s.recycle(x)
			s.singleCommits.Add(1)
			return err
		}
		if reason, ok := tm.IsAbort(err); ok {
			return x.finishAbort(reason)
		}
		return err // hard runtime error; descriptor dropped
	}
	return s.commitCross(x)
}

// commitCross is the five-phase cross-shard commit (package comment).
// An irrevocable transaction holds all gates exclusively already;
// everyone else takes its touched gates shared here, ascending.
func (s *Sharded) commitCross(x *stxn) error {
	if !x.irrevocable {
		for _, i := range x.order {
			s.shards[i].gate.RLock()
		}
	}
	s.token.Lock()
	xid := s.xid.Add(1)
	ro := true

	// Phase 1: strict extension on every touched shard. Forward-only:
	// any staleness (a committed overlap with the read set, or an
	// accumulated miss set) is a conflict — cross-shard transactions are
	// never reordered before their invalidators.
	for _, i := range x.order {
		sb := x.subs[i]
		sb.tempSig.Reset()
		_, overlap, ok := sb.extendFold(s.shards[i].globalTS.Load())
		if !ok {
			return s.crossFail(x, tm.ReasonWindow)
		}
		if overlap || sb.missAny {
			return s.crossFail(x, tm.ReasonConflict)
		}
		sb.validTS = sb.localTS
		sb.writeAddrs = sb.writeAddrs[:0]
		for _, a := range sb.writeOrder {
			sb.writeAddrs = append(sb.writeAddrs, uint64(a))
		}
		if len(sb.writeOrder) > 0 {
			ro = false
		}
	}

	// Phase 2: validate on every touched engine, ascending, claiming
	// each shard's next commit sequence — read-only subs included, so
	// the transaction occupies a slot in every touched publication
	// order.
	for k, i := range x.order {
		sb := x.subs[i]
		sh := s.shards[i]
		verdict, viaEngine, err := sh.validate(sb, fpga.Request{
			Token:      uint64(sb.thread),
			ValidTS:    sb.validTS,
			ReadAddrs:  sb.readAddrs,
			WriteAddrs: sb.writeAddrs,
		})
		if viaEngine {
			sh.cnt.AddModelValidation(sh.eng.Config().Model.RoundTripNanos + verdict.ModelNanos)
		}
		if err != nil {
			if errors.Is(err, errUnavailable) {
				return s.crossFail(x, tm.ReasonEngine)
			}
			return s.crossHardFail(x, fmt.Errorf("rococotm: engine (shard %d): %w", i, err))
		}
		if !verdict.OK {
			switch verdict.Reason {
			case fpga.ReasonWindow:
				return s.crossFail(x, tm.ReasonWindow)
			case fpga.ReasonClosed:
				return s.crossHardFail(x, fmt.Errorf("rococotm: engine (shard %d): %w", i, fpga.ErrClosed))
			default:
				return s.crossFail(x, tm.ReasonCycle)
			}
		}
		x.seqs[k] = uint64(verdict.Seq)
		x.claimed[k] = true
	}

	// Phase 2.5: arm the update-set entries (commit-time locks) on every
	// shard we will write, before anything publishes.
	for k, i := range x.order {
		if sb := x.subs[i]; len(sb.writeOrder) > 0 {
			s.shards[i].arm(x.thread, x.seqs[k], sb.writeSig)
		}
	}

	// Phase 3: capture every touched shard's publication turn, ascending,
	// and re-fold the commits that landed since phase 1. Our unpublished
	// slot pins the shard's GlobalTS at s_i (a turn-holder's group advance
	// stops exactly there), so by the end of this loop every touched shard
	// is stalled at our sequence and every fold verdict is final — nothing
	// has published yet, so an abort here leaves no half-commit.
	for k, i := range x.order {
		sb := x.subs[i]
		sh := s.shards[i]
		sh.await(x.thread, x.seqs[k], nil, false)
		sb.tempSig.Reset()
		_, overlap, ok := sb.extendFold(sh.globalTS.Load())
		if !ok {
			return s.crossFail(x, tm.ReasonWindow)
		}
		if overlap {
			return s.crossFail(x, tm.ReasonConflict)
		}
	}

	// Phase 4: publish everywhere. The xPubVer seqlock brackets the
	// whole multi-shard publication so vector cuts never split it.
	s.xPubVer.Add(1)
	mask := x.shardMask()
	for k, i := range x.order {
		sb := x.subs[i]
		seq := x.seqs[k]
		// The fold re-check proved the reads valid through seq.
		p := publication{validTS: seq, ws: sb.writeSig, reads: sb.readAddrs, writes: sb.writeAddrs,
			order: sb.writeOrder, redo: sb.redo, xid: xid, xshards: mask}
		s.shards[i].publish(seq, &p)
	}
	// Cross-log atomicity barrier: every touched log is durable before
	// any shard's timestamp advances (see the package comment). Sticky
	// log failures do not undo the commit — it is published — they only
	// leave durability unconfirmed.
	var derr error
	for k, i := range x.order {
		if sh := s.shards[i]; sh.dur != nil {
			if err := sh.dur.d.Log.WaitDurable(x.seqs[k] + 1); err != nil && derr == nil {
				derr = err
			}
		}
	}
	for k, i := range x.order {
		s.shards[i].release(x.seqs[k])
	}
	s.xPubVer.Add(1)
	s.crossCommits.Add(1)

	// Phase 5: release the token (publication is over; the armed
	// update-set entries keep the write sets locked), drain the redo
	// logs out of order, then release the gates.
	s.token.Unlock()
	s.drainWriteBacks(x)
	x.releaseGates()
	for _, i := range x.order {
		sb := x.subs[i]
		sb.finish("", false)
		s.shards[i].cnt.OnCommit(len(sb.redo) == 0)
	}
	x.dead = true
	s.consec[x.thread] = 0
	s.cnt.OnCommit(ro)
	s.recycle(x)
	if derr != nil {
		return fmt.Errorf("%w: %v", ErrNotDurable, derr)
	}
	return nil
}

// drainWriteBacks drains every write sub's redo log out of order and
// releases the armed update-set entries (the commit-time write locks).
func (s *Sharded) drainWriteBacks(x *stxn) {
	for k, i := range x.order {
		sb := x.subs[i]
		if len(sb.writeOrder) == 0 {
			continue
		}
		sh := s.shards[i]
		sh.writeBack(sb, x.seqs[k])
		sh.updates[x.thread].active.Store(0)
	}
}

func (x *stxn) releaseGates() {
	if x.irrevocable {
		x.s.unlockAllGates()
		return
	}
	for _, i := range x.order {
		x.s.shards[i].gate.RUnlock()
	}
}

// crossFail aborts a cross-shard attempt from inside the token: fill
// every claimed sequence with a published no-op (the shard's
// publication order must stay gapless for observers, the WAL and
// waiting committers), disarm the update-set entries, release
// token/gates, abort the subs and account at the front end.
func (s *Sharded) crossFail(x *stxn, reason string) error {
	s.fillClaimed(x)
	s.token.Unlock()
	x.releaseGates()
	for _, i := range x.order {
		if sb := x.subs[i]; sb != nil && !sb.dead {
			_ = sb.abort(reason)
		}
	}
	s.crossAborts.Add(1)
	return x.finishAbort(reason)
}

// crossHardFail is crossFail for non-abort runtime errors (a dying
// engine): the claimed slots are still filled so surviving shards stay
// live, but descriptors are dropped, not recycled.
func (s *Sharded) crossHardFail(x *stxn, err error) error {
	s.fillClaimed(x)
	s.token.Unlock()
	x.releaseGates()
	for _, i := range x.order {
		if sb := x.subs[i]; sb != nil && !sb.dead {
			sb.finish(tm.ReasonEngine, true)
		}
	}
	x.dead = true
	return err
}

// fillClaimed publishes a no-op into every sequence the aborting
// transaction claimed: empty signature, empty footprint, so the observer
// still gets its call (observers treat sequence gaps as errors) and the
// log a record with XID=0 — an aborted cross-shard transaction has no cross-log
// atomicity to preserve, so its fills are plain empty commits on each
// shard and recovery needs no reconciliation for them.
func (s *Sharded) fillClaimed(x *stxn) {
	any := false
	for k := range x.order {
		if x.claimed[k] {
			any = true
			break
		}
	}
	if !any {
		return
	}
	s.xPubVer.Add(1)
	for k, i := range x.order {
		if !x.claimed[k] {
			continue
		}
		sh := s.shards[i]
		seq := x.seqs[k]
		sh.await(x.thread, seq, nil, false)
		sh.publish(seq, &publication{validTS: seq, ws: sh.zeroSig})
		if len(x.subs[i].writeOrder) > 0 {
			// Disarm the commit-time lock without writing back.
			sh.updates[x.thread].active.Store(0)
		}
		sh.release(seq)
		s.noopFills.Add(1)
	}
	s.xPubVer.Add(1)
}

var (
	_ tm.TM        = (*Sharded)(nil)
	_ tm.Escalator = (*Sharded)(nil)
	_ tm.Txn       = (*stxn)(nil)
)

// ShardedSnapshot is a consistent vector of per-shard store snapshots.
type ShardedSnapshot struct {
	s   *Sharded
	sns []*mvstore.Snapshot
}

// Read implements tm.Snapshot by routing to the owning shard's pin.
func (sn *ShardedSnapshot) Read(a mem.Addr) mem.Word {
	return sn.sns[sn.s.route(a)].Read(a)
}

// Heights returns the per-shard pinned heights (tests).
func (sn *ShardedSnapshot) Heights() []uint64 {
	out := make([]uint64, len(sn.sns))
	for i, p := range sn.sns {
		out[i] = p.Height()
	}
	return out
}

// RetrieveSnapshot implements tm.Snapshotter: it pins every shard's
// multi-version store under the xPubVer seqlock, so the vector of pinned
// heights never splits a cross-shard commit — abort-free consistent
// reads across the whole address space. It fails when any shard lacks a
// durable store (tm.RunReadOnly then falls back to a transactional
// read-only execution, which takes the cross-shard path if it spans
// shards).
func (s *Sharded) RetrieveSnapshot() (tm.Snapshot, error) {
	for _, sh := range s.shards {
		if sh.dur == nil {
			return nil, errors.New("rococotm: sharded: not every shard has a durable store")
		}
	}
	for {
		v1 := s.xPubVer.Load()
		if v1&1 != 0 {
			runtime.Gosched()
			continue
		}
		sns := make([]*mvstore.Snapshot, len(s.shards))
		for i, sh := range s.shards {
			sns[i] = sh.dur.d.Store.RetrieveSnapshot()
		}
		if s.xPubVer.Load() == v1 {
			return &ShardedSnapshot{s: s, sns: sns}, nil
		}
		for i, sh := range s.shards {
			sh.dur.d.Store.ReleaseSnapshot(sns[i])
		}
		runtime.Gosched()
	}
}

// ReleaseSnapshot implements tm.Snapshotter.
func (s *Sharded) ReleaseSnapshot(t tm.Snapshot) {
	sn, ok := t.(*ShardedSnapshot)
	if !ok || sn.s != s {
		panic("rococotm: ReleaseSnapshot of a snapshot this runtime did not issue")
	}
	for i, sh := range s.shards {
		sh.dur.d.Store.ReleaseSnapshot(sn.sns[i])
	}
}

var _ tm.Snapshotter = (*Sharded)(nil)
