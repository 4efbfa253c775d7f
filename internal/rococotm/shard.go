package rococotm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rococotm/internal/mem"
	"rococotm/internal/mvstore"
	"rococotm/internal/tm"
)

// This file is the sharded validation plane: N independent ROCoCoTM
// runtimes, each owning its own FPGA engine (signature window,
// reachability matrix, submission ring) and its own commit queue and
// publication order, glued together by an address-partitioned front end.
//
// The address space is partitioned by address mod Shards. A transaction
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
//  1. strict extension — each sub-transaction extends to its shard's
//     present (extendStrict); any staleness aborts. Cross-shard
//     transactions are forward-only: the single-shard runtime may let
//     the engine serialize a stale-read transaction *before* its
//     invalidators, but a reordering that is safe per shard is not
//     provably safe across shards, so here staleness is simply a
//     conflict.
//  2. claim — every sub-transaction (even a read-only one) claims its
//     shard's next commit sequence s_i through the shard's ordinary
//     claim. Claiming on read-only shards is what puts the transaction
//     into every touched shard's publication order — the hook the
//     consistent-cut argument below hangs off.
//  3. turn capture + re-extension — for each touched shard in ascending
//     order, await the exact turn at s_i and hold it (nothing is
//     pre-published, so a single-shard turn-holder's group advance
//     cannot pass it), then extendStrict over the commits that landed
//     between phase 1 and the claim. Only after ALL shards pass does
//     anything publish: a cross-shard transaction is never
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
	// Shard is the per-shard runtime template. Observer, Durable and
	// LineTable must be zero: observers and durability are per-shard
	// (below), and the hybrid fast path is not supported per shard. Its
	// MaxThreads (default 32) also sizes the front end's own per-thread
	// state.
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
	// NextXID seeds the cross-shard transaction id allocator: ids are
	// allocated strictly above it. After recovery, pass the MaxXID
	// RecoverSharded returned.
	NextXID uint64
}

// Sharded is the multi-engine front end. It implements tm.TM,
// tm.Escalator and (when every shard is durable) tm.Snapshotter.
type Sharded struct {
	heap   *mem.Heap
	cfg    ShardedConfig
	shards []*TM

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

	escalated []bool
	scratch   []*stxn

	cnt tm.Counters

	singleCommits atomic.Uint64
	crossCommits  atomic.Uint64
	crossAborts   atomic.Uint64
	noopFills     atomic.Uint64
}

func (c *ShardedConfig) fill() {
	if c.Shards == 0 {
		c.Shards = 2
	}
	c.Shard.fill()
}

// shard returns shard i's runtime configuration: the template with the
// shard's own observer and durability binding.
func (c *ShardedConfig) shard(i int) Config {
	sc := c.Shard
	if c.Observers != nil {
		sc.Observer = c.Observers[i]
	}
	if c.Durables != nil {
		sc.Durable = c.Durables[i]
	}
	return sc
}

// Validate reports why a sharded runtime over heap cannot be built from c,
// or nil — the one legality function of the front end (see Config.Validate),
// covering every shard's own configuration.
func (c ShardedConfig) Validate(heap *mem.Heap) error {
	c.fill()
	t := &c.Shard
	switch {
	case c.Shards < 1 || c.Shards > 64:
		return fmt.Errorf("rococotm: sharded: Shards %d out of range [1,64]", c.Shards)
	case t.Observer != nil || t.Durable != nil:
		return errors.New("rococotm: sharded: set Observers/Durables, not Shard.Observer/Shard.Durable")
	case t.LineTable != nil:
		return errors.New("rococotm: sharded: Shard.LineTable: fast publications are not routed by shard")
	case c.Observers != nil && len(c.Observers) != c.Shards:
		return errors.New("rococotm: sharded: len(Observers) must equal Shards")
	case c.Durables != nil && len(c.Durables) != c.Shards:
		return errors.New("rococotm: sharded: len(Durables) must equal Shards")
	}
	for i := 0; i < c.Shards; i++ {
		if err := c.shard(i).Validate(heap); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// NewSharded starts Shards independent runtimes (each with its own
// engine) over heap. Like New, it panics with Validate's error.
func NewSharded(heap *mem.Heap, cfg ShardedConfig) *Sharded {
	cfg.fill()
	if err := cfg.Validate(heap); err != nil {
		panic(err)
	}
	s := &Sharded{
		heap:      heap,
		cfg:       cfg,
		shards:    make([]*TM, cfg.Shards),
		escalated: make([]bool, cfg.Shard.MaxThreads),
		scratch:   make([]*stxn, cfg.Shard.MaxThreads),
	}
	s.xid.Store(cfg.NextXID)
	for i := range s.shards {
		s.shards[i] = New(heap, cfg.shard(i))
	}
	return s
}

// route maps an address to its owning shard: address mod Shards.
func (s *Sharded) route(a mem.Addr) int { return int(uint64(a) % uint64(len(s.shards))) }

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
// (every Begin/Commit/Abort flows through it exactly once) and the shards'
// watchdog fires.
func (s *Sharded) Stats() tm.Stats {
	st := s.cnt.Snapshot()
	for _, sh := range s.shards {
		st.WatchdogFires += sh.wdFires.Load()
	}
	return st
}

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
	if thread >= 0 && thread < s.cfg.Shard.MaxThreads {
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
	s      *Sharded
	thread int
	// dead is the front-end descriptor's own flag: nothing remote writes it
	// (its subs' liveness is in their shards' words).
	dead        bool
	irrevocable bool

	subs   []*txn   // indexed by shard; nil = untouched
	order  []int    // touched shard indices, ascending
	seqs   []uint64 // claimed commit sequence per order entry
	nclaim int      // seqs[:nclaim] are claimed (claims are taken in order)
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
	x.nclaim = 0
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

// finish is the one epilogue of a front-end attempt, whatever ended it — the
// counterpart of txn.finish, taking the same outcome. Every sub-transaction
// still live ends with it (one that started the abort itself, or committed
// through its shard, has ended already); the outcome is counted; an irrevocable
// attempt releases its exclusive gates; and the descriptor is parked for the
// thread's next Begin.
func (x *stxn) finish(c tm.Code) {
	s := x.s
	x.dead = true
	ro := true
	for _, i := range x.order {
		sb := x.subs[i]
		ro = ro && len(sb.vals) == 0
		if _, st := sb.r.Poll(sb.thread, sb.attempt); st != Over {
			sb.finish(c)
		}
	}
	tally(&s.cnt, c, ro)
	if x.irrevocable {
		for _, sh := range s.shards {
			sh.gate.Unlock()
		}
	}
	if s.scratch[x.thread] == nil {
		s.scratch[x.thread] = x
	}
}

// fail ends the attempt on err, an abort or a hard engine error, and returns
// it.
func (x *stxn) fail(err error) error {
	x.finish(ending(err))
	return err
}

// Begin implements tm.TM.
func (s *Sharded) Begin(thread int) (tm.Txn, error) {
	if thread < 0 || thread >= s.cfg.Shard.MaxThreads {
		return nil, fmt.Errorf("rococotm: thread %d out of range [0,%d)", thread, s.cfg.Shard.MaxThreads)
	}
	s.cnt.OnStart()
	irrevocable := s.escalated[thread]
	if irrevocable {
		s.escalated[thread] = false
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
			s:      s,
			thread: thread,
			subs:   make([]*txn, n),
			order:  make([]int, 0, n),
			seqs:   make([]uint64, n),
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
		return 0, tm.AbortCode(tm.CodeConflict)
	}
	sb, err := x.sub(x.s.route(a))
	if err != nil {
		return 0, err
	}
	v, err := sb.Read(a)
	if err != nil {
		return 0, x.fail(err)
	}
	return v, nil
}

// Write implements tm.Txn.
func (x *stxn) Write(a mem.Addr, v mem.Word) error {
	if x.dead {
		return tm.AbortCode(tm.CodeConflict)
	}
	sb, err := x.sub(x.s.route(a))
	if err != nil {
		return err
	}
	if err := sb.Write(a, v); err != nil {
		return x.fail(err)
	}
	return nil
}

// Abort implements tm.TM.
func (s *Sharded) Abort(t tm.Txn) {
	if x := t.(*stxn); !x.dead {
		x.finish(tm.CodeExplicit)
	}
}

// Commit implements tm.TM: single-shard transactions delegate to their
// shard's commit path untouched; multi-shard (and irrevocable)
// transactions run the cross-shard token protocol.
func (s *Sharded) Commit(t tm.Txn) error {
	x := t.(*stxn)
	switch {
	case x.dead:
		return tm.AbortCode(tm.CodeConflict)
	case len(x.order) == 1 && !x.irrevocable:
		// Fast path: the whole footprint lives in one shard, so that
		// shard's ordinary protocol is exactly correct — no token, no
		// extra ordering, nothing global.
		i := x.order[0]
		err := s.shards[i].Commit(x.subs[i])
		if err != nil && !errors.Is(err, ErrNotDurable) {
			return x.fail(err)
		}
		s.singleCommits.Add(1)
		x.finish(committed)
		return err
	case len(x.order) == 0: // touched nothing
		x.finish(committed)
		return nil
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

	// Phase 1: strict extension on every touched shard. Forward-only:
	// cross-shard transactions are never reordered before their
	// invalidators.
	for _, i := range x.order {
		if err := x.subs[i].extendStrict(s.shards[i].globalTS.Load()); err != nil {
			return s.crossFail(x, err)
		}
	}

	// Phase 2: claim each touched shard's next commit sequence, ascending —
	// read-only subs included, so the transaction occupies a slot in every
	// touched publication order.
	for _, i := range x.order {
		seq, err := s.shards[i].claim(x.subs[i])
		if err != nil {
			return s.crossFail(x, err)
		}
		x.seqs[x.nclaim] = seq
		x.nclaim++
	}

	// Phase 2.5: arm the update-set entries (commit-time locks) on every
	// shard we will write, before anything publishes.
	for k, i := range x.order {
		if sb := x.subs[i]; len(sb.vals) > 0 {
			s.shards[i].arm(x.thread, x.seqs[k], sb.writes.sig)
		}
	}

	// Phase 3: capture every touched shard's publication turn, ascending,
	// and re-extend over the commits that landed since phase 1. Our
	// unpublished slot pins the shard's GlobalTS at s_i (a turn-holder's
	// group advance stops exactly there), so by the end of this loop every
	// touched shard is stalled at our sequence and every fold verdict is
	// final — nothing has published yet, so an abort here leaves no
	// half-commit.
	for k, i := range x.order {
		sh := s.shards[i]
		sh.await(x.seqs[k], nil)
		if err := x.subs[i].extendStrict(sh.globalTS.Load()); err != nil {
			return s.crossFail(x, err)
		}
	}

	// Phase 4: publish everywhere. The xPubVer seqlock brackets the
	// whole multi-shard publication so vector cuts never split it.
	s.xPubVer.Add(1)
	mask := x.shardMask()
	for k, i := range x.order {
		sb := x.subs[i]
		seq := x.seqs[k]
		// The re-extension proved the reads valid through seq.
		p := publication{validTS: seq, ws: sb.writes.sig, reads: sb.reads.addrs, writes: sb.writes.addrs,
			vals: sb.vals, xid: xid, xshards: mask}
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
	// logs out of order and disarm, then release the gates.
	s.token.Unlock()
	s.drainWriteBacks(x)
	x.runlockGates()
	x.finish(committed)
	if derr != nil {
		return fmt.Errorf("%w: %v", ErrNotDurable, derr)
	}
	return nil
}

// drainWriteBacks drains every write sub's redo log out of order and
// disarms the update-set entries (the commit-time write locks).
func (s *Sharded) drainWriteBacks(x *stxn) {
	for k, i := range x.order {
		if sb := x.subs[i]; len(sb.vals) > 0 {
			s.shards[i].writeBack(sb, x.seqs[k])
			s.shards[i].disarm(x.thread)
		}
	}
}

// runlockGates releases the shared gates commitCross took (an irrevocable
// attempt took none there: finish releases its exclusive ones).
func (x *stxn) runlockGates() {
	if !x.irrevocable {
		for _, i := range x.order {
			x.s.shards[i].gate.RUnlock()
		}
	}
}

// crossFail ends a cross-shard attempt from inside the token on err, an
// abort or a hard engine error: fill every claimed sequence with a
// published no-op (the shard's publication order must stay gapless for
// observers, the WAL and waiting committers — and surviving shards must
// stay live when an engine died), release token and gates, then the
// epilogue.
func (s *Sharded) crossFail(x *stxn, err error) error {
	s.fillClaimed(x)
	s.token.Unlock()
	x.runlockGates()
	s.crossAborts.Add(1)
	return x.fail(err)
}

// fillClaimed publishes a no-op into every sequence the aborting
// transaction claimed: empty signature, empty footprint, so the observer
// still gets its call (observers treat sequence gaps as errors) and the
// log a record with XID=0 — an aborted cross-shard transaction has no cross-log
// atomicity to preserve, so its fills are plain empty commits on each
// shard and recovery needs no reconciliation for them.
func (s *Sharded) fillClaimed(x *stxn) {
	if x.nclaim == 0 {
		return
	}
	s.xPubVer.Add(1)
	for k, i := range x.order[:x.nclaim] {
		sh := s.shards[i]
		seq := x.seqs[k]
		sh.await(seq, nil)
		sh.publish(seq, &publication{validTS: seq, ws: sh.zeroSig})
		// Release the commit-time lock phase 2.5 may have armed, without
		// writing back.
		sh.disarm(x.thread)
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
			return nil, errShardNoStore
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
