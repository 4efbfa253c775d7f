// Package rococotm implements the paper's hybrid TM (§5): transactions
// execute and commit on the CPU, while read-write transactions are
// validated by the (simulated) FPGA pipeline of internal/fpga.
//
// The CPU side is Algorithm 1 — the LSA variant that replaces TinySTM's
// per-location metadata with global bloom-filter signatures:
//
//   - a global timestamp (GlobalTS) counts committed write transactions;
//   - the commit queue holds one write-set signature per committed
//     transaction, indexed by timestamp;
//   - an executing transaction starts with LocalTS = ValidTS = GlobalTS;
//     each read folds the write signatures published since LocalTS into a
//     TempSet and either extends ValidTS (no overlap with its read set) or
//     starts accumulating a MissSet of locations updated since ValidTS.
//     Reading a location in the MissSet would tear the snapshot, so the
//     transaction aborts eagerly on the CPU — the fast abort path that
//     never pays the out-of-core latency;
//   - the update set holds the write signatures of transactions currently
//     writing back; reads spin past them (commit-time locking, line 5);
//   - a read-only transaction commits immediately; a write transaction
//     commits in one critical section, TM.order (pipeline.go): it ships
//     its read/write addresses and ValidTS to the FPGA and, on an OK
//     verdict with commit sequence s, arms its update-set entry, publishes
//     its write signature into the commit queue at s (and the commit into
//     the observer and durability sinks) and moves GlobalTS past s. Lock
//     order is publication order, so no commit waits for a turn. The other
//     producer of a sequence, the hybrid fast publication, runs the same
//     section. The redo-log write-back runs after it, out of order across
//     committers, with the update-set entry held armed until the last word
//     lands, so readers spin past unfinished write-backs exactly as they
//     spin past unreleased committers.
//   - snapshot extension folds lagged commits through an aggregate
//     signature ring (agg.go): power-of-two segment unions over the
//     commit queue turn a K-commit extension into O(log K) folds.
//
// Unlike TinySTM, a transaction whose snapshot extension failed is not
// doomed: as long as it never reads a missed location it runs to the end,
// and the FPGA serializes it *before* the writers that invalidated it
// (a forward edge in the ROCoCo dependency window) unless that closes a
// cycle. That reordering is exactly the abort-rate advantage the paper
// measures.
package rococotm

import (
	"errors"
	"fmt"
	"log"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rococotm/internal/fpga"
	"rococotm/internal/mem"
	"rococotm/internal/sig"
	"rococotm/internal/tm"
)

// CommitObserver receives every committed write transaction at its
// serialization point: calls arrive in strictly increasing, gapless seq
// order, one at a time, each on the committer's own goroutine with
// GlobalTS == seq. validTS is the snapshot the engine validated the read
// set against; reads and writes are the transaction's footprint. The
// slices are the runtime's recycled scratch — an observer must copy what
// it keeps and must be fast (it runs inside the ordered section, TM.order,
// serializing all committers behind it). The audit recorder in internal/audit is the
// intended implementation.
type CommitObserver interface {
	ObserveCommit(seq, validTS uint64, reads, writes []uint64)
}

// Config parameterizes the runtime.
type Config struct {
	// MaxThreads bounds thread ids (per-thread update-set slots, one bit
	// each in the armed word); default 32, at most 64.
	MaxThreads int
	// Engine configures the FPGA validation pipeline; zero value uses the
	// paper's deployment (W=64, 512-bit signatures).
	Engine fpga.Config
	// MeasurePhases enables the wall-clock validation timer (Fig. 11) and
	// the per-phase commit latency counters (extension / validate / await
	// — the wait for TM.order — / publish / write-back) behind
	// tm.Stats.CommitPhase*.
	MeasurePhases bool

	// WatchdogAge, when > 0, starts a per-TM watchdog goroutine that scans
	// the threads' liveness words (live.go) every WatchdogAge/4, at least
	// 100µs, and dooms an attempt — slow or hybrid fast — whose word has
	// not changed for this age, measured from the first scan that saw it.
	// A doomed attempt is logged (Logf), counted in Stats.WatchdogFires,
	// and aborts with tm.ReasonWatchdog at its next safe point (the next
	// Read, Write, or Commit entry), counted in Stats.WatchdogKills. 0
	// (the default) disables the watchdog.
	WatchdogAge time.Duration
	// Logf receives watchdog diagnostics; default log.Printf.
	Logf func(format string, args ...any)
	// Observer, when set, receives every committed write transaction at
	// its serialization point — the hook the serializability auditor
	// (internal/audit) attaches to.
	Observer CommitObserver
	// Durable, when set, drains every committed write-set into a
	// write-ahead log and multi-version store at its publication point
	// (durable.go). The Log and Store must agree on their height; a
	// non-zero height reseeds GlobalTS and the engine window (recovery).
	Durable *Durable
	// LineTable, when set, enables hybrid fast-path coexistence
	// (fastpub.go): uninstrumented fast transactions own lines and bump
	// per-line versions through this table, slow reads spin past
	// fast-owned lines via the version seqlock, and slow write-backs bump
	// the versions of the lines they touch so fast readers revalidate.
	// The table must cover the runtime's heap.
	LineTable *mem.LineTable
}

const (
	// commitQueueSlots is the size of the commit-queue ring, a power of
	// two: a transaction whose snapshot falls more than this many commits
	// behind aborts with the window reason.
	commitQueueSlots = 4096
	// readSpinLimit bounds the rounds a read waits on in-flight committers
	// before it aborts.
	readSpinLimit = 64
	// maxThreads is the width of the armed word: one bit per thread.
	maxThreads = 64
)

func (c *Config) fill() {
	if c.MaxThreads == 0 {
		c.MaxThreads = 32
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
}

// Validate reports why a runtime over heap cannot be built from c, or nil.
// Every legality check of a configuration lives here — New makes none of its
// own and panics with this error — so a feature pair either passes and
// composes, or is rejected by a message naming both features. Zero fields
// are legal (they select defaults).
func (c Config) Validate(heap *mem.Heap) error {
	if c.MaxThreads > maxThreads {
		return fmt.Errorf("rococotm: MaxThreads %d exceeds %d, the bits of the update set's armed word", c.MaxThreads, maxThreads)
	}
	if err := c.Engine.Validate(); err != nil {
		return fmt.Errorf("rococotm: Engine: %w", err)
	}
	if d := c.Durable; d != nil {
		if d.Log == nil || d.Store == nil {
			return errors.New("rococotm: Durable needs both Log and Store")
		}
		if d.Store.Heap() != heap {
			return errors.New("rococotm: Durable.Store opened over a different heap")
		}
		if n, h := d.Log.NextSeq(), d.Store.Height(); n != h {
			return fmt.Errorf("rococotm: Durable.Log at seq %d but Durable.Store at height %d", n, h)
		}
	}
	if lt := c.LineTable; lt != nil {
		if c.Durable != nil {
			// The multi-version store captures chain base values from the
			// live heap at first touch; a fast transaction's uncommitted
			// eager store would be captured as committed pre-history.
			return errors.New("rococotm: LineTable is incompatible with Durable")
		}
		if want := (uint64(heap.Cap()-1) >> mem.LineShift) + 1; uint64(lt.Lines()) < want {
			return fmt.Errorf("rococotm: LineTable covers %d lines, heap needs %d", lt.Lines(), want)
		}
	}
	return nil
}

// commitSlot is one seqlock-protected ring entry of the commit queue.
// ver = 2*ts+1 while the slot is being written for commit ts, 2*ts+2 once
// it holds that commit's write signature. The words themselves are atomic
// so racing readers observe word-consistent values; the version check makes
// the whole-signature copy consistent.
type commitSlot struct {
	ver   atomic.Uint64
	words []atomic.Uint64
}

// updateSlot is one per-thread entry of the update set: the write
// signature of a transaction between its FPGA verdict and the end of its
// write-back — the commit-time lock of the decoupled pipeline, held
// across the GlobalTS release. The entry counts while the thread's bit of
// TM.armed is set. Readers probe individual bits with atomic loads, so a
// slot being reinstalled can only yield a spurious hit (a retry), never a
// torn miss: the owner stores seq and the new words before it sets its
// bit. seq orders concurrent write-backs (pipeline.go awaitWriters keys
// WAW waits off it).
type updateSlot struct {
	seq   atomic.Uint64
	words []atomic.Uint64
	_     [4]uint64 // pad to 64 B: hot slots off each other's cache line
}

// TM is the ROCoCoTM runtime.
type TM struct {
	heap   *mem.Heap
	cfg    Config
	eng    *fpga.Engine
	hasher *sig.Hasher
	qMask  uint64 // len(commitQ)-1

	// readSpin is readSpinLimit; wbHook, when set, runs before each
	// redo-log word of a write-back with the commit sequence and word
	// index. Both are test seams, set before the first transaction: tests
	// pin write-backs mid-flight and starve reads with them.
	readSpin int
	wbHook   func(seq uint64, word int)

	// order is the ordered section (pipeline.go): claim, arm and publish
	// run under it, so lock order is publication order.
	order    sync.Mutex
	globalTS atomic.Uint64
	// armed has bit i set while thread i's update-set entry is armed
	// (pipeline.go arm, disarm): a probe that meets no committer loads this
	// one word and visits no slot.
	armed   atomic.Uint64
	commitQ []commitSlot
	updates []updateSlot

	// Aggregate signature ring (agg.go): agg[L] unions 2^L consecutive
	// commit signatures per slot; aggMax is the top level (0 = disabled).
	// sigPW caches the signature partition width in words for the atomic
	// intersection in pipeline.go.
	agg    [][]commitSlot
	aggMax int
	sigPW  int

	// zeroSig is the empty write signature published for a sequence that
	// was claimed but commits nothing (a failed fast publication).
	// Read-only after construction.
	zeroSig sig.Sig

	// gate serializes commits against irrevocable execution: regular
	// commits hold it shared for their validate/write-back span; an
	// irrevocable transaction holds it exclusively from Begin to Commit.
	// irrevPending counts irrevocable transactions waiting for or holding
	// the exclusive gate: fast-path transactions poll it and self-abort,
	// because a fast line owner blocking an irrevocable read while itself
	// blocked on the gate would deadlock (the fast commit only TryRLocks,
	// so the deadlock is already impossible — the flag makes the drain
	// prompt instead of commit-time). It is a global admission count, not
	// any attempt's liveness.
	gate         sync.RWMutex
	irrevPending atomic.Int32
	// escalated is the owner-only input to the thread's next Begin: a
	// starvation escalation is pending.
	escalated []bool

	// live holds each thread's liveness word (live.go). wdFires backs
	// Stats.WatchdogFires (the kills are the aborts with tm.CodeWatchdog).
	live    []liveWord
	wdFires atomic.Uint64

	// scratch holds each thread's recycled transaction descriptor
	// (owner-only: nil while the thread's txn is live).
	scratch []*txn

	cnt tm.Counters

	// Durability binding (durable.go); nil unless Config.Durable is set.
	dur *durableState

	// Hybrid fast-path binding (fastpub.go); nil unless Config.LineTable
	// is set. fastSigs holds one recycled write signature per thread for
	// fast publications.
	lt           *mem.LineTable
	fastSigs     []sig.Sig // per-thread write-sig scratch for PublishFast
	fastReadSigs []sig.Sig // per-thread read-sig scratch for the drain scan

	// stop ends the watchdog goroutine; bg tracks it so Close can join it
	// before tearing the engine down.
	stop chan struct{}
	once sync.Once
	bg   sync.WaitGroup
}

// New starts a ROCoCoTM runtime (including its FPGA engine) over heap. It
// panics with Config.Validate's error on an illegal configuration —
// construction problems are deployment bugs, not runtime conditions.
func New(heap *mem.Heap, cfg Config) *TM { return newTM(heap, cfg, commitQueueSlots) }

// newTM is New over a commit queue of slots entries, a power of two; tests
// shrink it to lap the ring.
func newTM(heap *mem.Heap, cfg Config, slots int) *TM {
	cfg.fill()
	if err := cfg.Validate(heap); err != nil {
		panic(err)
	}
	eng, err := fpga.Start(cfg.Engine)
	if err != nil {
		panic(fmt.Errorf("rococotm: %w", err))
	}
	r := &TM{
		heap:     heap,
		cfg:      cfg,
		eng:      eng,
		hasher:   eng.Hasher(),
		commitQ:  make([]commitSlot, slots),
		qMask:    uint64(slots - 1),
		updates:  make([]updateSlot, cfg.MaxThreads),
		readSpin: readSpinLimit,
	}
	sigWords := eng.Config().Sig.Words()
	for i := range r.commitQ {
		r.commitQ[i].words = make([]atomic.Uint64, sigWords)
	}
	for i := range r.updates {
		r.updates[i].words = make([]atomic.Uint64, sigWords)
	}
	r.sigPW = eng.Config().Sig.PartitionBits() / 64
	r.zeroSig = sig.New(eng.Config().Sig)
	r.initAgg(sigWords)
	r.escalated = make([]bool, cfg.MaxThreads)
	r.live = make([]liveWord, cfg.MaxThreads)
	r.scratch = make([]*txn, cfg.MaxThreads)
	r.stop = make(chan struct{})
	if d := cfg.Durable; d != nil {
		r.dur = &durableState{d: d}
		if h := d.Store.Height(); h > 0 {
			// Recovery reseed: the commit count resumes where the durable
			// history ends, and the engine's sliding window rebases there
			// (empty — the signatures it would need died with the crash, so
			// pre-crash snapshots correctly read as out-of-window).
			r.globalTS.Store(h)
			eng.Restart(h)
		}
	}
	if cfg.LineTable != nil {
		r.lt = cfg.LineTable
		r.fastSigs = make([]sig.Sig, cfg.MaxThreads)
		r.fastReadSigs = make([]sig.Sig, cfg.MaxThreads)
		for i := range r.fastSigs {
			r.fastSigs[i] = sig.New(eng.Config().Sig)
			r.fastReadSigs[i] = sig.New(eng.Config().Sig)
		}
	}
	if cfg.WatchdogAge > 0 {
		r.bg.Add(1)
		go r.watchdog()
	}
	return r
}

// watchdog scans the liveness words and dooms an attempt whose running word
// has not changed for WatchdogAge. The age is measured here, from the first
// tick that saw the word, so Begin reads no clock. The owner consumes the doom
// at its next safe point, so a kill lands only between transactional
// operations, never mid-publication.
func (r *TM) watchdog() {
	defer r.bg.Done()
	age := r.cfg.WatchdogAge
	tick := time.NewTicker(max(age/4, 100*time.Microsecond))
	defer tick.Stop()
	seen := make([]uint64, len(r.live))
	since := make([]time.Time, len(r.live))
	for {
		var now time.Time
		select {
		case <-r.stop:
			return
		case now = <-tick.C:
		}
		for i := range r.live {
			w := r.live[i].w.Load()
			if w != seen[i] {
				seen[i], since[i] = w, now
			} else if stuck := now.Sub(since[i]); stuck >= age && r.live[i].doom(w, tm.CodeWatchdog) {
				r.cfg.Logf("rococotm: watchdog: thread %d transaction stuck %v; force-abort at next safe point", i, stuck)
				r.wdFires.Add(1) // after the log: a counted fire has been logged
			}
		}
	}
}

// Escalate implements tm.Escalator: the thread's next Begin runs
// irrevocably (exclusive commit gate), giving a starved transaction one
// prioritized pessimistic turn that cannot lose validation — nothing
// commits during its execution, so its validation can never find a cycle.
// It is the forward-progress mechanism §4.2 and §5.1 call for ("to ensure
// long transactions can eventually commit, irrevocability may be
// required"), and the only way into an irrevocable turn: tm's retry loop
// calls it once a transaction's contention aborts reach
// BackoffPolicy.EscalateAfter.
func (r *TM) Escalate(thread int) {
	if thread >= 0 && thread < r.cfg.MaxThreads {
		r.escalated[thread] = true
	}
}

// PoolCheck reports lifecycle accounting for leak tests: live is the
// number of threads whose liveness word is not idle (slow and hybrid fast
// attempts alike), parked the number of recycled descriptors resting in the
// scratch pool. After every application goroutine has joined, live must be
// 0 — anything else is a leaked attempt (e.g. a panic that skipped rollback).
func (r *TM) PoolCheck() (live, parked int) {
	for i := range r.scratch {
		if phaseOf(r.live[i].w.Load()) != phaseIdle {
			live++
		}
		if r.scratch[i] != nil {
			parked++
		}
	}
	return live, parked
}

// Name implements tm.TM.
func (r *TM) Name() string { return "rococotm" }

// Heap implements tm.TM.
func (r *TM) Heap() *mem.Heap { return r.heap }

// Stats implements tm.TM.
func (r *TM) Stats() tm.Stats {
	s := r.cnt.Snapshot()
	s.WatchdogFires = r.wdFires.Load()
	return s
}

// Engine exposes the FPGA pipeline (stats, tests).
func (r *TM) Engine() *fpga.Engine { return r.eng }

// GlobalTS returns the current global timestamp (count of committed write
// transactions).
func (r *TM) GlobalTS() uint64 { return r.globalTS.Load() }

// Close shuts down the watchdog and the FPGA engine. A configured durable
// log is closed last (final flush + flusher join); a tail that could not be
// made durable is logged, not fatal — Close models a clean shutdown racing
// a flaky disk.
func (r *TM) Close() {
	r.once.Do(func() { close(r.stop) })
	r.bg.Wait()
	r.eng.Close()
	if r.dur != nil {
		if err := r.dur.d.Log.Close(); err != nil {
			r.cfg.Logf("rococotm: wal close: %v", err)
		}
	}
}

type txn struct {
	r       *TM
	thread  int
	attempt uint64 // this attempt's running word: live while r.live[thread] holds it
	// irrevocable and readOnly are the attempt's modes, fixed at Begin —
	// not its liveness. A read-only attempt (BeginReadOnly) writes nothing
	// and keeps its read set as an append-only log.
	irrevocable bool
	readOnly    bool

	localTS uint64 // commit-queue scan position
	validTS uint64 // snapshot at which all reads are known consistent

	reads  addrSet    // the read set
	writes addrSet    // the write set; its signature is the commit's
	vals   []mem.Word // the redo log: vals[i] is the value for writes.addrs[i]

	p probe // the current read's probe (Read, readOnlyRead)

	missSig sig.Sig // MissSet
	missAny bool
	tempSig sig.Sig // scratch TempSet
	oneSig  sig.Sig // scratch for one commit-queue entry
	aggSig  sig.Sig // scratch for one aggregate-ring segment
}

// reset arms a fresh or recycled descriptor for a new attempt at snapshot
// ts. Signatures, set indexes and the redo log are cleared in place.
func (x *txn) reset(ts uint64) {
	x.localTS, x.validTS = ts, ts
	x.missSig.Reset()
	x.missAny = false
	x.reads.reset()
	x.writes.reset()
	x.vals = x.vals[:0]
}

// committed is the outcome finish takes for a commit; every other value is
// the code the attempt aborted with.
const committed = tm.Code(0xff)

// tally records one attempt's outcome in cnt, so no path can end an attempt
// uncounted and Starts == Commits + Aborts holds by construction.
func tally(cnt *tm.Counters, c tm.Code, readOnly bool) {
	if c == committed {
		cnt.OnCommit(readOnly)
		return
	}
	cnt.OnAbort(c)
}

// finish is the one epilogue of an attempt, whatever ended it: c is committed
// or the abort code. It counts the outcome, releases the exclusive gate of
// an irrevocable attempt, ends the attempt in the thread's liveness word and
// parks the descriptor for the thread's next Begin. Only the owning thread
// calls it (txns are single-goroutine), so the scratch slot needs no
// synchronization.
func (x *txn) finish(c tm.Code) {
	r := x.r
	tally(&r.cnt, c, len(x.vals) == 0)
	if x.irrevocable {
		r.gate.Unlock()
		r.irrevPending.Add(-1)
	}
	r.live[x.thread].end()
	if r.scratch[x.thread] == nil {
		r.scratch[x.thread] = x
	}
}

func (x *txn) abort(c tm.Code) error {
	x.finish(c)
	return tm.AbortCode(c)
}

// stop ends the attempt at a safe point (Read, Write and Commit entry) whose
// Poll did not read Live: a doomed attempt ends with its doom's code, one
// that already ended gets the dead answer.
//
//tm:hotpath
func (x *txn) stop(c tm.Code, st Liveness) error {
	if st == Doomed {
		return x.abort(c)
	}
	return tm.AbortCode(c)
}

// ending is finish's outcome for an attempt that ends on err: an abort's
// code, or — anything else is a hard engine error — an engine abort.
func ending(err error) tm.Code {
	if c, abort := tm.CodeOf(err); abort {
		return c
	}
	return tm.CodeEngine
}

// Begin implements tm.TM.
func (r *TM) Begin(thread int) (tm.Txn, error) { return r.begin(thread, false) }

// BeginReadOnly implements tm.ReadOnlyBeginner: Begin for an attempt that
// only reads. Its reads take Algorithm 1's steps and nothing else — no
// redo-log lookup, and the read set is an address log with repeats kept,
// since it never leaves the descriptor (the extension's signatures and
// overlap verdicts are the same for a multiset) — its Write returns
// tm.ErrReadOnlyWrite, and its Commit is the empty write set's.
func (r *TM) BeginReadOnly(thread int) (tm.Txn, error) { return r.begin(thread, true) }

// begin is Begin and BeginReadOnly: the liveness word, the escalation to an
// irrevocable turn, and the recycled descriptor.
func (r *TM) begin(thread int, readOnly bool) (tm.Txn, error) {
	if thread < 0 || thread >= r.cfg.MaxThreads {
		return nil, fmt.Errorf("rococotm: thread %d out of range [0,%d)", thread, r.cfg.MaxThreads)
	}
	attempt, ok := r.live[thread].begin(phaseSlow)
	if !ok {
		return nil, fmt.Errorf("rococotm: thread %d already runs an attempt", thread)
	}
	r.cnt.OnStart()
	irrevocable := r.escalated[thread]
	if irrevocable {
		r.escalated[thread] = false // one prioritized turn per escalation
		// Exclusive gate: in-flight commits drain, nothing new commits
		// until this transaction finishes, so its snapshot stays valid
		// and its validation is trivially acyclic. The pending count goes
		// up first so fast-path transactions (which hold line ownership
		// without the gate) abort promptly instead of stalling the drain.
		r.irrevPending.Add(1)
		r.gate.Lock()
	}
	x := r.scratch[thread]
	if x == nil {
		scfg := r.eng.Config().Sig
		x = &txn{
			r:       r,
			thread:  thread,
			reads:   newAddrSet(scfg),
			writes:  newAddrSet(scfg),
			missSig: sig.New(scfg),
			tempSig: sig.New(scfg),
			oneSig:  sig.New(scfg),
			aggSig:  sig.New(scfg),
		}
	}
	r.scratch[thread] = nil
	x.irrevocable, x.readOnly, x.attempt = irrevocable, readOnly, attempt
	x.reset(r.globalTS.Load())
	return x, nil
}

// updateSetHits reports whether any in-flight committer's write signature
// may contain the address of p (Algorithm 1 line 5). It visits only the
// entries armed in the armed word and set in others, the reader's mask of
// every thread but itself. p hashes the address only once it meets one,
// and at most once across the spin's probes and the read's MissSet query,
// so a read that meets no committer loads one word and hashes nothing.
//
//tm:hotpath
func (r *TM) updateSetHits(p *probe, others uint64) bool {
	m := r.armed.Load() & others
	return m != 0 && r.armedHits(p, m)
}

// armedHits is updateSetHits over the entries whose bits are set in m.
//
//tm:hotpath
func (r *TM) armedHits(p *probe, m uint64) bool {
	for ; m != 0; m &= m - 1 {
		u := &r.updates[bits.TrailingZeros64(m)]
		hit := true
		for _, bit := range p.indices(r.hasher) {
			if u.words[bit>>6].Load()&(1<<uint(bit&63)) == 0 {
				hit = false
				break
			}
		}
		if hit {
			return true
		}
	}
	return false
}

// probe is one read's address and its signature indices, computed at most
// once and only when a consumer asks: an armed update-set entry, or a
// non-empty MissSet.
type probe struct {
	a   uint64
	k   int // len of the computed indices; 0 until hashed
	idx [16]int
}

// probe returns the descriptor's probe, reset to a. It is reused, not built
// per read: a fresh one would clear its indices on every read.
//
//tm:hotpath
func (x *txn) probe(a mem.Addr) *probe {
	x.p.a, x.p.k = uint64(a), 0
	return &x.p
}

// indices returns a's signature indices, hashing on the first call.
//
//tm:hotpath
func (p *probe) indices(h *sig.Hasher) []int {
	if p.k == 0 {
		p.k = len(h.Indices(p.a, p.idx[:]))
	}
	return p.idx[:p.k]
}

// loadCommitSig copies the write signature of commit ts into dst.
// ok=false means the ring has been lapped: the snapshot is too old.
//
//tm:hotpath
func (r *TM) loadCommitSig(ts uint64, dst sig.Sig) bool {
	slot := &r.commitQ[ts&r.qMask]
	want := 2*ts + 2
	for {
		v1 := slot.ver.Load()
		if v1 != want {
			if v1 == 2*ts+1 {
				// Mid-publication; it completes promptly.
				runtime.Gosched()
				continue
			}
			return false
		}
		d := dst.Words()
		for i := range slot.words {
			d[i] = slot.words[i].Load()
		}
		if slot.ver.Load() == v1 {
			return true
		}
	}
}

// Read implements tm.Txn — Algorithm 1, TM_READ.
func (x *txn) Read(a mem.Addr) (mem.Word, error) {
	if x.readOnly {
		return x.readOnlyRead(a)
	}
	if c, st := x.r.Poll(x.thread, x.attempt); st != Live {
		return 0, x.stop(c, st)
	}
	// Lines 1-4: read-your-writes from the redo log.
	if i := x.writes.find(uint64(a)); i >= 0 {
		return x.vals[i], nil
	}
	// The read is hashed only if load meets a committer or admit a
	// MissSet; the read-set signature is built by the extension that needs
	// it (addrSet.sign).
	p := x.probe(a)
	v, g1, err := x.load(a, p)
	if err != nil {
		return 0, err
	}
	if err := x.admit(p, g1); err != nil {
		return 0, err
	}
	return v, nil
}

// readOnlyRead is Read in a read-only attempt: Algorithm 1's steps alone.
// There is no redo log to look up, and line 20 appends the address to the
// read set's log.
//
//tm:hotpath
func (x *txn) readOnlyRead(a mem.Addr) (mem.Word, error) {
	if c, st := x.r.Poll(x.thread, x.attempt); st != Live {
		return 0, x.stop(c, st)
	}
	p := x.probe(a)
	v, g1, err := x.load(a, p)
	if err != nil {
		return 0, err
	}
	if err := x.reconcile(p, g1); err != nil {
		return 0, err
	}
	x.reads.add(p.a)
	return v, nil
}

// load is Algorithm 1 lines 5-8: it waits out committers and fast owners
// that may be writing a, then loads it. g1 is the GlobalTS that bracketed
// the accepted load — v is a's value as of every commit below g1, and says
// nothing about commits from g1 on.
//
//tm:hotpath
func (x *txn) load(a mem.Addr, p *probe) (v mem.Word, g1 uint64, err error) {
	r := x.r
	lt := r.lt
	line := mem.LineOf(a)
	others := ^(uint64(1) << uint(x.thread))
	spins := 0
	for {
		// An irrevocable transaction is exempt from the spin limit: its
		// no-abort contract is what the escalation ladder rests on, and
		// every spin it can be stuck in here resolves — committers drained
		// when the exclusive gate was taken, and a fast line owner is
		// doomed below and rolls back promptly.
		if spins++; spins > r.readSpin && !x.irrevocable {
			return 0, 0, x.abort(tm.CodeConflict)
		}
		g1 = r.globalTS.Load()
		// Line 5-7: commit-time locking — wait out committers that may be
		// writing this address back (with the decoupled pipeline, a
		// committer's entry stays armed past its timestamp release, until
		// its write-back lands). If we are already inconsistent (MissSet
		// non-empty), waiting cannot help: abort (line 6).
		if r.updateSetHits(p, others) {
			if x.missAny {
				return 0, 0, x.abort(tm.CodeConflict)
			}
			runtime.Gosched()
			continue
		}
		// Hybrid coexistence: an odd line version means a fast-path
		// transaction owns the line and its eager stores are uncommitted —
		// spin past it exactly like an in-flight write-back. The version
		// re-check after the load closes the window where a fast
		// transaction acquires, stores, and rolls back entirely between
		// our ownership probes (every fast acquisition bumps the version).
		var lv uint64
		if lt != nil {
			if lv = lt.Version(line); lv&1 != 0 {
				if x.irrevocable {
					// The odd version under an exclusively-held gate can
					// only be a fast owner stalled in user code (write-backs
					// drained before the gate was granted). It cannot commit
					// while we hold the gate; doom it so the wait is bounded
					// by one fast rollback instead of the owner's next
					// operation, which may never come.
					r.doomFastOwner(mem.LineWriterOf(lt.Own(line).Load()))
				}
				runtime.Gosched()
				continue
			}
		}
		v = r.heap.Load(a) // line 8
		// Re-check: if a committer published or a commit completed while
		// we read, the value may be torn or from an ambiguous snapshot.
		if r.updateSetHits(p, others) || r.globalTS.Load() != g1 {
			continue
		}
		if lt != nil && lt.Version(line) != lv {
			continue
		}
		return v, g1, nil
	}
}

// admit is Algorithm 1 lines 9-20 for a value of p's address that load
// accepted under g1: reconcile, then record the read in the read set.
func (x *txn) admit(p *probe, g1 uint64) error {
	if err := x.reconcile(p, g1); err != nil {
		return err
	}
	x.reads.insert(p.a) // line 20: record the read
	return nil
}

// reconcile is Algorithm 1 lines 9-19 for a value of p's address that load
// accepted under g1: extend the snapshot or grow the miss set, and abort if
// the address is in it.
//
//tm:hotpath
func (x *txn) reconcile(p *probe, g1 uint64) error {
	if x.localTS >= g1 && !x.missAny {
		return nil // nothing committed since localTS, nothing missed
	}
	return x.reconcileLagged(p, g1)
}

// reconcileLagged is reconcile for a transaction whose snapshot lags g1 or
// that has missed a commit.
//
//tm:hotpath
func (x *txn) reconcileLagged(p *probe, g1 uint64) error {
	// Lines 9-19, extend (agg.go), unless nothing committed since localTS
	// (one compare on the common path). The fold stops at g1, not at the
	// live GlobalTS: a is not in the read set yet, so a commit in
	// [g1, GlobalTS) that wrote a would fold without an overlap and validTS
	// would pass a write the loaded value does not reflect. Such a commit is
	// folded by the next Read or by Commit, with a recorded.
	if x.localTS < g1 && !x.extend(g1) {
		return x.abort(tm.CodeWindow) // snapshot fell out of the commit-queue ring
	}
	if x.missAny && x.missSig.QueryIdx(p.indices(x.r.hasher)) {
		return x.abort(tm.CodeConflict) // line 17: torn snapshot
	}
	return nil
}

// Write implements tm.Txn — Algorithm 1, TM_WRITE. A read-only attempt
// refuses it.
func (x *txn) Write(a mem.Addr, v mem.Word) error {
	if x.readOnly {
		return tm.ErrReadOnlyWrite
	}
	if c, st := x.r.Poll(x.thread, x.attempt); st != Live {
		return x.stop(c, st)
	}
	if i, fresh := x.writes.insert(uint64(a)); fresh {
		x.vals = append(x.vals, v)
	} else {
		x.vals[i] = v
	}
	return nil
}

// Commit implements tm.TM (§5.3 commit protocol): extend to the present,
// then the ordered section — claim a sequence from the validator, arm the
// update-set entry, publish (signature, sinks, GlobalTS) — under TM.order,
// and a decoupled write-back phase that runs out of order across committers
// under the update-set lock (pipeline.go).
func (r *TM) Commit(t tm.Txn) error {
	x := t.(*txn)
	if c, st := x.r.Poll(x.thread, x.attempt); st != Live {
		return x.stop(c, st)
	}
	if len(x.vals) == 0 {
		// Read-only fast path: consistent at validTS, commits on CPU.
		x.finish(committed)
		return nil
	}
	if !x.irrevocable {
		// Shared gate for the validate/write-back span, so an escalating
		// irrevocable transaction can drain commits and freeze the world.
		r.gate.RLock()
		defer r.gate.RUnlock()
	}

	measure := r.cfg.MeasurePhases
	var pStart time.Time
	if measure {
		pStart = time.Now()
	}

	// Final snapshot extension before shipping. Without it a transaction
	// that merely sat descheduled behind many unrelated commits would carry
	// a stale ValidTS into the engine and risk a spurious window abort. A
	// grown MissSet is not an abort here: the engine may still serialize the
	// transaction before the writers that invalidated it.
	if !x.extend(r.globalTS.Load()) {
		return x.abort(tm.CodeWindow)
	}
	var dExtend, dAwait, dPublish time.Duration
	if measure {
		dExtend = time.Since(pStart)
	}
	// The write signature — arm, publish and awaitWriters read it — is
	// built before the ordered section, which every committer waits for,
	// so the section holds only the ordered work.
	x.writes.sign(r.hasher)
	if measure {
		pStart = time.Now()
	}

	r.order.Lock()
	if measure {
		dAwait = time.Since(pStart)
	}
	seq, err := r.claim(x)
	if err != nil {
		r.order.Unlock()
		x.finish(ending(err))
		return err
	}
	if measure {
		pStart = time.Now()
	}
	r.arm(x.thread, seq, x.writes.sig)
	r.publish(seq, &publication{validTS: x.validTS, ws: x.writes.sig,
		reads: x.reads.addrs, writes: x.writes.addrs, vals: x.vals})
	r.order.Unlock()
	if measure {
		dPublish = time.Since(pStart)
		pStart = time.Now()
	}

	// Out-of-order write-back phase: the update-set entry keeps the write
	// set locked while the redo log drains concurrently with other
	// committers' write-backs (WAW pairs excepted — pipeline.go).
	r.writeBack(x, seq)
	r.disarm(x.thread)
	if measure {
		r.cnt.AddCommitPhases(dExtend, dAwait, dPublish, time.Since(pStart))
	}

	x.finish(committed)
	if r.dur != nil && r.dur.d.SyncCommit {
		// Group-commit wait, outside the ordered section so committers
		// overlap on one fsync. A failure here does NOT undo the commit —
		// it is published and visible — it only means durability could not
		// be confirmed; callers must not retry the transaction.
		if err := r.dur.d.Log.WaitDurable(seq + 1); err != nil {
			return fmt.Errorf("%w: %v", ErrNotDurable, err)
		}
	}
	return nil
}

// Abort implements tm.TM: execution is fully buffered, so rollback drops
// the private logs.
func (r *TM) Abort(t tm.Txn) {
	x := t.(*txn)
	if _, st := x.r.Poll(x.thread, x.attempt); st != Over {
		x.finish(tm.CodeExplicit)
	}
}

var (
	_ tm.TM               = (*TM)(nil)
	_ tm.Escalator        = (*TM)(nil)
	_ tm.ReadOnlyBeginner = (*TM)(nil)
)
