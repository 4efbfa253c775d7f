// Package tm defines the transactional-memory API shared by every runtime
// in this repository (TinySTM-like LSA, the TSX-like HTM model, the
// sequential baseline, and ROCoCoTM) and the retry loop applications use.
//
// The programming model mirrors the paper's: applications mark atomic
// blocks and perform word-granular transactional loads and stores inside
// them; the runtime is free to abort and re-execute a block at any point,
// which it signals by returning a conflict error from Read/Write/Commit.
// Application code must propagate those errors outward (the Run helper then
// retries); swallowing them would break opacity.
package tm

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"time"

	"rococotm/internal/mem"
)

// Conflict reasons, carried by AbortError.
const (
	ReasonConflict = "conflict"   // R/W conflict with a concurrent transaction
	ReasonCycle    = "cycle"      // ROCoCo validation found a dependency cycle
	ReasonWindow   = "window"     // sliding-window overflow (§4.2)
	ReasonCapacity = "capacity"   // HTM cache-capacity overflow
	ReasonSpurious = "spurious"   // HTM micro-architectural abort
	ReasonFallback = "fallback"   // HTM aborted because the fallback lock was taken
	ReasonEngine   = "engine"     // validation engine unavailable (closed)
	ReasonWatchdog = "watchdog"   // runtime watchdog force-aborted a stuck transaction
	ReasonExplicit = "user-abort" // application requested abort
)

// AbortError signals that the enclosing transaction must be rolled back.
// Runtimes return it from Read/Write/Commit; Run retries the transaction.
type AbortError struct {
	Reason string
	Code   Code
}

// Error implements error.
func (e *AbortError) Error() string { return "tm: aborted (" + e.Reason + ")" }

// IsAbort reports whether err is (or wraps) a transactional abort, and
// returns the reason.
func IsAbort(err error) (string, bool) {
	if c, ok := CodeOf(err); ok {
		return c.Reason(), true
	}
	return "", false
}

// Txn is one transactional execution attempt. A Txn is used by a single
// goroutine. After any method returns an AbortError the transaction is
// dead: the only valid next step is to stop using it (Run handles this).
type Txn interface {
	// Read returns the word at a as of the transaction's snapshot.
	Read(a mem.Addr) (mem.Word, error)
	// Write buffers (or, in eager runtimes, performs) a word store.
	Write(a mem.Addr, v mem.Word) error
}

// TM is a transactional-memory runtime bound to a heap.
type TM interface {
	// Name identifies the runtime in experiment output.
	Name() string
	// Heap returns the shared heap this runtime manages.
	Heap() *mem.Heap
	// Begin starts a transaction attempt on the calling goroutine.
	// thread identifies the executing thread (0 ≤ thread < configured
	// maximum); runtimes use it for per-thread metadata.
	Begin(thread int) (Txn, error)
	// Commit attempts to commit the transaction. On AbortError the
	// transaction has been rolled back.
	Commit(t Txn) error
	// Abort rolls back an attempt (used for explicit aborts and when the
	// application function fails with a non-transactional error).
	Abort(t Txn)
	// Stats returns cumulative counters.
	Stats() Stats
	// Close releases background resources (e.g. the FPGA pipeline).
	Close()
}

// Snapshot is a consistent read-only view of committed state at a fixed
// commit height. Reads are infallible: a snapshot observes a prefix of the
// commit order and nothing a later commit writes, so there is nothing to
// validate and nothing to abort.
type Snapshot interface {
	// Read returns the word at a as of the snapshot's height.
	Read(a mem.Addr) mem.Word
}

// Snapshotter is implemented by runtimes that can serve read-only
// transactions from a pinned multi-version snapshot (ROCoCoTM with a
// durable store configured). Every retrieved snapshot must be released, or
// the runtime's version compaction stalls at its height.
type Snapshotter interface {
	// RetrieveSnapshot pins the current commit height and returns a
	// snapshot reading at it. An error means the runtime cannot serve
	// snapshots (not configured); callers fall back to a transaction.
	RetrieveSnapshot() (Snapshot, error)
	// ReleaseSnapshot unpins a snapshot returned by RetrieveSnapshot.
	ReleaseSnapshot(Snapshot)
}

// ErrReadOnlyWrite is returned by the Txn handed to RunReadOnly when the
// closure attempts a Write — a programming error, not a transactional
// abort, so the run fails instead of retrying.
var ErrReadOnlyWrite = errors.New("tm: write inside a read-only transaction")

// ReadOnlyBeginner is implemented by runtimes with a native read-only
// attempt (ROCoCoTM: Algorithm 1's read path with nothing kept for a
// commit it will never validate). BeginReadOnly is Begin for an attempt
// whose Write returns ErrReadOnlyWrite; escalation and lifecycle are
// Begin's.
type ReadOnlyBeginner interface {
	BeginReadOnly(thread int) (Txn, error)
}

// RunReadOnly executes fn as a read-only transaction. On runtimes that
// implement Snapshotter, fn runs against a pinned snapshot: its reads can
// never conflict, never spin on in-flight committers, and never abort, and
// the execution never enters the validation engine — it returns exactly
// fn's error, with no retry loop at all. Otherwise fn runs in the retry
// loop as an ordinary transaction whose empty write set commits on the
// CPU fast path: begun by BeginReadOnly on a ReadOnlyBeginner, by Begin
// (through one shared site on a SiteRunner) elsewhere. Either way, a
// Write inside fn fails the run with ErrReadOnlyWrite.
//
// Cost beyond fn's reads and the runtime's own work: nothing on a
// ReadOnlyBeginner; elsewhere one allocation, the write-rejecting Txn
// handed to fn. There is no stack walk. On a SiteRunner every fallback
// routes through one shared site, the entry PC of RunReadOnly;
// applications that want read-only work routed per call site use RunSite.
func RunReadOnly(m TM, thread int, fn func(Txn) error) error {
	if sp, ok := m.(Snapshotter); ok {
		if s, err := sp.RetrieveSnapshot(); err == nil {
			defer sp.ReleaseSnapshot(s)
			x := snapTxn{s: s}
			return fn(&x)
		}
	}
	if rb, ok := m.(ReadOnlyBeginner); ok {
		return runLoop(bound{}, m, thread, siteID{}, rb, DefaultBackoff, fn)
	}
	return runLoop(bound{}, m, thread, siteID{id: roSite, ok: true}, nil, DefaultBackoff, func(t Txn) error {
		return fn(roTxn{t})
	})
}

// roSite is the site every RunReadOnly fallback routes through: the entry
// PC of RunReadOnly. A function's entry is never a return address, so it
// cannot collide with a caller-PC site from autoSite. It is set in init:
// a package-level initialiser that mentions RunReadOnly would be an
// initialisation cycle.
var roSite uint64

func init() { roSite = uint64(reflect.ValueOf(RunReadOnly).Pointer()) }

// snapTxn adapts a Snapshot to the Txn interface for RunReadOnly closures.
type snapTxn struct{ s Snapshot }

// Read delegates to the snapshot; it cannot fail.
//
//tm:hotpath
func (x *snapTxn) Read(a mem.Addr) (mem.Word, error) { return x.s.Read(a), nil }

// Write always fails: the transaction is read-only.
func (x *snapTxn) Write(mem.Addr, mem.Word) error { return ErrReadOnlyWrite }

// roTxn is the write-rejecting wrapper RunReadOnly hands fn on runtimes
// with neither snapshots nor BeginReadOnly, keeping its semantics
// identical there.
type roTxn struct{ t Txn }

func (x roTxn) Read(a mem.Addr) (mem.Word, error) { return x.t.Read(a) }
func (x roTxn) Write(mem.Addr, mem.Word) error    { return ErrReadOnlyWrite }

// Stats are cumulative runtime counters, collected with atomics.
type Stats struct {
	Starts   uint64 // transaction attempts begun
	Commits  uint64 // attempts committed
	Aborts   uint64 // attempts aborted, any reason
	Reasons  map[string]uint64
	ReadOnly uint64 // commits that skipped validation (empty write set)
	// ValidationNanos accumulates time spent in commit-time validation —
	// the quantity Figure 11 reports per transaction.
	ValidationNanos uint64
	// ModelValidationNanos accumulates the *modeled* hardware validation
	// latency (pipeline cycles + CCI round trip) where a runtime offloads
	// validation; zero for pure-software runtimes.
	ModelValidationNanos uint64
	// WatchdogFires counts transactions the runtime watchdog observed
	// stuck past the configured age; WatchdogKills (Reasons["watchdog"])
	// counts how many of those were force-aborted at their next safe
	// point. Zero for runtimes without a watchdog.
	WatchdogFires uint64
	WatchdogKills uint64
	// CommitPhase* break a write commit's wall-clock into the runtime's
	// pipeline phases (validation itself is ValidationNanos): final
	// snapshot extension, the wait for the commit turn, ordered
	// publication (signature + timestamp release), and the redo-log
	// write-back. Populated only when the runtime measures phases; zero
	// otherwise.
	CommitExtendNanos    uint64
	CommitAwaitNanos     uint64
	CommitPublishNanos   uint64
	CommitWritebackNanos uint64
	// CommitPipelinePeak is the high-water count of commits simultaneously
	// inside the write-back phase — >1 only when the runtime decouples
	// write-back from timestamp release. Zero for runtimes without that
	// pipeline.
	CommitPipelinePeak uint64
	// Per-path routing counters, populated by hybrid runtimes. A fast
	// attempt ends as exactly one FastCommit or FastAbort; SlowFallbacks
	// counts the fast aborts whose *next* attempt was routed to the slow
	// path (a routing demotion, not a new outcome class); Probations
	// counts slow→probe transitions where a demoted site re-tried the fast
	// path. The accounting identity Starts == Commits + Aborts holds per
	// path: FastCommits + FastAborts is the number of fast attempts, and
	// Commits - FastCommits the number of slow commits.
	FastCommits   uint64
	FastAborts    uint64
	SlowFallbacks uint64
	Probations    uint64
}

// AbortRate returns Aborts / Starts.
func (s Stats) AbortRate() float64 {
	if s.Starts == 0 {
		return 0
	}
	return float64(s.Aborts) / float64(s.Starts)
}

// Counters is the embeddable atomic implementation of Stats that runtimes
// share.
type Counters struct {
	starts, commits, aborts, readOnly, valNanos atomic.Uint64
	modelValNanos                               atomic.Uint64
	reasons                                     [numCodes]atomic.Uint64
	extendNanos, awaitNanos                     atomic.Uint64
	publishNanos, writebackNanos                atomic.Uint64
	fastCommits, fastAborts                     atomic.Uint64
	slowFallbacks, probations                   atomic.Uint64
}

// OnStart records a transaction attempt.
func (c *Counters) OnStart() { c.starts.Add(1) }

// OnCommit records a successful commit; readOnly marks the fast path.
func (c *Counters) OnCommit(readOnly bool) {
	c.commits.Add(1)
	if readOnly {
		c.readOnly.Add(1)
	}
}

// OnAbort records an abort with its code.
func (c *Counters) OnAbort(code Code) {
	if code >= numCodes {
		code = CodeExplicit
	}
	c.aborts.Add(1)
	c.reasons[code].Add(1)
}

// OnFastCommit records that a committed attempt ran on the uninstrumented
// fast path (called alongside OnCommit, which still counts the commit).
//
//tm:hotpath
func (c *Counters) OnFastCommit() { c.fastCommits.Add(1) }

// OnFastAbort records that an aborted attempt ran on the fast path
// (called alongside OnAbort, which still counts the abort and its reason).
//
//tm:hotpath
func (c *Counters) OnFastAbort() { c.fastAborts.Add(1) }

// OnSlowFallback records a routing demotion: the attempt after a fast
// abort was sent to the slow path.
func (c *Counters) OnSlowFallback() { c.slowFallbacks.Add(1) }

// OnProbation records a slow→probe transition: a demoted site was granted
// a probing fast attempt.
func (c *Counters) OnProbation() { c.probations.Add(1) }

// AddValidation accumulates commit-time validation latency.
func (c *Counters) AddValidation(d time.Duration) {
	if d > 0 {
		c.valNanos.Add(uint64(d))
	}
}

// AddModelValidation accumulates modeled hardware validation latency.
func (c *Counters) AddModelValidation(nanos uint64) {
	c.modelValNanos.Add(nanos)
}

// AddCommitPhases accumulates one write commit's per-phase latencies.
func (c *Counters) AddCommitPhases(extend, await, publish, writeback time.Duration) {
	if extend > 0 {
		c.extendNanos.Add(uint64(extend))
	}
	if await > 0 {
		c.awaitNanos.Add(uint64(await))
	}
	if publish > 0 {
		c.publishNanos.Add(uint64(publish))
	}
	if writeback > 0 {
		c.writebackNanos.Add(uint64(writeback))
	}
}

// Snapshot materializes the counters as Stats.
func (c *Counters) Snapshot() Stats {
	reasons := make(map[string]uint64, numCodes)
	for code := range c.reasons {
		reasons[Code(code).Reason()] = c.reasons[code].Load()
	}
	return Stats{
		Starts:               c.starts.Load(),
		Commits:              c.commits.Load(),
		Aborts:               c.aborts.Load(),
		ReadOnly:             c.readOnly.Load(),
		Reasons:              reasons,
		WatchdogKills:        reasons[ReasonWatchdog],
		ValidationNanos:      c.valNanos.Load(),
		ModelValidationNanos: c.modelValNanos.Load(),
		CommitExtendNanos:    c.extendNanos.Load(),
		CommitAwaitNanos:     c.awaitNanos.Load(),
		CommitPublishNanos:   c.publishNanos.Load(),
		CommitWritebackNanos: c.writebackNanos.Load(),
		FastCommits:          c.fastCommits.Load(),
		FastAborts:           c.fastAborts.Load(),
		SlowFallbacks:        c.slowFallbacks.Load(),
		Probations:           c.probations.Load(),
	}
}

// BackoffPolicy shapes the contention management of the Run retry loop:
// when to escalate a starved transaction. Between attempts the loop waits
// a bounded exponential with full jitter (the retry wave after a conflict
// or an engine outage must decorrelate, or every loser retries in lockstep
// and collides again), shaped by the abort reason:
//
//   - soft (conflict, cycle, HTM capacity/spurious/fallback): the conflict
//     partner is another transaction that finishes in microseconds, so the
//     loop yields the processor and spins a random amount up to
//     spinBase<<k, at most spinCap;
//   - hard (window, engine): the transaction fell behind the sliding
//     window or the validation engine is unavailable — retrying
//     immediately hits the same wall, so the loop sleeps a random duration
//     up to sleepBase<<k, at most sleepCap, giving the engine time to
//     come back.
type BackoffPolicy struct {
	// EscalateAfter is the starvation budget: after this many contention
	// aborts of one logical transaction the retry loop asks the runtime
	// (if it implements Escalator) for a prioritized pessimistic turn, so
	// an abort storm cannot livelock a thread forever. Engine and watchdog
	// aborts do not count: they say nothing about contention, and an
	// irrevocable turn taken during an engine outage would freeze every
	// committer while itself waiting the outage out. Default 512;
	// negative disables escalation.
	EscalateAfter int
}

// Backoff waits: the soft spin quantum and its cap, the first hard sleep
// and its cap. sleepCap is the scale of an engine crash/recover cycle, so
// a retrying writer re-probes a few times per outage instead of thousands.
const (
	spinBase  = 32
	spinCap   = 4096
	sleepBase = 20 * time.Microsecond
	sleepCap  = 2 * time.Millisecond
)

// DefaultBackoff is the policy Run uses.
var DefaultBackoff = BackoffPolicy{}

func (p *BackoffPolicy) fill() {
	if p.EscalateAfter == 0 {
		p.EscalateAfter = 512
	}
}

// Escalator is implemented by runtimes that offer starved transactions a
// prioritized pessimistic turn (e.g. ROCoCoTM runs the next attempt of an
// escalated thread irrevocably, under the global gate). The retry loop
// calls Escalate after BackoffPolicy.EscalateAfter contention aborts;
// the effect applies to that thread's next Begin only.
type Escalator interface {
	Escalate(thread int)
}

// rng is a per-retry-loop xorshift64* generator for backoff jitter. The
// global math/rand source funnels every backing-off thread through one
// locked state word — exactly the cross-thread coupling a contention
// manager must not reintroduce — so each Run loop carries its own. A loop
// starts it at zero and wait seeds it at the first abort, so a transaction
// that commits first time touches no shared word here.
type rng uint64

// rngSeq spaces seeds; splitmix64's increment guarantees well-mixed,
// distinct streams per loop without coordination.
var rngSeq atomic.Uint64

func newRNG() rng {
	z := rngSeq.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	return rng(z)
}

// next returns a uniform uint64 (xorshift64*, never zero state).
func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rng(x)
	return x * 0x2545f4914f6cdd1d
}

// int63n returns a uniform int64 in [0, n); the modulo bias is far below
// what jittered backoff can observe.
func (r *rng) int63n(n int64) int64 { return int64(r.next() % uint64(n)) }

// wait blocks between attempt k (1-based count of consecutive aborts) and
// the next try, drawing jitter from the loop-local generator. It seeds a
// zero generator before either branch: a zero xorshift state stays zero,
// and every jitter drawn from it would be 0.
func wait(rg *rng, code Code, attempt int) {
	if *rg == 0 {
		*rg = newRNG()
	}
	if code.Hard() {
		d := sleepBase << uint(min(attempt-1, 16))
		if d > sleepCap || d <= 0 {
			d = sleepCap
		}
		// Full jitter over (0, d]: decorrelate the retry wave.
		time.Sleep(time.Duration(1 + rg.int63n(int64(d))))
		return
	}
	if attempt == 1 {
		return // first conflict retry is immediate: the winner is gone
	}
	for y := 0; y < attempt && y < 8; y++ {
		runtime.Gosched()
	}
	n := spinBase << uint(min(attempt, 12))
	if n > spinCap || n <= 0 {
		n = spinCap
	}
	spin(int(rg.int63n(int64(n))))
}

// Run executes fn as a transaction on the given thread, retrying until it
// commits or fn fails with a non-transactional error. It implements the
// STAMP-style retry loop with DefaultBackoff contention management.
//
// Run is panic-safe: if fn panics (or exits via runtime.Goexit), the
// in-flight attempt is rolled back through TM.Abort — redo log discarded,
// txn/scratch/sub-signature recycled, any engine slot released — before
// the panic continues unwinding.
//
// Cost beyond fn and the runtime's Begin/Commit: nothing on a runtime
// without SiteRunner; on one with it, a one-frame stack read for the
// caller's PC (autoSite), which allocates nothing.
func Run(m TM, thread int, fn func(Txn) error) error {
	return runLoop(bound{}, m, thread, autoSite(m, 2), nil, DefaultBackoff, fn)
}

// RunBackoff is Run with an explicit backoff policy.
func RunBackoff(m TM, thread int, pol BackoffPolicy, fn func(Txn) error) error {
	return runLoop(bound{}, m, thread, autoSite(m, 2), nil, pol, fn)
}

// RunCtx is Run with cancellation: the context's deadline/cancel is
// observed at every transactional boundary — before each attempt begins,
// at each Read and Write inside fn, before validation (pre-commit), and
// after an aborted attempt before the retry. On cancellation the in-flight
// attempt is rolled back and ctx.Err() is returned; a committed attempt is
// never undone (cancellation between the commit point and return is
// reported as success, matching context convention: commit wins the race).
func RunCtx(ctx context.Context, m TM, thread int, fn func(Txn) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	return runLoop(bound{ctx: ctx}, m, thread, autoSite(m, 2), nil, DefaultBackoff, fn)
}

// RunUntil is Run with a deadline and an explicit backoff policy. The
// deadline is observed at the attempt boundaries only — before each
// attempt begins, after fn returns but before validation, and after a lost
// validation — never inside fn, so it costs two clock reads per attempt
// and no timer. Past the deadline the in-flight attempt is rolled back and
// context.DeadlineExceeded is returned; as with RunCtx, a committed
// attempt is never undone.
func RunUntil(dead time.Time, m TM, thread int, pol BackoffPolicy, fn func(Txn) error) error {
	return runLoop(bound{dead: dead}, m, thread, autoSite(m, 2), nil, pol, fn)
}

// bound is what ends a retry loop early: a context (RunCtx, observed at
// every boundary, Read and Write included) or a deadline (RunUntil,
// observed at attempt boundaries). The zero bound never ends it.
type bound struct {
	ctx  context.Context
	dead time.Time
}

// err returns the error that ends the loop now, or nil.
func (b *bound) err() error {
	if b.ctx != nil {
		return b.ctx.Err()
	}
	// time.Until reads only the monotonic clock; time.Now would read the
	// wall clock too.
	if !b.dead.IsZero() && time.Until(b.dead) <= 0 {
		return context.DeadlineExceeded
	}
	return nil
}

// runLoop is the shared retry loop behind Run, RunCtx, RunUntil and
// RunReadOnly. The zero bound means no cancellation (plain Run): the hot
// path then carries no cancellation checks. A non-nil ro begins every
// attempt of this loop read-only through it (m's own BeginReadOnly);
// otherwise site routes every attempt through SiteRunner.BeginSite when
// both the site and the runtime support it, so per-site statistics see the
// whole retry history of one logical transaction.
func runLoop(b bound, m TM, thread int, site siteID, ro ReadOnlyBeginner, pol BackoffPolicy, fn func(Txn) error) error {
	pol.fill()
	attempt := 0   // drives the backoff exponent
	contended := 0 // drives escalation: attempt less engine and watchdog aborts
	var rg rng     // seeded by wait at the first abort
	esc, canEscalate := m.(Escalator)
	sr, canSite := m.(SiteRunner)
	useSite := site.ok && canSite
	bounded := b.ctx != nil || !b.dead.IsZero()
	var wrapper *ctxTxn
	if b.ctx != nil {
		wrapper = &ctxTxn{ctx: b.ctx, done: b.ctx.Done()}
	}
	for {
		if bounded {
			if err := b.err(); err != nil {
				return err
			}
		}
		if canEscalate && pol.EscalateAfter > 0 && contended >= pol.EscalateAfter {
			esc.Escalate(thread)
		}
		var t Txn
		var err error
		switch {
		case ro != nil:
			t, err = ro.BeginReadOnly(thread)
		case useSite:
			t, err = sr.BeginSite(thread, site.id)
		default:
			t, err = m.Begin(thread)
		}
		if err != nil {
			return fmt.Errorf("tm: begin: %w", err)
		}
		arg := t
		if wrapper != nil {
			wrapper.t = t
			arg = wrapper
		}
		err = protect(m, t, fn, arg)
		if err == nil {
			if bounded {
				// Pre-validate boundary: the write set is complete but
				// nothing is published; cancelling here rolls back.
				if cerr := b.err(); cerr != nil {
					m.Abort(t)
					return cerr
				}
			}
			err = m.Commit(t)
			if err == nil {
				return nil
			}
		}
		code, ok := CodeOf(err)
		if !ok {
			// Application failure (including a cancellation error surfaced
			// by a ctxTxn boundary): roll back and propagate.
			m.Abort(t)
			return err
		}
		// Transactional abort: the runtime already rolled back.
		if bounded {
			// Post-verdict boundary: the attempt lost validation and is
			// gone; honor cancellation instead of retrying.
			if cerr := b.err(); cerr != nil {
				return cerr
			}
		}
		// Back off by reason class before retrying.
		attempt++
		if code != CodeEngine && code != CodeWatchdog {
			contended++
		}
		wait(&rg, code, attempt)
	}
}

// protect invokes fn(arg) and guarantees the runtime transaction t is
// rolled back if fn never returns — a panic or runtime.Goexit unwinding
// through the closure. The abort runs first (discarding the redo log,
// recycling the txn and its scratch/sub-signature state, releasing any
// in-flight engine slot), then the panic resumes naturally; Goexit is
// likewise not swallowed.
func protect(m TM, t Txn, fn func(Txn) error, arg Txn) (err error) {
	completed := false
	defer func() {
		if !completed {
			m.Abort(t)
		}
	}()
	err = fn(arg)
	completed = true
	return err
}

// ctxTxn decorates a runtime Txn with cancellation checks at the read and
// write boundaries. One wrapper per RunCtx loop, reused across attempts.
type ctxTxn struct {
	t    Txn
	ctx  context.Context
	done <-chan struct{}
}

// Read observes cancellation, then delegates.
func (c *ctxTxn) Read(a mem.Addr) (mem.Word, error) {
	select {
	case <-c.done:
		return 0, c.ctx.Err()
	default:
	}
	return c.t.Read(a)
}

// Write observes cancellation, then delegates.
func (c *ctxTxn) Write(a mem.Addr, v mem.Word) error {
	select {
	case <-c.done:
		return c.ctx.Err()
	default:
	}
	return c.t.Write(a, v)
}

// spin burns a few cycles without yielding the scheduler entirely.
func spin(n int) {
	for i := 0; i < n; i++ {
		_ = atomic.LoadUint64(&spinSink)
	}
}

var spinSink uint64

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
