// Package fpga is a software model of the paper's FPGA validation engine
// (§4.2, §5.1): the Detector/Manager pipeline that ROCoCoTM reaches through
// asynchronous pull/push queues over the HARP2 CCI link.
//
// The model executes the same dataflow as the RTL, stage by stage:
//
//   - the pull queue delivers a validation request — the transaction's
//     read/write addresses (shipped as addresses, not signatures, so the
//     detector can use exact membership queries and keep false positives
//     down, §5.3) plus its validated snapshot timestamp;
//   - the Detector holds the bookkeeping h₀..h_{W-1} of the last W
//     committed transactions — a read signature, a write signature and the
//     commit sequence each — and computes the transaction's forward and
//     backward dependency vectors f and b against it;
//   - the Manager holds the W×W reachability matrix in 2-D registers and
//     runs the ROCoCo validation (p = f ∨ Rᵀf, s = b ∨ Rb, abort iff
//     p∧s ≠ 0), then commits the transaction into the window;
//   - the push queue returns the verdict.
//
// Verdicts are issued strictly in commit order, one Pipeline.Process at a
// time under Engine.mu, which is the software equivalent of the hardware's
// one-commit-broadcast-per-cycle atomicity. A latency/occupancy model (see
// model.go) accounts the cycles a real 200 MHz pipeline and the ~600 ns CCI
// round trip would cost, so the timing harness can charge them without the
// host actually sleeping.
//
// # Who runs the pipeline: the committer
//
// The paper hides the CCI round trip behind asynchronous queues because its
// validator is a separate device. Here the validator is a function, and a
// hand-off to a helper goroutine costs more than the validation, so the
// committer runs it. A lone committer — the ring empty and Engine.mu free —
// runs Process in place and touches no queue or mailbox. Otherwise
// Engine.Validate pushes the request into the submission ring (ring.go),
// then TryLocks Engine.mu. Whoever holds the lock drains the ring — at most
// queueDepth requests per acquisition, one Stats.Batches tick per drain —
// and posts every verdict to its owner's VerdictSlot (slot.go); losers poll
// their own slot, yield, and park only behind the no-stranding handshake
// documented on combine. The package starts no goroutine, and
// nothing on the path allocates in steady state. Batching is what
// concurrency leaves in the ring, not queueing delay: a direct call counts
// as a batch of one. The modelled clock (Verdict.ModelNanos plus
// RoundTripNanos) is charged as if the request had crossed the link.
//
// # Failure semantics
//
// Close stops the engine: every request already accepted into the ring
// receives a terminal ReasonClosed verdict before Close returns — none is
// silently stranded — and later calls fail with ErrClosed. Restart brings
// the engine back with an *empty* window rebased at a caller-supplied
// sequence (window state does not survive; the host supplies its commit
// count so verdicts re-align with the global commit order). Transactions
// whose snapshots predate the rebased window abort with a window verdict,
// which keeps serializability across the gap.
package fpga

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rococotm/internal/core"
	"rococotm/internal/sig"
)

// Verdict reasons. An engine verdict carries exactly one of these when
// !OK; ReasonClosed additionally marks the terminal verdicts delivered to
// requests stranded by Close.
const (
	ReasonCycle  = "cycle"  // ROCoCo validation found a dependency cycle
	ReasonWindow = "window" // snapshot predates the tracked window (§4.2)
	ReasonClosed = "closed" // engine stopped before validating the request
)

// ErrClosed reports that the engine is not running.
var ErrClosed = errors.New("fpga: engine closed")

// MaxW is the largest supported sliding-window capacity: the hardware
// deployment's 64, one machine word per matrix row.
const MaxW = 64

// queueDepth is the pull-queue buffering: one slot per entry of the largest
// window, like the hardware, so a full window of validations can be
// outstanding.
const queueDepth = MaxW

// Config parameterizes the engine.
type Config struct {
	// W is the sliding-window capacity; 1..MaxW. Default core.DefaultW = 64.
	W int
	// Sig is the signature geometry; default sig.Default512.
	Sig sig.Config
}

func (c *Config) fill() {
	if c.W == 0 {
		c.W = core.DefaultW
	}
	if c.Sig == (sig.Config{}) {
		c.Sig = sig.Default512
	}
}

// Validate rejects configurations that would misbehave at runtime with a
// descriptive error. Zero fields are legal (they select defaults).
func (c Config) Validate() error {
	if c.W < 0 || c.W > MaxW {
		return fmt.Errorf("fpga: window size W=%d out of range [1,%d] (0 selects the default %d)", c.W, MaxW, core.DefaultW)
	}
	return nil
}

// Request asks the engine to validate one read-write transaction.
type Request struct {
	// Token is echoed in the verdict (callers use it to sanity-check
	// pairing; the engine is agnostic to its meaning).
	Token uint64
	// ValidTS is the transaction's validated snapshot: commits with
	// sequence < ValidTS were visible to its reads.
	ValidTS uint64
	// ReadAddrs and WriteAddrs are the transaction's footprint. The engine
	// only reads them and releases its references once the verdict is
	// delivered, which is before Validate returns.
	ReadAddrs  []uint64
	WriteAddrs []uint64
	// Slot, when non-nil, is the caller's own verdict mailbox, passed
	// unarmed. Validate arms it with Prepare, storing the generation in
	// Gen, only when the request is queued; the direct path never touches
	// it. A queued request without one borrows a pooled slot. Whoever
	// posts a queued request's verdict delivers it to Slot at Gen.
	Slot *VerdictSlot
	Gen  uint64
	// Reply receives exactly one verdict when Slot is nil — how the
	// standalone cycle-level model (rtl.go) answers. Must have capacity
	// ≥ 1. Validate ignores it.
	Reply chan Verdict
}

// Deliver routes v to the request's verdict sink — the armed slot
// generation when Slot is set, the buffered Reply channel otherwise. It
// reports whether the sink accepted the verdict; false means the verdict
// is a duplicate (the waiter already got one) and has been dropped, which
// is the transport's at-most-once contract.
func (r *Request) Deliver(v Verdict) bool {
	if r.Slot != nil {
		return r.Slot.publish(r.Gen, v)
	}
	if r.Reply != nil {
		select {
		case r.Reply <- v:
			return true
		default:
		}
	}
	return false
}

// Verdict is the engine's decision for one request.
type Verdict struct {
	Token uint64
	// OK means the transaction may commit as sequence Seq.
	OK  bool
	Seq core.Seq
	// Reason is ReasonCycle, ReasonWindow or ReasonClosed when !OK.
	Reason string
	// ModelNanos is the modeled FPGA residency of this request (pipeline
	// cycles at the configured clock), excluding the CCI round trip.
	ModelNanos uint64
}

// Stats summarizes engine activity.
type Stats struct {
	Requests     uint64
	Commits      uint64
	CycleAborts  uint64
	WindowAborts uint64
	// Probes counted health-check requests. The engine has none, so it
	// stays 0; the field is kept for the readers of this struct.
	Probes uint64
	// ModelCycles is the total modeled pipeline occupancy.
	ModelCycles uint64
	// Restarts counts Restart calls (Engine only; a Restart resets the
	// window but keeps cumulative counters).
	Restarts uint64
	// Batches counts drain groups (one per combiner lock acquisition that
	// validated anything); Requests over Batches is the mean batch
	// occupancy. MaxBatch is the largest single group.
	Batches  uint64
	MaxBatch uint64
	// QueuePeak is the high-water submission-queue occupancy observed at
	// drain time (batch taken plus what was still queued behind it) — the
	// host-side view of pipeline pressure.
	QueuePeak uint64
}

// port is one incarnation of the engine's submission ring. Close stops it;
// Restart installs a fresh one, so a request accepted by a stopped
// incarnation is never validated against the next one's window.
type port struct {
	ring    *ring
	stopped atomic.Bool
}

func newPort(depth int) *port { return &port{ring: newRing(depth)} }

// Engine is the running validation pipeline. Create with Start, stop with
// Close, bring back with Restart.
type Engine struct {
	cfg    Config
	hasher *sig.Hasher
	port   atomic.Pointer[port]
	// depth is queueDepth: the ring capacity and the most requests one
	// drain answers. A test seam (export_test.go) shrinks it.
	depth int

	life sync.Mutex // serializes Close/Restart transitions

	mu       sync.Mutex // guards pl (and serializes direct Process calls)
	pl       *Pipeline
	restarts uint64
}

// Start builds the engine. It fails if the configuration is invalid (see
// Config.Validate).
func Start(cfg Config) (*Engine, error) {
	pl, err := NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:    pl.Config(),
		hasher: pl.Hasher(),
		depth:  queueDepth,
		pl:     pl,
	}
	e.port.Store(newPort(e.depth))
	return e, nil
}

// Config returns the engine's (filled) configuration.
func (e *Engine) Config() Config { return e.cfg }

// Hasher returns the signature hasher, which the CPU side shares so both
// sides compute identical signatures.
func (e *Engine) Hasher() *sig.Hasher { return e.hasher }

// enqueue pushes r onto the port's ring, yielding while the ring is full.
// The pushing committers themselves consume the ring, so the wait is
// bounded. A push that lands after Close's final sweep is swept here, so
// the request still receives its terminal verdict; sinks reject duplicate
// deliveries and the ring dequeue is CAS-based, so concurrent sweeps are
// safe.
func (e *Engine) enqueue(p *port, r Request) error {
	for {
		if p.stopped.Load() {
			return ErrClosed
		}
		if p.ring.tryPush(r) {
			if p.stopped.Load() {
				sweep(p)
			}
			return nil
		}
		runtime.Gosched()
	}
}

// sweep drains whatever sits in a stopped port's queue, answering each
// request with a terminal closed verdict.
func sweep(p *port) {
	for {
		r, ok := p.ring.tryPop()
		if !ok {
			return
		}
		r.Deliver(Verdict{Token: r.Token, Reason: ReasonClosed})
	}
}

// Validate answers one request synchronously. A caller that finds the
// ring empty and the pipeline lock free runs Process in place: no slot is
// armed, nothing is queued, and unlock keeps the no-stranding rule for
// anyone who queued meanwhile. Otherwise it is a flat-combining validator:
// the caller enqueues its request, then competes for the pipeline lock;
// whoever holds the lock validates everything queued and posts each verdict
// to its owner's slot, so no goroutine switch sits between a committer and
// its verdict.
//
// A queued request without a slot borrows a pooled one, so the call is
// allocation-free in steady state. If the engine stops before answering,
// the request's terminal ReasonClosed verdict is returned; ErrClosed is
// returned only when the request was never accepted.
func (e *Engine) Validate(r Request) (Verdict, error) {
	p := e.port.Load()
	if p.ring.size() == 0 && e.mu.TryLock() {
		if p.stopped.Load() {
			e.unlock()
			return Verdict{}, ErrClosed
		}
		v := e.pl.Process(r)
		e.pl.noteBatch(1, 1)
		e.unlock()
		return v, nil
	}
	var pooled *VerdictSlot
	if r.Slot == nil {
		pooled = slotPool.Get().(*VerdictSlot)
		r.Slot = pooled
	}
	r.Gen = r.Slot.Prepare()
	var v Verdict
	err := e.enqueue(p, r)
	if err == nil {
		v = e.combine(p, r.Slot, r.Gen)
	}
	if pooled != nil {
		slotPool.Put(pooled)
	}
	return v, err
}

// combine waits for generation gen's verdict on s, running the pipeline
// itself whenever the lock is free. The caller has already enqueued its
// request on p.
//
// No request is stranded. A waiter that loses TryLock observed a holder;
// every holder re-checks the ring after unlocking (unlock), and the
// waiter's push precedes its failed TryLock, so that re-check sees the
// request. A waiter that wins the lock and finds the ring empty has had its
// request popped by a sweep that has not delivered yet — Close and a
// committer racing it pop without the lock — and must give that sweeper the
// processor rather than spin on the free lock. Either way a waiter parks
// only after raising s.parked and coming up empty once more: whoever holds
// its request publishes the verdict and — the slot's Dekker handshake —
// either the waiter's TryTake sees it or the publisher sees parked and
// wakes the waiter.
//
//tm:hotpath
func (e *Engine) combine(p *port, s *VerdictSlot, gen uint64) Verdict {
	for spin := 0; ; spin++ {
		if v, ok := s.TryTake(gen); ok {
			return v
		}
		park := spin >= slotSpin
		if park {
			s.parked.Store(1)
		}
		idle := true
		if e.mu.TryLock() {
			idle = e.drain(p) == 0
			e.unlock()
		}
		switch {
		case !idle: // validated something, maybe our own: poll again
		case park:
			if _, ok := s.TryTake(gen); !ok {
				<-s.wake // tokens can be stale; the loop re-checks
			}
		case spin > 32:
			runtime.Gosched()
		}
		if park {
			s.parked.Store(0)
		}
	}
}

// unlock releases the pipeline lock and keeps the combiner's no-stranding
// rule on behalf of every holder, combining or not: a committer may have
// enqueued and lost TryLock while the lock was held, so the ring is
// re-checked after the release and drained if anything is there.
//
//tm:hotpath
func (e *Engine) unlock() {
	e.mu.Unlock()
	p := e.port.Load()
	for p.ring.size() > 0 && e.mu.TryLock() {
		e.drain(p)
		e.mu.Unlock()
	}
}

// drain validates up to depth queued requests and posts their
// verdicts, returning how many it answered; the caller holds e.mu. On a
// stopped port it answers with terminal verdicts instead — the window
// belongs to the next incarnation.
//
//tm:hotpath
func (e *Engine) drain(p *port) int {
	n := 0
	for ; n < e.depth; n++ {
		r, ok := p.ring.tryPop()
		if !ok {
			break
		}
		if p.stopped.Load() {
			r.Deliver(Verdict{Token: r.Token, Reason: ReasonClosed})
			sweep(p)
			return n + 1
		}
		r.Deliver(e.pl.Process(r))
	}
	if n > 0 {
		e.pl.noteBatch(n, n+p.ring.size())
	}
	return n
}

// Close stops the engine. Every request already accepted into the ring
// receives a terminal ReasonClosed verdict before Close returns; later
// Validate and RecordFast calls fail with ErrClosed until a Restart.
func (e *Engine) Close() {
	e.life.Lock()
	defer e.life.Unlock()
	e.closeLocked()
}

func (e *Engine) closeLocked() {
	p := e.port.Load()
	p.stopped.Store(true)
	// A combiner that popped a request before the stop still answers it
	// with a real verdict; wait it out so nothing is in flight on return.
	e.mu.Lock()
	e.mu.Unlock()
	sweep(p) // catch requests that raced past the final drains
}

// Restart brings the engine (back) up with an empty window rebased at
// next: the caller supplies its commit count so future sequence numbers
// line up with the global commit order. Cumulative statistics survive;
// window contents do not. Restart of a running engine closes it first.
func (e *Engine) Restart(next uint64) {
	e.life.Lock()
	defer e.life.Unlock()
	e.closeLocked()

	e.mu.Lock()
	e.pl.ResetAt(core.Seq(next))
	e.restarts++
	e.mu.Unlock()

	e.port.Store(newPort(e.depth))
}

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.unlock()
	st := e.pl.Stats()
	st.Restarts = e.restarts
	return st
}

// BaseSeq returns the oldest tracked commit sequence (for tests).
func (e *Engine) BaseSeq() core.Seq {
	e.mu.Lock()
	defer e.unlock()
	return e.pl.BaseSeq()
}

// NextSeq returns the sequence the next commit will receive.
func (e *Engine) NextSeq() core.Seq {
	e.mu.Lock()
	defer e.unlock()
	return e.pl.NextSeq()
}

// Process validates one request against the window synchronously, with no
// queue or slot around it: the pipeline's bare cost, and the reference the
// combiner's verdict stream is tested against.
func (e *Engine) Process(r Request) Verdict {
	e.mu.Lock()
	defer e.unlock()
	return e.pl.Process(r)
}

// RecordFast claims the next commit sequence for a transaction validated
// outside the engine — the hybrid fast path — and inserts its footprint
// into the sliding window, so subsequent engine validations observe its
// writes as committed history (without this, write skew between a fast
// and a slow transaction would be invisible to both paths).
//
// The claim is sound because the caller guarantees the transaction's reads
// are current as of this call (it revalidates its read lines before
// publishing, aborting — and filling the claimed slot with a no-op — if
// they moved): a current-as-of-claim snapshot means ValidTS = NextSeq, the
// new node has no forward dependencies, and the window insert cannot
// reject it. Claim and insert happen in one critical section with the
// normal Process path, so no engine-validated commit can take a sequence
// between them.
func (e *Engine) RecordFast(token uint64, readAddrs, writeAddrs []uint64) (Verdict, error) {
	e.mu.Lock()
	defer e.unlock()
	if e.port.Load().stopped.Load() {
		return Verdict{}, ErrClosed
	}
	v := e.pl.Process(Request{
		Token:      token,
		ValidTS:    uint64(e.pl.NextSeq()),
		ReadAddrs:  readAddrs,
		WriteAddrs: writeAddrs,
	})
	if !v.OK {
		// Impossible by construction (ValidTS == NextSeq ⇒ f = 0); surface
		// a broken invariant rather than a silent sequence gap.
		return v, fmt.Errorf("fpga: RecordFast rejected (%s)", v.Reason)
	}
	return v, nil
}
