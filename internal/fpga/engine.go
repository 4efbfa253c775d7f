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
// # Who runs the pipeline: combine vs the modelled link
//
// The paper hides the CCI round trip behind asynchronous queues because its
// validator is a separate device. Here the validator is a function, and a
// hand-off to a helper goroutine costs more than the validation, so the two
// ways in differ in who executes Process:
//
//   - Combine (Engine.Validate on the serial behavioural backend, the
//     default commit path). The committer pushes its request into the
//     submission ring (ring.go), then TryLocks Engine.mu. Whoever holds the
//     lock drains the ring — at most QueueDepth requests per acquisition,
//     one Stats.Batches tick per drain — and posts every verdict to its
//     owner's VerdictSlot (slot.go); losers poll their own slot, yield, and
//     park only behind the no-stranding handshake documented on combine.
//     No goroutine switch sits between a committer and its verdict, no
//     goroutine is started, and nothing on the path allocates in steady
//     state. Batching is what concurrency leaves in the ring, not queueing
//     delay: a lone committer drains batches of one.
//   - The modelled link (Submit/TrySubmit). Submissions land in the same
//     ring; a loop goroutine, started on the first asynchronous submission,
//     drains them in groups under one pipeline acquisition and publishes
//     the verdicts in bulk. This is the configuration that has a link to
//     stall, drop and crash: the fault-tolerant host (deadline-bounded
//     TrySubmit, rococotm.Link wrappers, internal/fault) and the
//     cycle-level RTL backend (rtl.go, where Validate is submit-and-wait as
//     well) use it.
//
// Both feed the same window under the same lock, so a stream may mix them;
// the modelled clock (Verdict.ModelNanos plus Model.RoundTripNanos) is
// charged identically either way.
//
// # Failure semantics
//
// A production accelerator sits at the far end of a link that stalls, drops
// packets and resets, so the engine models an explicit failure contract:
//
//   - Close/Crash stop the engine and deliver a terminal ReasonClosed
//     verdict to every request already accepted into the pull queue — no
//     submitted request is ever silently stranded, and a combiner that
//     finds its port stopped sweeps the queue instead of validating it;
//   - Restart brings a crashed engine back with an *empty* window rebased
//     at a caller-supplied sequence (crash loses window state; the host
//     supplies its commit count so verdicts re-align with the global commit
//     order). Transactions whose snapshots predate the rebased window abort
//     with a window verdict, which keeps serializability across the gap;
//   - TrySubmit is the non-blocking admission path (ErrFull models CCI
//     backpressure, ErrClosed a dead engine) that hosts with validation
//     deadlines use instead of the blocking Submit.
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
// requests stranded by Close/Crash.
const (
	ReasonCycle  = "cycle"  // ROCoCo validation found a dependency cycle
	ReasonWindow = "window" // snapshot predates the tracked window (§4.2)
	ReasonClosed = "closed" // engine stopped before validating the request
)

// Admission errors returned by Submit/TrySubmit.
var (
	// ErrClosed reports that the engine is not running.
	ErrClosed = errors.New("fpga: engine closed")
	// ErrFull reports pull-queue backpressure (TrySubmit only).
	ErrFull = errors.New("fpga: pull queue full")
)

// MaxW is the largest supported sliding-window capacity. Windows up to 64
// run on the word-packed fast path (one machine word per matrix row, the
// hardware deployment); larger windows — the W=128/256 ablation — run on
// the bitmat-backed generic path, which models what a wider BRAM budget
// would buy at the cost of a slower per-request probe.
const MaxW = 256

// Config parameterizes the engine.
type Config struct {
	// W is the sliding-window capacity; 1..MaxW. W ≤ 64 selects the
	// word-packed fast path (the hardware deployment); 64 < W ≤ MaxW
	// selects the bitmat-backed wide-window path used by the window-size
	// ablation. Default core.DefaultW = 64.
	W int
	// Sig is the signature geometry; default sig.Default512.
	Sig sig.Config
	// SigSeed seeds the multiply-shift hash constants. The CPU side must
	// use the same seed for its eager-detection signatures.
	SigSeed uint64
	// QueueDepth is the pull-queue buffering; default 64 (one slot per
	// window entry, like the hardware). Must be at least W when set
	// explicitly: a pull queue shallower than the window cannot keep a
	// full window of validations outstanding.
	QueueDepth int
	// CycleLevel selects the cycle-accurate RTL pipeline (rtl.go) as the
	// engine backend instead of the serial behavioral validator. Verdicts
	// are identical (rtl_test.go proves equivalence); the RTL backend
	// additionally exposes pipeline cycle counts and genuinely overlaps
	// concurrent validations.
	CycleLevel bool
	// Model configures the latency/occupancy accounting; zero value uses
	// the HARP2 calibration.
	Model LatencyModel
}

func (c *Config) fill() {
	if c.W == 0 {
		c.W = core.DefaultW
	}
	if c.Sig == (sig.Config{}) {
		c.Sig = sig.Default512
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
		if c.W > c.QueueDepth {
			c.QueueDepth = c.W // one pull-queue slot per window entry
		}
	}
	c.Model.fill()
}

// Validate rejects configurations that would misbehave at runtime with a
// descriptive error. Zero fields are legal (they select defaults).
func (c Config) Validate() error {
	if c.W < 0 || c.W > MaxW {
		return fmt.Errorf("fpga: window size W=%d out of range [1,%d] (0 selects the default %d)", c.W, MaxW, core.DefaultW)
	}
	if c.CycleLevel && c.W > 64 {
		return fmt.Errorf("fpga: CycleLevel RTL backend models the word-packed hardware window and caps W at 64 (got %d)", c.W)
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("fpga: QueueDepth %d is negative", c.QueueDepth)
	}
	w := c.W
	if w == 0 {
		w = core.DefaultW
	}
	if c.QueueDepth > 0 && c.QueueDepth < w {
		return fmt.Errorf("fpga: QueueDepth %d shallower than window W=%d: the pull queue needs one slot per window entry so a full window of validations can be outstanding", c.QueueDepth, w)
	}
	if c.Model.ClockMHz < 0 || c.Model.PipelineDepth < 0 || c.Model.AddrsPerBeat < 0 {
		return fmt.Errorf("fpga: negative latency-model parameter (%+v)", c.Model)
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
	// only reads them; it releases its references once the verdict is
	// delivered, so callers that reuse the backing arrays must not do so
	// before then.
	ReadAddrs  []uint64
	WriteAddrs []uint64
	// Probe marks a health-check request: it traverses the queues and the
	// pipeline like any validation but commits nothing and consumes no
	// sequence number. Hosts use probes to decide when a recovered engine
	// is answering again.
	Probe bool
	// Slot, when non-nil, receives the verdict: the caller armed it with
	// Prepare and carries the returned generation in Gen. This is the
	// allocation-free push-queue path.
	Slot *VerdictSlot
	Gen  uint64
	// Reply receives exactly one verdict when Slot is nil — how a layer
	// between host and pipeline (internal/fault, the RTL backend) interposes
	// on a verdict. Must have capacity ≥ 1.
	Reply chan Verdict
}

// Deliver routes v to the request's verdict sink — the armed slot
// generation when Slot is set, the buffered Reply channel otherwise. It
// reports whether the sink accepted the verdict; false means the verdict
// is late or duplicated (the waiter already got one, or abandoned the
// generation) and has been dropped, which is the transport's at-most-once
// contract.
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

// checkSink validates the request's verdict sink at admission.
func (r *Request) checkSink() error {
	if r.Slot != nil {
		return nil
	}
	if r.Reply == nil || cap(r.Reply) < 1 {
		return fmt.Errorf("fpga: request needs a verdict slot or a buffered reply channel")
	}
	return nil
}

// Verdict is the engine's decision for one request.
type Verdict struct {
	Token uint64
	// OK means the transaction may commit as sequence Seq.
	OK  bool
	Seq core.Seq
	// Reason is ReasonCycle, ReasonWindow or ReasonClosed when !OK.
	Reason string
	// Probe echoes Request.Probe.
	Probe bool
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
	// Probes counts health-check requests answered.
	Probes uint64
	// ModelCycles is the total modeled pipeline occupancy.
	ModelCycles uint64
	// Restarts counts crash/recover cycles (Engine only; a Restart resets
	// the window but keeps cumulative counters).
	Restarts uint64
	// Batches counts drain groups (one per combiner lock acquisition or loop
	// pass that validated anything); Requests+Probes over Batches is the mean
	// batch occupancy. MaxBatch is the largest single group.
	Batches  uint64
	MaxBatch uint64
	// QueuePeak is the high-water submission-queue occupancy observed at
	// drain time (batch taken plus what was still queued behind it) — the
	// host-side view of pipeline pressure.
	QueuePeak uint64
}

// port is one incarnation of the engine's queue pair. Crash closes done and
// drains the queue; Restart installs a fresh port, so verdict waiters from a
// previous incarnation are never confused with the new one.
type port struct {
	ring *ring

	done   chan struct{}
	exited chan struct{} // closed when the loop goroutine has returned

	// start launches the loop goroutine on the first Submit/TrySubmit —
	// or, if the port stops without ever carrying an asynchronous
	// submission, closes exited directly. Combined validations never start
	// it.
	start sync.Once

	// sleeping/wakeup implement the ring consumer's spin-then-park: the
	// loop raises sleeping before blocking on wakeup, producers that see
	// it raised drop a token in. One-token capacity suffices — a wakeup is
	// a hint to re-scan, not a message.
	sleeping atomic.Uint32
	wakeup   chan struct{}
}

func newPort(depth int) *port {
	return &port{
		ring:   newRing(depth),
		done:   make(chan struct{}),
		exited: make(chan struct{}),
		wakeup: make(chan struct{}, 1),
	}
}

// stopped reports whether the port's incarnation has been crashed or closed.
func (p *port) stopped() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// recvSpin is how many empty scans the ring consumer burns (yielding each
// time) before parking.
const recvSpin = 128

// recvBlock takes one request, blocking until one arrives or the port
// stops (ok=false).
func (p *port) recvBlock() (Request, bool) {
	for spin := 0; ; spin++ {
		if r, ok := p.ring.tryPop(); ok {
			return r, true
		}
		select {
		case <-p.done:
			return Request{}, false
		default:
		}
		if spin < recvSpin {
			runtime.Gosched()
			continue
		}
		// Park: publish intent, drain a stale token, re-check, sleep.
		p.sleeping.Store(1)
		select {
		case <-p.wakeup:
		default:
		}
		if r, ok := p.ring.tryPop(); ok {
			p.sleeping.Store(0)
			return r, true
		}
		select {
		case <-p.wakeup:
		case <-p.done:
			p.sleeping.Store(0)
			return Request{}, false
		}
		p.sleeping.Store(0)
		spin = 0
	}
}

// wake unparks the ring consumer if it is (or is about to be) sleeping.
func (p *port) wake() {
	if p.sleeping.Load() != 0 {
		select {
		case p.wakeup <- struct{}{}:
		default:
		}
	}
}

// Engine is the running validation pipeline. Create with Start, stop with
// Close or Crash, bring back with Restart.
type Engine struct {
	cfg    Config
	hasher *sig.Hasher
	port   atomic.Pointer[port]

	life sync.Mutex // serializes Crash/Restart/Close transitions

	mu       sync.Mutex // guards pl (and serializes direct Process calls)
	pl       *Pipeline
	restarts uint64
	rtlBase  core.Seq // window base for the next RTL incarnation
}

// Start builds the engine. It fails if the configuration is invalid (see
// Config.Validate). No goroutine runs until the first asynchronous
// submission: the link's loop starts lazily (see port.start).
func Start(cfg Config) (*Engine, error) {
	pl, err := NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:    pl.Config(),
		hasher: pl.Hasher(),
		pl:     pl,
	}
	e.port.Store(newPort(e.cfg.QueueDepth))
	return e, nil
}

// Config returns the engine's (filled) configuration.
func (e *Engine) Config() Config { return e.cfg }

// Hasher returns the signature hasher, which the CPU side shares so both
// sides compute identical signatures.
func (e *Engine) Hasher() *sig.Hasher { return e.hasher }

// Submit enqueues a validation request on the modelled link (the pull
// queue) for the engine loop to answer. It blocks only when the queue is
// full, which models back pressure on the CCI channel.
func (e *Engine) Submit(r Request) error {
	if err := r.checkSink(); err != nil {
		return err
	}
	return e.submitOn(e.port.Load(), r)
}

// submitOn is the asynchronous admission path: it makes sure the loop
// goroutine exists, enqueues, and wakes the loop if it parked.
func (e *Engine) submitOn(p *port, r Request) error {
	p.start.Do(func() { go e.loop(p) })
	if err := e.enqueue(p, r); err != nil {
		return err
	}
	p.wake()
	return nil
}

// enqueue pushes r onto the port's ring, yielding while the ring is full. Some
// consumer always exists for a non-empty ring — the loop goroutine for
// Submit's requests, the pushing committers themselves for Validate's — so
// the wait is bounded.
func (e *Engine) enqueue(p *port, r Request) error {
	for {
		if p.stopped() {
			return ErrClosed
		}
		if p.ring.tryPush(r) {
			e.recheck(p)
			return nil
		}
		runtime.Gosched()
	}
}

// TrySubmit offers a request to the modelled link without blocking:
// ErrFull models a saturated (or stalled) pull queue, ErrClosed a stopped
// engine. Hosts that enforce validation deadlines poll TrySubmit so
// backpressure cannot exceed the deadline.
func (e *Engine) TrySubmit(r Request) error {
	if err := r.checkSink(); err != nil {
		return err
	}
	p := e.port.Load()
	if p.stopped() {
		return ErrClosed
	}
	p.start.Do(func() { go e.loop(p) })
	if !p.ring.tryPush(r) {
		return ErrFull
	}
	e.recheck(p)
	p.wake()
	return nil
}

// recheck covers the submit/stop race: if the port stopped while (or right
// after) we enqueued, the loop may never see the request — sweep the queue
// so it still receives its terminal verdict. Sinks reject duplicate
// deliveries, and the ring dequeue is CAS-based, so concurrent sweeps are
// safe.
func (e *Engine) recheck(p *port) {
	if p.stopped() {
		sweep(p)
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
		r.Deliver(Verdict{Token: r.Token, Reason: ReasonClosed, Probe: r.Probe})
	}
}

// Validate answers one request synchronously. On the serial behavioural
// backend it is a flat-combining validator: the caller enqueues its request,
// then competes for the pipeline lock; whoever holds the lock validates
// everything queued and posts each verdict to its owner's slot, so no
// goroutine switch sits between a committer and its verdict and the loop
// goroutine is neither started nor woken. The cycle-level backend has no
// serial pipeline to run in the caller, so there Validate is submit-and-wait
// over the modelled link.
//
// A request without a slot borrows a pooled one (a Reply channel is not
// needed and is ignored), so the call is allocation-free in steady state. If the engine stops before
// answering, the request's terminal ReasonClosed verdict is returned;
// ErrClosed is returned only when the request was never accepted.
func (e *Engine) Validate(r Request) (Verdict, error) {
	p := e.port.Load()
	var pooled *VerdictSlot
	if r.Slot == nil {
		pooled = slotPool.Get().(*VerdictSlot)
		r.Slot, r.Gen = pooled, pooled.Prepare()
	}
	var v Verdict
	var err error
	if e.cfg.CycleLevel {
		if err = e.submitOn(p, r); err == nil {
			v = r.Slot.Wait(r.Gen)
		}
	} else if err = e.enqueue(p, r); err == nil {
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
// request popped by a consumer that has not delivered yet — the link's loop
// pops its batch before it takes the lock — and must give that consumer the
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
	if e.cfg.CycleLevel {
		return // the RTL loop is the ring's only consumer
	}
	p := e.port.Load()
	for p.ring.size() > 0 && e.mu.TryLock() {
		e.drain(p)
		e.mu.Unlock()
	}
}

// drain validates up to QueueDepth queued requests and posts their
// verdicts, returning how many it answered; the caller holds e.mu. On a
// stopped port it answers with terminal verdicts instead — the window
// belongs to the next incarnation.
//
//tm:hotpath
func (e *Engine) drain(p *port) int {
	n := 0
	for ; n < e.cfg.QueueDepth; n++ {
		r, ok := p.ring.tryPop()
		if !ok {
			break
		}
		if p.stopped() {
			r.Deliver(Verdict{Token: r.Token, Reason: ReasonClosed, Probe: r.Probe})
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

// Close stops the engine. Every request already accepted into the pull
// queue (or in flight in the pipeline) receives a terminal ReasonClosed
// verdict before Close returns; subsequent submits fail with ErrClosed.
func (e *Engine) Close() { e.Crash() }

// Crash models the engine being reset out from under the host: identical
// to Close (the link cannot distinguish them), it stops the loop and
// delivers terminal verdicts to everything outstanding. Window state is
// lost; Restart rebases it.
func (e *Engine) Crash() {
	e.life.Lock()
	defer e.life.Unlock()
	e.crashLocked()
}

func (e *Engine) crashLocked() {
	p := e.port.Load()
	select {
	case <-p.done:
	default:
		close(p.done)
	}
	p.wake() // unpark a sleeping ring consumer so it can exit
	p.start.Do(func() { close(p.exited) })
	<-p.exited // the loop swept its in-flight work on the way out
	// A combiner that popped a request before done closed still answers it
	// with a real verdict; wait it out so nothing is in flight on return.
	e.mu.Lock()
	e.mu.Unlock()
	sweep(p) // catch requests that raced past the final drains
}

// Restart brings the engine (back) up with an empty window rebased at
// next: the caller supplies its commit count so future sequence numbers
// line up with the global commit order. Cumulative statistics survive;
// window contents do not — crash recovery is indistinguishable from a
// power cycle. Restart of a running engine crashes it first — unless the
// restart would change nothing: a live engine whose window is already
// empty and based at next is left untouched (redundant Restarts must be
// idempotent, or the recovery prober's per-round Restart followed by the
// promotion Restart would crash a healthy port — killing in-flight
// probes — and double-reseed the window).
func (e *Engine) Restart(next uint64) error {
	e.life.Lock()
	defer e.life.Unlock()
	p := e.port.Load()
	if p != nil && !e.cfg.CycleLevel {
		select {
		case <-p.done:
		default:
			e.mu.Lock()
			clean := e.pl.BaseSeq() == e.pl.NextSeq() &&
				uint64(e.pl.NextSeq()) == next
			e.unlock()
			if clean {
				return nil
			}
		}
	}
	e.crashLocked()

	e.mu.Lock()
	e.pl.ResetAt(core.Seq(next))
	e.rtlBase = core.Seq(next)
	e.restarts++
	e.mu.Unlock()

	e.port.Store(newPort(e.cfg.QueueDepth))
	return nil
}

// Done returns a channel closed when the engine's current incarnation
// stops; verdict waiters select on it alongside their reply channel.
func (e *Engine) Done() <-chan struct{} { return e.port.Load().done }

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

func (e *Engine) loop(p *port) {
	defer close(p.exited)
	if e.cfg.CycleLevel {
		e.loopRTL(p)
		return
	}
	e.loopRing(p)
}

// loopRing is the link's batched drain loop: grab everything queued, validate
// the whole group under one pipeline acquisition (the hardware equivalent: the
// pipeline ingests back-to-back beats without re-arbitrating the link per
// request), then publish all verdicts. Publishing happens outside the
// pipeline lock so woken committers never contend with the next batch.
func (e *Engine) loopRing(p *port) {
	batch := make([]Request, 0, e.cfg.QueueDepth)
	verdicts := make([]Verdict, 0, e.cfg.QueueDepth)
	for {
		r, ok := p.recvBlock()
		if !ok {
			sweep(p)
			return
		}
		batch = append(batch[:0], r)
		for len(batch) < cap(batch) {
			r, ok := p.ring.tryPop()
			if !ok {
				break
			}
			batch = append(batch, r)
		}
		verdicts = verdicts[:0]
		e.mu.Lock()
		for i := range batch {
			verdicts = append(verdicts, e.pl.Process(batch[i]))
		}
		e.pl.noteBatch(len(batch), len(batch)+p.ring.size())
		e.mu.Unlock()
		for i := range batch {
			batch[i].Deliver(verdicts[i])
			batch[i] = Request{} // release footprint references promptly
		}
	}
}

// Process validates one request against the window synchronously, with no
// queue or slot around it: the pipeline's bare cost, and the reference the
// combiner's verdict stream is tested against.
func (e *Engine) Process(r Request) Verdict {
	e.mu.Lock()
	defer e.unlock()
	return e.pl.Process(r)
}

// ErrCycleLevel is returned by RecordFast on a cycle-level engine: there
// the RTL model owns the sliding window (e.pl only tracks statistics), so
// a synchronous direct insert has no sequence authority to claim from.
var ErrCycleLevel = errors.New("fpga: RecordFast unsupported on a cycle-level engine")

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
	if e.cfg.CycleLevel {
		return Verdict{}, ErrCycleLevel
	}
	select {
	case <-e.port.Load().done:
		return Verdict{}, ErrClosed
	default:
	}
	e.mu.Lock()
	defer e.unlock()
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

// loopRTL drives the cycle-level pipeline: requests drain from the pull
// queue into the pipeline as they arrive, overlapping in flight, and the
// model ticks while anything is outstanding.
func (e *Engine) loopRTL(p *port) {
	rtl := NewRTL(e.cfg)
	e.mu.Lock()
	rtl.ResetAt(e.rtlBase)
	e.mu.Unlock()
	for {
		if rtl.InFlight() == 0 {
			r, ok := p.recvBlock()
			if !ok {
				sweep(p)
				return
			}
			e.admitRTL(rtl, r)
		}
		// Absorb any further queued requests without blocking, then
		// advance the pipeline one cycle.
		for {
			r, ok := p.ring.tryPop()
			if !ok {
				break
			}
			e.admitRTL(rtl, r)
		}
		before := rtl.Retired()
		rtl.Tick()
		if d := rtl.Retired() - before; d > 0 {
			e.mu.Lock()
			e.pl.stats.Requests += d
			e.mu.Unlock()
		}
		// Let requesters and committers run between cycles (single-CPU
		// hosts would otherwise starve them against this loop).
		runtime.Gosched()
		select {
		case <-p.done:
			rtl.Flush()
			sweep(p)
			return
		default:
		}
	}
}

// rtlProxyPool recycles the one-verdict channels admitRTL interposes
// between the RTL pipeline and the caller's sink; a proxy is always empty
// when returned (its collector consumed the single verdict).
var rtlProxyPool = sync.Pool{New: func() any { return make(chan Verdict, 1) }}

// admitRTL interposes a pooled proxy on the caller's sink so engine
// statistics stay consistent with the behavioral backend. Probes answer
// immediately: the RTL pipeline has no side-effect-free path, and a
// probe's job is only to prove the queues and the loop are alive.
func (e *Engine) admitRTL(rtl *RTL, r Request) {
	if r.Probe {
		e.mu.Lock()
		e.pl.stats.Probes++
		e.mu.Unlock()
		r.Deliver(Verdict{Token: r.Token, OK: true, Probe: true})
		return
	}
	orig := r
	proxy := rtlProxyPool.Get().(chan Verdict)
	r.Slot = nil
	r.Gen = 0
	r.Reply = proxy
	if err := rtl.Offer(r); err != nil {
		rtlProxyPool.Put(proxy)
		orig.Deliver(Verdict{Token: r.Token, Reason: ReasonCycle})
		return
	}
	go func() {
		v := <-proxy
		rtlProxyPool.Put(proxy)
		e.mu.Lock()
		switch {
		case v.OK:
			e.pl.stats.Commits++
			e.pl.stats.ModelCycles += e.cfg.Model.requestCycles(len(orig.ReadAddrs), len(orig.WriteAddrs))
		case v.Reason == ReasonWindow:
			e.pl.stats.WindowAborts++
		case v.Reason == ReasonClosed:
			// Crash flush: neither a commit nor a validation abort.
		default:
			e.pl.stats.CycleAborts++
		}
		e.mu.Unlock()
		orig.Deliver(v)
	}()
}
