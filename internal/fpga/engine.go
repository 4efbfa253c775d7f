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
// # Who runs the pipeline: the committer, under one lock
//
// The paper hides the CCI round trip behind asynchronous queues because its
// validator is a separate device. Here the validator is a function, and a
// hand-off to a helper goroutine costs more than the validation, so the
// committer runs it: Engine.Validate takes Engine.mu, runs Process and
// releases the lock. Validation is a critical section; a committer that
// finds it held waits in sync.Mutex, which spins briefly and then parks.
// There is no queue and no mailbox between a committer and its verdict, the
// package starts no goroutine, and nothing on the path allocates in steady
// state. The modelled clock (Verdict.ModelNanos plus RoundTripNanos) is
// charged as if the request had crossed the link.
//
// # Failure semantics
//
// Close stops the engine. It takes Engine.mu, so a validation in progress
// finishes with a real verdict before Close returns; later Validate and
// RecordFast calls fail with ErrClosed. With no queue, no request is ever
// accepted and left unanswered, so the engine never issues ReasonClosed
// (the cycle-level RTL model still does, for requests its Flush drops from
// the pipeline). Restart brings the engine back with an *empty* window
// rebased at a caller-supplied sequence (window state does not survive;
// the host supplies its commit count so verdicts re-align with the global
// commit order). Transactions whose snapshots predate the rebased window
// abort with a window verdict, which keeps serializability across the gap.
package fpga

import (
	"errors"
	"fmt"
	"sync"

	"rococotm/internal/core"
	"rococotm/internal/sig"
)

// Verdict reasons. An engine verdict carries ReasonCycle or ReasonWindow
// when !OK; ReasonClosed marks the terminal verdicts RTL.Flush delivers to
// requests it drops from its pipeline.
const (
	ReasonCycle  = "cycle"  // ROCoCo validation found a dependency cycle
	ReasonWindow = "window" // snapshot predates the tracked window (§4.2)
	ReasonClosed = "closed" // pipeline flushed before validating the request
)

// ErrClosed reports that the engine is not running.
var ErrClosed = errors.New("fpga: engine closed")

// MaxW is the largest supported sliding-window capacity: the hardware
// deployment's 64, one machine word per matrix row.
const MaxW = 64

// Config parameterizes the engine.
type Config struct {
	// w is the sliding-window capacity; 1..MaxW, zero selects
	// core.DefaultW = 64, the paper's deployment. Only this package's tests
	// shrink it.
	w int
	// Sig is the signature geometry; default sig.Default512.
	Sig sig.Config
}

func (c *Config) fill() {
	if c.w == 0 {
		c.w = core.DefaultW
	}
	if c.Sig == (sig.Config{}) {
		c.Sig = sig.Default512
	}
}

// Validate rejects configurations that would misbehave at runtime with a
// descriptive error. Zero fields are legal (they select defaults).
func (c Config) Validate() error {
	if c.w < 0 || c.w > MaxW {
		return fmt.Errorf("fpga: window size W=%d out of range [1,%d] (0 selects the default %d)", c.w, MaxW, core.DefaultW)
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
	// only reads them and keeps no reference once Validate returns.
	ReadAddrs  []uint64
	WriteAddrs []uint64
	// Reply receives exactly one verdict from the standalone cycle-level
	// model (rtl.go); it must have capacity ≥ 1. Validate ignores it.
	Reply chan Verdict
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
	// ModelCycles is the total modeled pipeline occupancy.
	ModelCycles uint64
	// Restarts counts Restart calls (Engine only; a Restart resets the
	// window but keeps cumulative counters).
	Restarts uint64
	// Probes, Batches and QueuePeak described health checks and the
	// submission queue's drain groups. The engine has neither, so they
	// stay 0; the fields are kept for the readers of this struct.
	Probes    uint64
	Batches   uint64
	QueuePeak uint64
}

// Engine is the running validation pipeline. Create with Start, stop with
// Close, bring back with Restart.
type Engine struct {
	cfg    Config
	hasher *sig.Hasher

	mu       sync.Mutex // guards the fields below; one Process at a time
	pl       *Pipeline
	restarts uint64
	stopped  bool
}

// Start builds the engine. It fails if the configuration is invalid (see
// Config.Validate).
func Start(cfg Config) (*Engine, error) {
	pl, err := NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	return &Engine{cfg: pl.Config(), hasher: pl.Hasher(), pl: pl}, nil
}

// Config returns the engine's (filled) configuration.
func (e *Engine) Config() Config { return e.cfg }

// Hasher returns the signature hasher, which the CPU side shares so both
// sides compute identical signatures.
func (e *Engine) Hasher() *sig.Hasher { return e.hasher }

// Validate answers one request synchronously: the caller runs the pipeline
// under the engine lock. It fails with ErrClosed on a stopped engine.
//
//tm:hotpath
func (e *Engine) Validate(r Request) (Verdict, error) {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return Verdict{}, ErrClosed
	}
	v := e.pl.Process(r)
	e.mu.Unlock()
	return v, nil
}

// Close stops the engine. A validation in progress finishes before Close
// returns; later Validate and RecordFast calls fail with ErrClosed until a
// Restart.
func (e *Engine) Close() {
	e.mu.Lock()
	e.stopped = true
	e.mu.Unlock()
}

// Restart brings the engine (back) up with an empty window rebased at
// next: the caller supplies its commit count so future sequence numbers
// line up with the global commit order. Cumulative statistics survive;
// window contents do not. Restart of a running engine flushes its window
// the same way.
func (e *Engine) Restart(next uint64) {
	e.mu.Lock()
	e.pl.ResetAt(core.Seq(next))
	e.restarts++
	e.stopped = false
	e.mu.Unlock()
}

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.pl.Stats()
	st.Restarts = e.restarts
	return st
}

// BaseSeq returns the oldest tracked commit sequence (for tests).
func (e *Engine) BaseSeq() core.Seq {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pl.BaseSeq()
}

// NextSeq returns the sequence the next commit will receive.
func (e *Engine) NextSeq() core.Seq {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pl.NextSeq()
}

// Process validates one request against the window under the engine lock,
// whether or not the engine is stopped: the pipeline's bare cost, and the
// reference Validate's verdict stream is tested against.
func (e *Engine) Process(r Request) Verdict {
	e.mu.Lock()
	defer e.mu.Unlock()
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
// normal Validate path, so no engine-validated commit can take a sequence
// between them.
func (e *Engine) RecordFast(token uint64, readAddrs, writeAddrs []uint64) (Verdict, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
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
