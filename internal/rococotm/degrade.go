package rococotm

import (
	"errors"
	"runtime"
	"time"

	"rococotm/internal/core"
	"rococotm/internal/fpga"
)

// This file is the graceful-degradation half of the runtime: everything
// that keeps the commit path alive when the validation engine at the far
// end of the CCI link stalls, drops verdicts, or is reset out from under
// the host.
//
// The runtime moves through a three-state machine:
//
//	healthy ──deadline miss / engine error──▶ draining ──quiesced──▶ degraded
//	   ▲                                                                │
//	   └──────── probes pass, fallback drained, window re-synced ───────┘
//
//   - healthy: write transactions validate on the engine, bounded by
//     Config.ValidateDeadline at every blocking point (queue admission,
//     verdict wait, and the commit-order turn — pipeline.go await).
//   - draining: a miss or error tripped degradation. The engine is
//     crashed (so every outstanding request gets a terminal verdict
//     instead of a maybe-someday one), and the runtime waits until no
//     committer can still claim an engine-issued sequence number —
//     otherwise the software fallback could hand out a colliding
//     sequence. Commits arriving now spin briefly until the fallback is
//     open.
//   - degraded: commits validate on a software Pipeline — the identical
//     ROCoCo validator, same signature geometry and seed, serialized
//     under a mutex — rebased on an empty window at the quiesced commit
//     count. Snapshots that predate the rebase abort with a window
//     verdict, exactly like a hardware window overflow, which is what
//     keeps the committed history serializable across the gap. A prober
//     goroutine meanwhile restarts the engine and sends probe requests;
//     once ProbeCount probes answer within the deadline, the fallback is
//     drained (all issued sequences committed), the engine window is
//     re-synchronized at the drained commit count, and the state returns
//     to healthy.
//
// Sequence-number safety is the crux. An engine verdict that was dropped
// by the link leaves a hole in the commit order: every later verdict
// holder waits for a turn that never comes. Degradation resolves this by
// construction: the engine is crashed (no new verdicts), every in-flight
// engine-path committer either commits, aborts, or abandons its claimed
// sequence when it observes the state change, and only after that
// quiescence does the fallback start issuing sequences from the actual
// host-side commit count. Abandoned sequence numbers are reissued by the
// fallback — safe, because their original holders never published.

// Runtime degradation states.
const (
	stateHealthy uint32 = iota
	stateDraining
	stateDegraded
)

// Link is the runtime's connection to the validation engine. *fpga.Engine
// implements it directly; fault-injection layers (internal/fault) wrap it.
type Link interface {
	// TrySubmit offers a request without blocking: fpga.ErrFull models
	// pull-queue backpressure or a stalled link, fpga.ErrClosed a dead
	// engine.
	TrySubmit(fpga.Request) error
	// Restart brings the engine back with an empty window rebased at
	// next. It fails while the engine is (still) unreachable.
	Restart(next uint64) error
	// Crash stops the engine, delivering terminal verdicts to all
	// outstanding requests.
	Crash()
	// Close shuts the link down for good.
	Close()
}

// errUnavailable classifies a validation attempt that failed because the
// engine is unreachable or out of deadline; the commit path converts it to
// a tm.ReasonEngine abort so the application retry loop backs off and
// retries (into the fallback once degradation completes).
var errUnavailable = errors.New("rococotm: validation engine unavailable")

// FaultStats is a snapshot of the degradation counters — the observability
// surface the chaos harness and benchmarks assert against.
type FaultStats struct {
	// DeadlineMisses counts validation attempts (admission, verdict wait,
	// or commit-turn wait) that exceeded ValidateDeadline.
	DeadlineMisses uint64
	// EngineErrors counts submissions refused or terminated by a dead
	// engine (ErrClosed, terminal closed verdicts).
	EngineErrors uint64
	// Abandoned counts commits that held an engine-issued sequence and
	// gave it up during degradation or after a commit-turn timeout.
	Abandoned uint64
	// FallbackEntries / FallbackExits count healthy→degraded transitions
	// and degraded→healthy recoveries.
	FallbackEntries uint64
	FallbackExits   uint64
	// FallbackValidations counts verdicts issued by the software path.
	FallbackValidations uint64
	// Probes / ProbeFailures count recovery health checks.
	Probes        uint64
	ProbeFailures uint64
	// State is the current degradation state: "healthy", "draining" or
	// "degraded".
	State string
}

// FaultStats returns a snapshot of the degradation counters.
func (r *TM) FaultStats() FaultStats {
	st := FaultStats{
		DeadlineMisses:      r.fc.deadlineMisses.Load(),
		EngineErrors:        r.fc.engineErrors.Load(),
		Abandoned:           r.fc.abandoned.Load(),
		FallbackEntries:     r.fc.fallbackEntries.Load(),
		FallbackExits:       r.fc.fallbackExits.Load(),
		FallbackValidations: r.fc.fallbackValidations.Load(),
		Probes:              r.fc.probes.Load(),
		ProbeFailures:       r.fc.probeFailures.Load(),
	}
	switch r.state.Load() {
	case stateDraining:
		st.State = "draining"
	case stateDegraded:
		st.State = "degraded"
	default:
		st.State = "healthy"
	}
	return st
}

// armSink attaches the thread's verdict slot to req (allocation-free).
func (r *TM) armSink(x *txn, req *fpga.Request) *fpga.VerdictSlot {
	s := &r.slots[x.thread]
	req.Slot, req.Gen = s, s.Prepare()
	return s
}

// validate obtains a verdict for req, routing by health state. viaEngine
// reports which path answered; when true and the verdict is OK, the caller
// owns one engineInflight reference and must release it after committing
// or abandoning.
func (r *TM) validate(x *txn, req fpga.Request) (v fpga.Verdict, viaEngine bool, err error) {
	if !r.ftEnabled {
		r.armSink(x, &req)
		v, err := r.eng.Validate(req)
		return v, true, err
	}
	for {
		switch r.state.Load() {
		case stateHealthy:
			if v, ok := r.engineValidate(x, req); ok {
				return v, true, nil
			}
			if r.state.Load() == stateHealthy {
				// Miss without (or before) degradation: give the
				// sequence back to the retry loop rather than hammering
				// a struggling engine from inside one commit.
				return fpga.Verdict{}, false, errUnavailable
			}
			// Degradation is in flight; re-dispatch into it.
		case stateDraining:
			runtime.Gosched()
		case stateDegraded:
			if v, ok := r.fallbackValidate(req); ok {
				return v, false, nil
			}
			// Raced with a promotion back to healthy; re-dispatch.
		}
	}
}

// engineValidate runs one deadline-bounded validation against the engine.
// ok=false means no usable verdict (deadline missed, engine closed, or
// degradation observed); counters and degradation triggers have already
// been recorded. On ok verdicts that are !OK the inflight reference is
// already released; on OK verdicts the caller holds it.
func (r *TM) engineValidate(x *txn, req fpga.Request) (fpga.Verdict, bool) {
	slot := r.armSink(x, &req)
	r.engineInflight.Add(1)
	deadline := time.Now().Add(r.cfg.ValidateDeadline)

	// Admission: poll past backpressure, bounded by the deadline. The
	// request has not been accepted yet, so a miss here leaves no
	// reference to the transaction's footprint behind.
	for {
		if r.state.Load() != stateHealthy {
			r.engineInflight.Add(-1)
			return fpga.Verdict{}, false
		}
		err := r.link.TrySubmit(req)
		if err == nil {
			break
		}
		if !errors.Is(err, fpga.ErrFull) {
			// Closed or refused: not a timing blip — fail over.
			r.fc.engineErrors.Add(1)
			r.engineInflight.Add(-1)
			r.degrade()
			return fpga.Verdict{}, false
		}
		if time.Now().After(deadline) {
			r.fc.deadlineMisses.Add(1)
			r.engineInflight.Add(-1)
			r.maybeDegrade()
			return fpga.Verdict{}, false
		}
		runtime.Gosched()
	}

	// Verdict wait, bounded by the remainder of the deadline. A timeout
	// after admission orphans the descriptor: the engine (or the fault
	// layer) may still hold the request, so its footprint slices must not
	// be reused until the slot generation retires it.
	v, ok := slot.WaitUntil(req.Gen, deadline)
	if !ok {
		x.orphaned = true
		r.fc.deadlineMisses.Add(1)
		r.engineInflight.Add(-1)
		r.maybeDegrade()
		return fpga.Verdict{}, false
	}
	if v.Reason == fpga.ReasonClosed {
		r.fc.engineErrors.Add(1)
		r.engineInflight.Add(-1)
		r.degrade()
		return fpga.Verdict{}, false
	}
	r.missStreak.Store(0)
	if !v.OK {
		r.engineInflight.Add(-1) // no sequence claimed
	}
	return v, true
}

// fallbackValidate issues one verdict from the serialized software
// validator. ok=false means the runtime promoted back to healthy while we
// waited for the mutex; the caller re-dispatches.
func (r *TM) fallbackValidate(req fpga.Request) (fpga.Verdict, bool) {
	r.fbMu.Lock()
	defer r.fbMu.Unlock()
	if r.state.Load() != stateDegraded {
		return fpga.Verdict{}, false
	}
	r.fc.fallbackValidations.Add(1)
	return r.fbPl.Process(req), true
}

// maybeDegrade trips degradation after FallbackAfter consecutive deadline
// misses.
func (r *TM) maybeDegrade() {
	if int(r.missStreak.Add(1)) >= r.cfg.FallbackAfter {
		r.degrade()
	}
}

// degrade starts the healthy→draining→degraded transition (at most one in
// flight; losers of the CAS return immediately). The heavy lifting runs in
// a background goroutine so the committer that tripped the transition can
// proceed into the fallback as soon as it opens.
func (r *TM) degrade() {
	if r.cfg.DisableFallback {
		return
	}
	if !r.state.CompareAndSwap(stateHealthy, stateDraining) {
		return
	}
	r.fc.fallbackEntries.Add(1)
	r.missStreak.Store(0)
	r.bg.Add(1)
	go func() {
		defer r.bg.Done()
		// Make the outage crisp: every outstanding request gets a
		// terminal verdict now, not a maybe-later one, and nothing new is
		// accepted.
		r.link.Crash()
		// Quiesce: wait until no committer can still claim an
		// engine-issued sequence (they all observe the state change, get
		// a closed verdict, or hit their deadline — all bounded).
		for r.engineInflight.Load() != 0 {
			select {
			case <-r.stop:
				return
			default:
			}
			runtime.Gosched()
		}
		// Re-synchronize: the fallback window starts empty, rebased at
		// the host's actual commit count. Engine sequences issued but
		// never committed are reissued from here — safe, their holders
		// abandoned without publishing.
		r.fbMu.Lock()
		r.fbPl.ResetAt(core.Seq(r.globalTS.Load()))
		r.fbMu.Unlock()
		r.state.Store(stateDegraded)
		r.recoverLoop()
	}()
}

// recoverLoop probes the engine until it answers again, then promotes the
// runtime back to healthy. Runs in the degradation goroutine; exits on
// promotion or Close.
func (r *TM) recoverLoop() {
	for {
		select {
		case <-r.stop:
			return
		case <-time.After(r.cfg.ProbeInterval):
		}
		r.fc.probes.Add(1)
		if err := r.link.Restart(r.globalTS.Load()); err != nil {
			r.fc.probeFailures.Add(1)
			continue
		}
		if !r.probeHealthy() {
			r.fc.probeFailures.Add(1)
			continue
		}
		if r.promote() {
			return
		}
	}
}

// probeHealthy sends ProbeCount probe requests through the link (probes
// traverse the queues and pipeline but commit nothing) and reports whether
// all answered OK within the deadline.
func (r *TM) probeHealthy() bool {
	for i := 0; i < r.cfg.ProbeCount; i++ {
		// The prober is a single goroutine, so one dedicated slot serves
		// every probe allocation-free.
		preq := fpga.Request{Probe: true, Slot: &r.probeSlot, Gen: r.probeSlot.Prepare()}
		deadline := time.Now().Add(r.cfg.ValidateDeadline)
		for {
			err := r.link.TrySubmit(preq)
			if err == nil {
				break
			}
			if !errors.Is(err, fpga.ErrFull) || time.Now().After(deadline) {
				return false
			}
			runtime.Gosched()
		}
		if v, ok := r.probeSlot.WaitUntil(preq.Gen, deadline); !ok || !v.OK {
			return false
		}
	}
	return true
}

// promote completes a recovery: drain the fallback (every issued sequence
// commits — the software path has no loss modes), re-synchronize the
// engine window at the drained commit count, and reopen the engine path.
// Holding fbMu the whole time keeps new fallback validations out.
func (r *TM) promote() bool {
	r.fbMu.Lock()
	defer r.fbMu.Unlock()
	next := uint64(r.fbPl.NextSeq())
	for r.globalTS.Load() != next {
		select {
		case <-r.stop:
			return false
		default:
		}
		runtime.Gosched()
	}
	if err := r.link.Restart(r.globalTS.Load()); err != nil {
		// The engine disappeared again between probe and promotion; stay
		// degraded and keep probing.
		r.fc.probeFailures.Add(1)
		return false
	}
	r.fc.fallbackExits.Add(1)
	r.state.Store(stateHealthy)
	return true
}
