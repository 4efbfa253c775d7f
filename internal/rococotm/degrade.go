package rococotm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"rococotm/internal/core"
	"rococotm/internal/fpga"
	"rococotm/internal/tm"
)

// This file is how a verdict is obtained: the one health dispatch (verdict)
// behind every sequence claim, and the fault model it dispatches on —
// everything that keeps the commit path alive when the validation engine at
// the far end of the CCI link stalls, drops verdicts, or is reset out from
// under the host. A trusting runtime (Config.ValidateDeadline == 0) has no
// fault model (TM.ft == nil): its dispatch is a call to the engine, and
// nothing below the dispatch exists for it.
//
// In fault-tolerant mode a faultModel owns the link, the inflight count, the
// software fallback and a three-state machine:
//
//	healthy ──deadline miss / engine error──▶ draining ──quiesced──▶ degraded
//	   ▲                                                                │
//	   └──────── probes pass, fallback drained, window re-synced ───────┘
//
//   - healthy: write transactions validate on the engine, bounded by
//     Config.ValidateDeadline at every blocking point (queue admission,
//     verdict wait — submit — and the commit-order turn — lapsed, polled by
//     pipeline.go await).
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
//     once probeCount probes answer within the deadline, the fallback is
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

// probeCount is how many consecutive probe verdicts must arrive in deadline
// before the runtime promotes back to the engine.
const probeCount = 3

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

// faultModel is the fault-tolerant runtime's view of its engine.
type faultModel struct {
	r *TM
	// link is the engine connection, wrapped by Config.WrapLink if set.
	link  Link
	state atomic.Uint32
	// inflight counts committers that may still claim or hold an
	// engine-issued commit sequence — degradation quiesces on it before the
	// fallback reissues sequence numbers.
	inflight atomic.Int64
	// fbMu serializes the software fallback validator (and promotion).
	fbMu sync.Mutex
	fbPl *fpga.Pipeline
	// probeSlot serves the single recovery prober.
	probeSlot fpga.VerdictSlot

	deadlineMisses, engineErrors, abandoned             atomic.Uint64
	fallbackEntries, fallbackExits, fallbackValidations atomic.Uint64
	probes, probeFailures                               atomic.Uint64
}

func newFaultModel(r *TM) (*faultModel, error) {
	// The fallback validator shares the engine's exact configuration
	// (window, signature geometry, hash seed), so software verdicts are
	// bit-identical to hardware ones.
	fb, err := fpga.NewPipeline(r.eng.Config())
	if err != nil {
		return nil, fmt.Errorf("rococotm: %w", err)
	}
	ft := &faultModel{r: r, link: r.eng, fbPl: fb}
	if r.cfg.WrapLink != nil {
		ft.link = r.cfg.WrapLink(ft.link)
	}
	return ft, nil
}

// errDeadline and errStale are submit's ways of coming back without a
// verdict: ValidateDeadline passed, or the runtime left the state the
// request was meant for.
var (
	errDeadline = errors.New("rococotm: validation deadline missed")
	errStale    = errors.New("rococotm: degradation state changed")
)

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

// FaultStats returns a snapshot of the degradation counters; all zero and
// "healthy" on a trusting runtime.
func (r *TM) FaultStats() FaultStats {
	ft := r.ft
	if ft == nil {
		return FaultStats{State: "healthy"}
	}
	st := FaultStats{
		DeadlineMisses:      ft.deadlineMisses.Load(),
		EngineErrors:        ft.engineErrors.Load(),
		Abandoned:           ft.abandoned.Load(),
		FallbackEntries:     ft.fallbackEntries.Load(),
		FallbackExits:       ft.fallbackExits.Load(),
		FallbackValidations: ft.fallbackValidations.Load(),
		Probes:              ft.probes.Load(),
		ProbeFailures:       ft.probeFailures.Load(),
		State:               "healthy",
	}
	switch ft.state.Load() {
	case stateDraining:
		st.State = "draining"
	case stateDegraded:
		st.State = "degraded"
	}
	return st
}

// verdict is the one health dispatch: it obtains req's verdict from whichever
// validator owns the sequence space right now. x is the committing
// transaction; nil marks a fast publication, whose footprint is recorded at
// the validator's current position rather than validated. engine reports that
// the engine answered. The error is what the attempt ends on: a hard engine
// error, or — fault-tolerant mode only — the engine abort of an attempt that
// found the engine unreachable and no fallback open yet, so the retry loop
// backs off instead of hammering a struggling engine from inside one commit.
//
// In fault-tolerant mode an OK verdict from the engine leaves the caller
// holding an inflight reference, released by settle once the sequence is
// published or given up.
func (r *TM) verdict(req fpga.Request, x *txn) (v fpga.Verdict, engine bool, err error) {
	ft := r.ft
	if ft == nil {
		if v, err = r.ask(req, x); err != nil {
			err = fmt.Errorf("rococotm: engine: %w", err)
		}
		return v, true, err
	}
	for {
		switch ft.state.Load() {
		case stateHealthy:
			// Reference before the claim, so degradation's quiesce cannot
			// rebase the window while we hold an unpublished sequence.
			ft.inflight.Add(1)
			if v, err = r.ask(req, x); err == nil && v.OK {
				return v, true, nil
			}
			ft.inflight.Add(-1) // no sequence claimed
			switch {
			case err == nil:
				return v, true, nil
			case err == errStale:
				continue
			case err == errDeadline:
				ft.deadlineMisses.Add(1)
			case x == nil && !errors.Is(err, fpga.ErrClosed):
				return v, true, fmt.Errorf("rococotm: engine: %w", err)
			default:
				// Closed or refused: not a timing blip.
				ft.engineErrors.Add(1)
			}
			ft.degrade()
			if ft.state.Load() == stateHealthy {
				return v, false, tm.AbortCode(tm.CodeEngine) // DisableFallback
			}
		case stateDraining:
			if x == nil {
				// A fast committer holds line ownership; it retries from the
				// top rather than wait out the quiesce.
				return v, false, tm.AbortCode(tm.CodeEngine)
			}
			runtime.Gosched()
		case stateDegraded:
			ft.fbMu.Lock()
			if ft.state.Load() == stateDegraded {
				if x == nil {
					req.ValidTS = uint64(ft.fbPl.NextSeq())
				}
				ft.fallbackValidations.Add(1)
				v = ft.fbPl.Process(req)
				ft.fbMu.Unlock()
				return v, false, nil
			}
			ft.fbMu.Unlock() // raced with a promotion back to healthy
		}
	}
}

// ask puts req to the engine once: a fast publication's footprint (x == nil)
// is recorded; a transaction's is validated — by calling the engine on a
// trusting runtime, over the deadline-bounded link in fault-tolerant mode. A
// terminal verdict from a dying engine comes back as the error it stands
// for.
func (r *TM) ask(req fpga.Request, x *txn) (v fpga.Verdict, err error) {
	if x == nil {
		return r.eng.RecordFast(req.Token, req.ReadAddrs, req.WriteAddrs)
	}
	s := &r.slots[x.thread]
	req.Slot, req.Gen = s, s.Prepare()
	if r.ft == nil {
		v, err = r.eng.Validate(req)
	} else if v, err = r.ft.submit(req, stateHealthy); err == errDeadline {
		// The engine (or the fault layer) may still hold the request — not
		// after a miss during admission, where dropping them only costs a
		// reallocation — so reset must not reuse the footprint slices.
		x.orphaned = true
	}
	if err == nil && !v.OK && v.Reason == fpga.ReasonClosed {
		err = fpga.ErrClosed
	}
	return v, err
}

// submit is one round trip over the link, every blocking step bounded by
// ValidateDeadline, for as long as the runtime stays in state during.
func (ft *faultModel) submit(req fpga.Request, during uint32) (fpga.Verdict, error) {
	deadline := time.Now().Add(ft.r.cfg.ValidateDeadline)
	for ft.state.Load() == during {
		err := ft.link.TrySubmit(req)
		switch {
		case err == nil:
			if v, ok := req.Slot.WaitUntil(req.Gen, deadline); ok {
				return v, nil
			}
			return fpga.Verdict{}, errDeadline
		case !errors.Is(err, fpga.ErrFull):
			return fpga.Verdict{}, err
		case time.Now().After(deadline):
			return fpga.Verdict{}, errDeadline
		}
		runtime.Gosched() // admission: poll past backpressure
	}
	return fpga.Verdict{}, errStale
}

// settle releases the inflight reference of an engine-issued claim: its
// sequence is published — degradation's quiesce-and-reseed rebases at
// GlobalTS, which now covers it, write-back or not — or was given up.
func (r *TM) settle(c claim) {
	if c.engine {
		r.ft.inflight.Add(-1)
	}
}

// lapsed reports whether a committer waiting for the turn of an
// engine-issued sequence must give the sequence up: the runtime left the
// healthy state, or (checked every 64th spin) the wait outlived the
// deadline, which is itself a reason to degrade.
func (ft *faultModel) lapsed(spin int, deadline time.Time) bool {
	missed := spin&63 == 63 && time.Now().After(deadline)
	if !missed && ft.state.Load() == stateHealthy {
		return false
	}
	ft.abandoned.Add(1)
	if missed {
		ft.deadlineMisses.Add(1)
		ft.degrade()
	}
	return true
}

// degrade starts the healthy→draining→degraded transition (at most one in
// flight; losers of the CAS return immediately). The heavy lifting runs in
// a background goroutine so the committer that tripped the transition can
// proceed into the fallback as soon as it opens.
func (ft *faultModel) degrade() {
	r := ft.r
	if r.cfg.DisableFallback {
		return
	}
	if !ft.state.CompareAndSwap(stateHealthy, stateDraining) {
		return
	}
	ft.fallbackEntries.Add(1)
	r.bg.Add(1)
	go func() {
		defer r.bg.Done()
		// Make the outage crisp: every outstanding request gets a
		// terminal verdict now, not a maybe-later one, and nothing new is
		// accepted.
		ft.link.Crash()
		// Quiesce: wait until no committer can still claim an
		// engine-issued sequence (they all observe the state change, get
		// a closed verdict, or hit their deadline — all bounded).
		for ft.inflight.Load() != 0 {
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
		ft.fbMu.Lock()
		ft.fbPl.ResetAt(core.Seq(r.globalTS.Load()))
		ft.fbMu.Unlock()
		ft.state.Store(stateDegraded)
		ft.recoverLoop()
	}()
}

// recoverLoop probes the engine until it answers again, then promotes the
// runtime back to healthy. Runs in the degradation goroutine; exits on
// promotion or Close.
func (ft *faultModel) recoverLoop() {
	for {
		select {
		case <-ft.r.stop:
			return
		case <-time.After(ft.r.cfg.ProbeInterval):
		}
		ft.probes.Add(1)
		if err := ft.link.Restart(ft.r.globalTS.Load()); err != nil {
			ft.probeFailures.Add(1)
			continue
		}
		if !ft.probeHealthy() {
			ft.probeFailures.Add(1)
			continue
		}
		if ft.promote() {
			return
		}
	}
}

// probeHealthy sends probeCount probe requests through the link (probes
// traverse the queues and pipeline but commit nothing) and reports whether
// all answered OK within the deadline. The prober is a single goroutine, so
// one dedicated slot serves every probe allocation-free.
func (ft *faultModel) probeHealthy() bool {
	for i := 0; i < probeCount; i++ {
		preq := fpga.Request{Probe: true, Slot: &ft.probeSlot, Gen: ft.probeSlot.Prepare()}
		if v, err := ft.submit(preq, stateDegraded); err != nil || !v.OK {
			return false
		}
	}
	return true
}

// promote completes a recovery: drain the fallback (every issued sequence
// commits — the software path has no loss modes), re-synchronize the
// engine window at the drained commit count, and reopen the engine path.
// Holding fbMu the whole time keeps new fallback validations out.
func (ft *faultModel) promote() bool {
	r := ft.r
	ft.fbMu.Lock()
	defer ft.fbMu.Unlock()
	next := uint64(ft.fbPl.NextSeq())
	for r.globalTS.Load() != next {
		select {
		case <-r.stop:
			return false
		default:
		}
		runtime.Gosched()
	}
	if err := ft.link.Restart(r.globalTS.Load()); err != nil {
		// The engine disappeared again between probe and promotion; stay
		// degraded and keep probing.
		ft.probeFailures.Add(1)
		return false
	}
	ft.fallbackExits.Add(1)
	ft.state.Store(stateHealthy)
	return true
}
