package rococotm

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"rococotm/internal/core"
	"rococotm/internal/fpga"
	"rococotm/internal/mem"
	"rococotm/internal/tm"
)

// stubLink is a scripted engine link for deterministic degradation tests.
// Modes:
//
//	stubSwallow — accept every request and never answer (a silent link);
//	stubClosed  — refuse everything with ErrClosed and fail restarts;
//	stubServe   — answer synchronously from a private Pipeline, like a
//	              zero-latency healthy engine;
//	stubFull    — refuse everything with ErrFull (a stalled link).
type stubLink struct {
	inner Link // the real engine, kept only so Close tears it down
	mode  atomic.Int32
	pl    *fpga.Pipeline

	restarts atomic.Int32
}

const (
	stubSwallow int32 = iota
	stubClosed
	stubServe
	stubFull
)

func newStub(inner Link, cfg fpga.Config, mode int32) *stubLink {
	pl, err := fpga.NewPipeline(cfg)
	if err != nil {
		panic(err)
	}
	s := &stubLink{inner: inner, pl: pl}
	s.mode.Store(mode)
	return s
}

func (s *stubLink) TrySubmit(r fpga.Request) error {
	switch s.mode.Load() {
	case stubSwallow:
		return nil
	case stubClosed:
		return fpga.ErrClosed
	case stubFull:
		return fpga.ErrFull
	default:
		// Serve synchronously. Single-threaded tests only; no locking.
		r.Deliver(s.pl.Process(r))
		return nil
	}
}

func (s *stubLink) Restart(next uint64) error {
	if s.mode.Load() == stubClosed {
		return errors.New("stub: engine down")
	}
	s.pl.ResetAt(core.Seq(next))
	s.restarts.Add(1)
	return nil
}

func (s *stubLink) Crash() {}

func (s *stubLink) Close() { s.inner.Close() }

// newFaultTM builds a fault-tolerant runtime whose link is a stubLink in
// the given starting mode.
func newFaultTM(t *testing.T, mode int32, tweak func(*Config)) (*TM, *stubLink) {
	t.Helper()
	var stub *stubLink
	cfg := Config{
		MaxThreads:       4,
		ValidateDeadline: 2 * time.Millisecond,
		ProbeInterval:    200 * time.Microsecond,
		WrapLink: func(inner Link) Link {
			stub = newStub(inner, fpga.Config{}, mode)
			return stub
		},
	}
	if tweak != nil {
		tweak(&cfg)
	}
	h := mem.NewHeap(1 << 10)
	m := New(h, cfg)
	t.Cleanup(m.Close)
	return m, stub
}

// runWrite runs one read-modify-write transaction through the retry loop.
func runWrite(t *testing.T, m *TM, a mem.Addr) {
	t.Helper()
	if err := tm.Run(m, 0, func(x tm.Txn) error {
		v, err := x.Read(a)
		if err != nil {
			return err
		}
		return x.Write(a, v+1)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFallbackOnSilentEngine: a link that swallows requests must trip the
// deadline, degrade, and commit through the software validator.
func TestFallbackOnSilentEngine(t *testing.T) {
	m, _ := newFaultTM(t, stubSwallow, nil)
	a := m.Heap().MustAlloc(1)
	for i := 0; i < 10; i++ {
		runWrite(t, m, a)
	}
	if got := m.Heap().Load(a); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	fs := m.FaultStats()
	if fs.DeadlineMisses == 0 {
		t.Error("no deadline misses recorded")
	}
	if fs.FallbackEntries != 1 {
		t.Errorf("FallbackEntries = %d, want 1", fs.FallbackEntries)
	}
	if fs.FallbackValidations < 10 {
		t.Errorf("FallbackValidations = %d, want ≥ 10", fs.FallbackValidations)
	}
	if fs.State != "degraded" {
		t.Errorf("state = %q, want degraded (stub never recovers)", fs.State)
	}
	if st := m.Stats(); st.Commits != 10 {
		t.Errorf("Commits = %d, want 10", st.Commits)
	}
}

// TestFallbackOnClosedEngine: ErrClosed from the link is an engine error
// that degrades immediately.
func TestFallbackOnClosedEngine(t *testing.T) {
	m, _ := newFaultTM(t, stubClosed, nil)
	a := m.Heap().MustAlloc(1)
	for i := 0; i < 5; i++ {
		runWrite(t, m, a)
	}
	fs := m.FaultStats()
	if fs.EngineErrors == 0 {
		t.Error("no engine errors recorded")
	}
	if fs.FallbackEntries != 1 {
		t.Errorf("FallbackEntries = %d, want 1", fs.FallbackEntries)
	}
	if got := m.Heap().Load(a); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

// TestRecoveryPromotesBack: degrade on a dead link, then script it back to
// life and watch the prober drain the fallback, re-sync the window and
// promote the engine path.
func TestRecoveryPromotesBack(t *testing.T) {
	m, stub := newFaultTM(t, stubClosed, nil)
	a := m.Heap().MustAlloc(1)
	for i := 0; i < 5; i++ {
		runWrite(t, m, a)
	}
	if fs := m.FaultStats(); fs.State != "degraded" {
		t.Fatalf("state = %q, want degraded", fs.State)
	}

	// Script the engine back to life; the prober should promote.
	stub.mode.Store(stubServe)
	deadline := time.Now().Add(5 * time.Second)
	for m.FaultStats().State != "healthy" {
		if time.Now().After(deadline) {
			t.Fatalf("never promoted back: %+v", m.FaultStats())
		}
		runtime.Gosched()
	}
	fs := m.FaultStats()
	if fs.FallbackExits != 1 {
		t.Errorf("FallbackExits = %d, want 1", fs.FallbackExits)
	}
	if fs.Probes == 0 {
		t.Error("no probes recorded")
	}
	if stub.restarts.Load() == 0 {
		t.Error("engine never restarted")
	}

	// The engine path serves again — and its sequences line up with the
	// commit order (the stub pipeline was rebased at globalTS by Restart).
	before := m.FaultStats().FallbackValidations
	for i := 0; i < 5; i++ {
		runWrite(t, m, a)
	}
	if got := m.Heap().Load(a); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	if after := m.FaultStats().FallbackValidations; after != before {
		t.Errorf("healthy commits still used the fallback (%d → %d)", before, after)
	}
}

// TestDisableFallbackAbortsWithReasonEngine: with the fallback disabled, a
// dead engine turns every write commit into a tm.ReasonEngine abort — and
// the runtime stays healthy (no degradation machinery engages).
func TestDisableFallbackAbortsWithReasonEngine(t *testing.T) {
	m, _ := newFaultTM(t, stubClosed, func(c *Config) { c.DisableFallback = true })
	a := m.Heap().MustAlloc(1)

	x, err := m.Begin(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Write(a, 1); err != nil {
		t.Fatal(err)
	}
	err = m.Commit(x)
	reason, ok := tm.IsAbort(err)
	if !ok || reason != tm.ReasonEngine {
		t.Fatalf("Commit = %v, want ReasonEngine abort", err)
	}
	fs := m.FaultStats()
	if fs.FallbackEntries != 0 {
		t.Errorf("FallbackEntries = %d, want 0", fs.FallbackEntries)
	}
	if fs.State != "healthy" {
		t.Errorf("state = %q, want healthy", fs.State)
	}
	st := m.Stats()
	if st.Reasons[tm.ReasonEngine] == 0 {
		t.Error("ReasonEngine abort not counted")
	}
	// Read-only transactions are untouched by the outage: they commit on
	// the CPU without validation.
	if err := tm.Run(m, 0, func(x tm.Txn) error {
		_, err := x.Read(a)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineAbortsDoNotEscalateToIrrevocable: engine-unavailability aborts
// must not push a thread into irrevocable mode (which would freeze all
// commits behind the global gate during an outage).
func TestEngineAbortsDoNotEscalateToIrrevocable(t *testing.T) {
	m, _ := newFaultTM(t, stubClosed, func(c *Config) {
		c.DisableFallback = true
		c.IrrevocableAfter = 2
	})
	a := m.Heap().MustAlloc(1)
	for i := 0; i < 5; i++ {
		x, err := m.Begin(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := x.Write(a, 1); err != nil {
			t.Fatal(err)
		}
		if reason, ok := tm.IsAbort(m.Commit(x)); !ok || reason != tm.ReasonEngine {
			t.Fatalf("attempt %d: want ReasonEngine abort", i)
		}
	}
	if got := m.consec[0]; got != 0 {
		t.Fatalf("consec[0] = %d after engine aborts, want 0", got)
	}
}

// TestLegacyModeUnchanged: with ValidateDeadline zero the runtime keeps
// the original trusting path — no fault goroutines, FaultStats inert.
func TestLegacyModeUnchanged(t *testing.T) {
	h := mem.NewHeap(1 << 10)
	m := New(h, Config{MaxThreads: 2})
	defer m.Close()
	a := h.MustAlloc(1)
	for i := 0; i < 10; i++ {
		runWrite(t, m, a)
	}
	if got := h.Load(a); got != 10 {
		t.Fatalf("counter = %d, want 10", got)
	}
	fs := m.FaultStats()
	if fs.State != "healthy" || fs.FallbackEntries != 0 || fs.DeadlineMisses != 0 {
		t.Fatalf("legacy mode touched fault machinery: %+v", fs)
	}
}
