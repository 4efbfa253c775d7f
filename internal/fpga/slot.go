package fpga

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// VerdictSlot is the push-queue endpoint of the batched transport: a
// single-owner, reusable mailbox one verdict wide. A committer owns a slot
// for the lifetime of its thread, arms it with Prepare before every
// submission, and busy-polls (or parks on) it for the verdict — no Reply
// channel is allocated, and successive validations on the same thread reuse
// the same cache line, which is the software shape of the hardware's
// per-AFU push-queue doorbell.
//
// The slot's state word encodes a generation counter and a phase:
//
//	state = gen<<2 | phase     phase ∈ {idle, pending, writing, ready}
//
// Prepare bumps the generation and arms phase=pending; the publisher CASes
// pending→writing for its own generation only, copies the verdict, then
// releases writing→ready. A verdict for any other generation fails the CAS
// and is dropped: late and duplicate verdicts are rejected by construction,
// the at-most-once delivery a buffered channel would give through
// non-blocking sends.
//
// Owner-side waiting is spin-then-park (Engine.combine): the waiter burns a
// bounded number of polls, then raises the parked flag and sleeps on a
// one-token wake channel. The
// publisher stores ready before loading parked and the waiter stores parked
// before re-loading state, so with sequentially consistent atomics at least
// one side observes the other (the Dekker handshake) and wakeups are never
// lost.
type VerdictSlot struct {
	_      [8]uint64 // keep neighboring slots off this cache line
	state  atomic.Uint64
	parked atomic.Uint32
	wake   chan struct{}
	v      Verdict
	_      [4]uint64
}

// Slot phases (low two bits of the state word).
const (
	slotIdle uint64 = iota
	slotPending
	slotWriting
	slotReady
)

// slotSpin is how many polls a waiter burns before parking. The healthy
// round trip is a handful of scheduler quanta; parking earlier would put a
// goroutine wakeup on every verdict.
const slotSpin = 256

// Prepare arms the slot for one request and returns the generation the
// caller must carry in Request.Gen. Only the owner calls Prepare, and only
// when no request on the slot is outstanding.
func (s *VerdictSlot) Prepare() uint64 {
	if s.wake == nil {
		s.wake = make(chan struct{}, 1)
	}
	for {
		st := s.state.Load()
		if st&3 == slotWriting {
			// A stale publisher is mid-copy; it releases promptly.
			runtime.Gosched()
			continue
		}
		gen := (st >> 2) + 1
		if s.state.CompareAndSwap(st, gen<<2|slotPending) {
			return gen
		}
	}
}

// publish delivers v for generation gen. It reports false when the slot
// has moved on (a duplicate delivery).
//
//tm:hotpath
func (s *VerdictSlot) publish(gen uint64, v Verdict) bool {
	if !s.state.CompareAndSwap(gen<<2|slotPending, gen<<2|slotWriting) {
		return false
	}
	s.v = v
	s.state.Store(gen<<2 | slotReady)
	if s.parked.Load() != 0 {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
	return true
}

// TryTake polls for generation gen's verdict without blocking.
//
//tm:hotpath
func (s *VerdictSlot) TryTake(gen uint64) (Verdict, bool) {
	if s.state.Load() == gen<<2|slotReady {
		return s.v, true
	}
	return Verdict{}, false
}

// slotPool backs Engine.Validate for callers that pass no slot (tests,
// one-shot validations): borrowed slots make the convenience path
// allocation-free in steady state too.
var slotPool = sync.Pool{New: func() any { return new(VerdictSlot) }}
